type t = {
  cap : int;
  mutable index : Bytes.t;
      (* key -> slot + 1 in 16 native-endian bits at byte [2 * key], 0 if
         absent. Covers keys below [Bytes.length index / 2]; grows by
         doubling when a key past its end is installed. *)
  slots : int array;
      (* slot -> frame. A slot [remove] vacated holds [-2 - next], [next]
         being the slot vacated before it (-1 if none): the free slots
         are a LIFO list threaded through [slots]. Others hold -1. *)
  mutable filled : int;
  mutable free : int; (* the last slot vacated by [remove], -1 if none *)
  mutable rng_state : int; (* xorshift for victim selection *)
  mutable hits : int;
  mutable misses : int;
}

(* The index stores [slot + 1] in 16 bits, so the last slot must stay
   below 0xFFFF. *)
let max_capacity = 0xFFFE

let create ~capacity =
  if capacity <= 0 then invalid_arg "Fifo_cache.create: capacity <= 0";
  if capacity > max_capacity then
    invalid_arg "Fifo_cache.create: capacity >= 0xFFFF";
  {
    cap = capacity;
    index = Bytes.make (2 * capacity) '\000';
    slots = Array.make capacity (-1);
    filled = 0;
    free = -1;
    rng_state = 0x2545F491;
    hits = 0;
    misses = 0;
  }

let capacity t = t.cap

(* The key's slot, or -1 if it is not resident. A key past the index's
   end is absent; a negative one fails [Bytes.get_uint16_ne]'s bounds
   check. *)
let slot_of t key =
  if key >= Bytes.length t.index lsr 1 then -1
  else Bytes.get_uint16_ne t.index (key lsl 1) - 1

let mem t frame = slot_of t frame >= 0

(* Deterministic xorshift; random replacement makes the miss rate degrade
   smoothly as the resident set outgrows capacity, instead of the
   all-or-nothing cliff FIFO/LRU exhibit on cyclic access patterns. *)
let next_victim t =
  let x = t.rng_state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = (x lxor (x lsl 17)) land max_int in
  t.rng_state <- x;
  x mod t.cap

(* Double the index until it covers [key]; the new tail is absent. *)
let grow t key =
  let len = Bytes.length t.index in
  let rec size n = if n > key lsl 1 then n else size (2 * n) in
  let index = Bytes.make (size (2 * len)) '\000' in
  Bytes.blit t.index 0 index 0 len;
  t.index <- index

(* Insert a non-resident [frame], returning the resident it displaced,
   or -1 if the slot was free. *)
let install t frame =
  if frame >= Bytes.length t.index lsr 1 then grow t frame;
  let slot =
    if t.free >= 0 then begin
      let s = t.free in
      t.free <- -2 - t.slots.(s);
      s
    end
    else if t.filled < t.cap then begin
      t.filled <- t.filled + 1;
      t.filled - 1
    end
    else next_victim t
  in
  let old = t.slots.(slot) in
  if old >= 0 then Bytes.set_uint16_ne t.index (old lsl 1) 0;
  t.slots.(slot) <- frame;
  Bytes.set_uint16_ne t.index (frame lsl 1) (slot + 1);
  if old >= 0 then old else -1

let touch t frame =
  if mem t frame then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    ignore (install t frame);
    false
  end

let admit t frame =
  if mem t frame then begin
    t.hits <- t.hits + 1;
    -1
  end
  else begin
    t.misses <- t.misses + 1;
    install t frame
  end

let remove t frame =
  let slot = slot_of t frame in
  if slot >= 0 then begin
    Bytes.set_uint16_ne t.index (frame lsl 1) 0;
    t.slots.(slot) <- -2 - t.free;
    t.free <- slot
  end

let hits t = t.hits
let misses t = t.misses
