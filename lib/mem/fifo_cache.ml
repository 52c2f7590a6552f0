type t = {
  cap : int;
  resident : int Util.Int_table.t; (* frame -> slot *)
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

let create ~capacity =
  if capacity <= 0 then invalid_arg "Fifo_cache.create: capacity <= 0";
  {
    cap = capacity;
    resident = Util.Int_table.create ~absent:(-1) capacity;
    slots = Array.make capacity (-1);
    filled = 0;
    free = -1;
    rng_state = 0x2545F491;
    hits = 0;
    misses = 0;
  }

let capacity t = t.cap

let mem t frame = Util.Int_table.mem t.resident frame

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

(* Insert a non-resident [frame], returning the resident it displaced,
   or -1 if the slot was free. *)
let install t frame =
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
  if old >= 0 then Util.Int_table.remove t.resident old;
  t.slots.(slot) <- frame;
  Util.Int_table.replace t.resident frame slot;
  if old >= 0 then old else -1

let touch t frame =
  if Util.Int_table.mem t.resident frame then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    ignore (install t frame);
    false
  end

let admit t frame =
  if Util.Int_table.mem t.resident frame then begin
    t.hits <- t.hits + 1;
    -1
  end
  else begin
    t.misses <- t.misses + 1;
    install t frame
  end

let remove t frame =
  let slot = Util.Int_table.find t.resident frame in
  if slot >= 0 then begin
    Util.Int_table.remove t.resident frame;
    t.slots.(slot) <- -2 - t.free;
    t.free <- slot
  end

let clear t =
  Util.Int_table.reset t.resident;
  Array.fill t.slots 0 t.cap (-1);
  t.filled <- 0;
  t.free <- -1;
  t.hits <- 0;
  t.misses <- 0

let hits t = t.hits
let misses t = t.misses
