type t = {
  cap : int;
  resident : int Util.Int_table.t; (* frame -> slot *)
  slots : int array; (* slot -> frame, -1 = free *)
  mutable filled : int;
  mutable free : int list; (* slots vacated by [remove] *)
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
    free = [];
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
    match t.free with
    | s :: rest ->
      t.free <- rest;
      s
    | [] ->
      if t.filled < t.cap then begin
        let s = t.filled in
        t.filled <- t.filled + 1;
        s
      end
      else next_victim t
  in
  let old = t.slots.(slot) in
  if old >= 0 then Util.Int_table.remove t.resident old;
  t.slots.(slot) <- frame;
  Util.Int_table.replace t.resident frame slot;
  old

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
    None
  end
  else begin
    t.misses <- t.misses + 1;
    let victim = install t frame in
    if victim >= 0 then Some victim else None
  end

let remove t frame =
  let slot = Util.Int_table.find t.resident frame in
  if slot >= 0 then begin
    Util.Int_table.remove t.resident frame;
    t.slots.(slot) <- -1;
    t.free <- slot :: t.free
  end

let clear t =
  Util.Int_table.reset t.resident;
  Array.fill t.slots 0 t.cap (-1);
  t.filled <- 0;
  t.free <- [];
  t.hits <- 0;
  t.misses <- 0

let hits t = t.hits
let misses t = t.misses
