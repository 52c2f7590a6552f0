type track =
  | Core of int
  | Proc of int
  | Tenant of int  (* fleet mode: one row per admitted guest program *)
  | Run

type phase =
  | Begin
  | End
  | Instant
  | Counter

type arg =
  | Int of int
  | Str of string

type event = {
  ts_ns : int;
  track : track;
  phase : phase;
  name : string;
  args : (string * arg) list;
}

type t = {
  buf : event array;
  capacity : int;
  mutable head : int;  (* next write slot *)
  mutable len : int;
  mutable dropped : int;
  mutable enabled : bool;
}

let dummy = { ts_ns = 0; track = Run; phase = Instant; name = ""; args = [] }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity <= 0";
  { buf = Array.make capacity dummy; capacity; head = 0; len = 0;
    dropped = 0; enabled = true }

let set_enabled t on = t.enabled <- on
let enabled t = t.enabled

let emit t ~ts_ns ~track ~phase ?(args = []) name =
  if t.enabled then begin
    t.buf.(t.head) <- { ts_ns; track; phase; name; args };
    t.head <- (t.head + 1) mod t.capacity;
    if t.len < t.capacity then t.len <- t.len + 1 else t.dropped <- t.dropped + 1
  end

let length t = t.len
let dropped t = t.dropped

let iter f t =
  let first = (t.head - t.len + t.capacity) mod t.capacity in
  for i = 0 to t.len - 1 do
    f t.buf.((first + i) mod t.capacity)
  done

let events t =
  let acc = ref [] in
  iter (fun ev -> acc := ev :: !acc) t;
  List.rev !acc

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0
