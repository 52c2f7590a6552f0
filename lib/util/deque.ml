(* Work-stealing double-ended queue (fleet checker scheduling,
   DESIGN.md §16). The owner core pushes and pops at the back (LIFO:
   the newest checker has the warmest cache affinity), thieves steal
   from the front (FIFO: the oldest queued checker has waited longest
   and bounds detection latency).

   A plain mutex-guarded ring suffices here: the simulated clock
   serializes all scheduling decisions, so the lock is never contended
   in practice — what the fleet measures is the *policy* (owner-LIFO /
   thief-FIFO placement), not lock-free throughput. The mutex keeps the
   structure safe if a test drives it from multiple domains. *)

type 'a t = {
  mutable buf : 'a option array;
  mutable front : int;  (* index of the oldest element *)
  mutable len : int;
  lock : Mutex.t;
}

let create () = { buf = Array.make 8 None; front = 0; len = 0; lock = Mutex.create () }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let grow t =
  let cap = Array.length t.buf in
  let buf' = Array.make (cap * 2) None in
  for i = 0 to t.len - 1 do
    buf'.(i) <- t.buf.((t.front + i) mod cap)
  done;
  t.buf <- buf';
  t.front <- 0

let push_back t x =
  with_lock t (fun () ->
      if t.len = Array.length t.buf then grow t;
      let cap = Array.length t.buf in
      t.buf.((t.front + t.len) mod cap) <- Some x;
      t.len <- t.len + 1)

let push_front t x =
  with_lock t (fun () ->
      if t.len = Array.length t.buf then grow t;
      let cap = Array.length t.buf in
      t.front <- (t.front + cap - 1) mod cap;
      t.buf.(t.front) <- Some x;
      t.len <- t.len + 1)

let pop_back t =
  with_lock t (fun () ->
      if t.len = 0 then None
      else begin
        let cap = Array.length t.buf in
        let i = (t.front + t.len - 1) mod cap in
        let x = t.buf.(i) in
        t.buf.(i) <- None;
        t.len <- t.len - 1;
        x
      end)

let steal_front t =
  with_lock t (fun () ->
      if t.len = 0 then None
      else begin
        let x = t.buf.(t.front) in
        t.buf.(t.front) <- None;
        t.front <- (t.front + 1) mod Array.length t.buf;
        t.len <- t.len - 1;
        x
      end)

let length t = with_lock t (fun () -> t.len)

let is_empty t = length t = 0

let to_list t =
  with_lock t (fun () ->
      List.init t.len (fun i ->
          match t.buf.((t.front + i) mod Array.length t.buf) with
          | Some x -> x
          | None -> assert false))

(* Remove every element matching [pred], preserving order of the rest;
   returns the removed elements front-first. Used by tenant teardown:
   a torn-down tenant's queued checkers must leave the pool without
   disturbing other tenants' entries. *)
let remove_where t pred =
  with_lock t (fun () ->
      let kept = ref [] and removed = ref [] in
      for i = 0 to t.len - 1 do
        match t.buf.((t.front + i) mod Array.length t.buf) with
        | Some x -> if pred x then removed := x :: !removed else kept := x :: !kept
        | None -> assert false
      done;
      Array.fill t.buf 0 (Array.length t.buf) None;
      t.front <- 0;
      t.len <- 0;
      List.iteri
        (fun i x ->
          t.buf.(i) <- Some x;
          t.len <- i + 1)
        (List.rev !kept);
      List.rev !removed)
