(* The events are the serializable seglog records: the live pipeline
   stores and replays exactly what the on-disk format can express, so
   the in-memory path doubles as a proof that the format is complete. *)

module R = Seglog.Record

(* The log IS a seglog event stream: [record] encodes straight into a
   growable byte buffer and cursors decode back out of it. Cursors hold
   byte positions, so the buffer can keep growing while a checker
   replays (the RAFT streaming mode) — a re-created reader over the
   same bytes sees every appended event. *)
type t = {
  buf : Seglog.Codec.wbuf;
  mutable n : int;
}

let create () = { buf = Seglog.Codec.wbuf (); n = 0 }

let record t ev =
  R.put_event t.buf ev;
  t.n <- t.n + 1

let length t = t.n

(* Decoding our own buffer cannot fail; a Codec.Error here is a codec
   bug, so it propagates. *)
let reader_at t pos =
  Seglog.Codec.rbuf ~pos ~limit:(Seglog.Codec.wlen t.buf) (Seglog.Codec.wdata t.buf)

let events t =
  let r = reader_at t 0 in
  List.init t.n (fun _ -> R.get_event r)

let signals events =
  List.filter_map
    (function
      | R.Ext_signal { at; signum } -> Some (at, signum)
      | R.Sys _ | R.Nondet _ -> None)
    events

let signal_points t = signals (events t)

type cursor = {
  log : t;
  mutable pos : int;  (** byte offset of the next un-consumed event *)
}

let cursor t = { log = t; pos = 0 }

let rec next_interaction c =
  if c.pos >= Seglog.Codec.wlen c.log.buf then None
  else begin
    let r = reader_at c.log c.pos in
    let ev = R.get_event r in
    c.pos <- Seglog.Codec.rpos r;
    match ev with
    | R.Ext_signal _ -> next_interaction c
    | R.Sys _ | R.Nondet _ -> Some ev
  end
