(** Serialization of parallaft-seglog v2 manifest and segment files.

    A writer is stateful across the segments of one run: it keeps the
    last raw payload written per vpn (the "parent frame") so later
    segments can xor-delta against it, and it accumulates size /
    compression statistics for the obs layer. The {!Reader} mirrors the
    parent-frame state, so segment files must be read in write order. *)

type stats = {
  mutable segments : int;
  mutable bytes_written : int;  (** total segment-file bytes *)
  mutable raw_page_bytes : int;
  mutable stored_page_bytes : int;  (** post-compression payload bytes *)
}

type t

val create : header:Record.header -> t
val stats : t -> stats

val segment : t -> Record.segment -> Bytes.t
(** Encode one segment file's content, updating the
    parent-frame map and stats. The writer keeps each page of the
    segment, without copying it, as its vpn's parent frame: the caller
    must not mutate the pages after the call. *)

val manifest : Record.manifest -> Bytes.t
(** Encode the run manifest file's content. Stateless. *)
