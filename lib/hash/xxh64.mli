(** XXH64 — the 64-bit xxHash variant.

    Parallaft's program-state comparator hashes the contents of modified
    memory pages instead of copying them (paper §4.4; the paper uses
    XXH3-64b, the successor in the same family with the same collision
    regime). This is a from-scratch pure-OCaml implementation of the
    canonical XXH64 algorithm, validated against published test vectors.

    A streaming interface is provided so a multi-page region can be hashed
    without concatenating it into one buffer.

    No-allocation contract: every entry point allocates a small constant
    number of minor words per call (the boxed result, and in {!update}
    one store of the four lane accumulators), never words per byte. This
    rests on the lane helpers carrying the [inline] attribute: ocamlopt
    without flambda boxes every [int64] a non-inlined call returns, which
    made each 8-byte lane allocate. [test/test_hash.ml] guards the
    contract. *)

val hash : ?seed:int64 -> Bytes.t -> int64
(** [hash ?seed b] hashes all of [b]. [seed] defaults to [0L]. *)

val hash_sub : ?seed:int64 -> Bytes.t -> pos:int -> len:int -> int64
(** [hash_sub ?seed b ~pos ~len] hashes the [len] bytes of [b] starting at
    [pos].

    @raise Invalid_argument if [pos]/[len] do not describe a valid range. *)

type state
(** Streaming hashing state. *)

val init : ?seed:int64 -> unit -> state

val update : state -> Bytes.t -> pos:int -> len:int -> unit
(** [update st b ~pos ~len] feeds a chunk. Chunk boundaries do not affect
    the final digest. *)

val update_int64 : state -> int64 -> unit
(** [update_int64 st v] feeds the 8 little-endian bytes of [v]; used to mix
    page numbers and register values into a state digest. *)

val digest : state -> int64
(** [digest st] finalizes without invalidating [st]; further updates may
    follow and later digests reflect them. *)
