(** Sim-clock model of a runtime that memoizes per-frame page digests,
    keyed on [(frame id, generation)].

    The paper's comparator hashes whole pages; between segment
    boundaries most frames are untouched, so a runtime can reuse their
    digests instead of re-reading and re-hashing them. This module
    models only which digests such a runtime would hold: the comparator
    charges a page's hash to the sim clock ([bytes_hashed]) on a miss
    and nothing on a hit. The host itself decides equality chunk by
    chunk ({!Frame.same_bytes}) and stores no digest here.

    Frame ids are never reused and every in-place write bumps the
    frame's generation ({!Frame.bump_generation} via
    {!Page_table.store_prepare}), so a [(id, generation)] pair
    identifies immutable byte contents: a modelled hit is always a
    digest the runtime could safely reuse.

    Frame ids are only unique within one {!Frame.allocator}: never share
    a model across allocators (the coordinator keeps one per run, and
    all of a run's address spaces fork from one allocator).

    Residency is bounded by an underlying {!Fifo_cache} (deterministic
    random replacement); evicting a frame drops its generation, keeping
    the model at [capacity] entries. Entries for dead frames are
    harmless — their ids never recur — and age out under eviction
    pressure. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val lookup : t -> frame:int -> generation:int -> bool
(** [lookup t ~frame ~generation] is [true] (a hit) iff the modelled
    runtime holds a digest of exactly this content version. On a miss
    (absent, or a stale generation) it records the version as resident,
    evicting a random resident when full. [generation] is a
    {!Frame.t} generation, so never negative. *)

val resident : t -> int
(** Frames currently resident; at most the capacity. *)

val clear : t -> unit
