(** A random-replacement set of physical frame ids.

    The timing model approximates caches at page granularity: a cache
    level is a bounded set of frame numbers with (deterministic)
    random replacement — unlike FIFO/LRU, random replacement degrades
    smoothly on cyclic access patterns larger than the capacity, which
    is what big data-parallel working sets look like here. Keys are
    {e physical} frame ids, so COW-shared pages naturally hit in a shared
    level when the main process and a freshly forked checker touch the
    same data — and stop sharing once COW breaks the frame in two, exactly
    the contention behaviour the paper attributes to checkpointing.

    The engine's L1/L2 model calls {!touch} on every guest load and
    store, so keys are dense small ints looked up by direct indexing:
    frame ids count up from 0 in each engine and are never reused, and
    the block cache's keys are entry pcs below its program's length. A
    [Bytes.t] index holds each key's slot + 1 in 16 bits (0 = absent),
    and the slots {!remove} vacates are a list threaded through the slot
    array. {!mem}, {!touch}, {!admit} and {!remove} allocate nothing,
    except that installing a key past the index's end grows the index by
    doubling until it covers the key: one fresh [Bytes.t] (on the major
    heap once past 2 KiB), copied from the old. A key past the end is
    absent to {!mem} and a no-op to {!remove}. Keys must be
    non-negative; a negative one raises [Invalid_argument]. *)

type t

val max_capacity : int
(** 0xFFFE: the largest capacity whose slot + 1 fits the index's 16
    bits. *)

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity <= 0] or [capacity >= 0xFFFF]
    (above {!max_capacity}). *)

val capacity : t -> int

val mem : t -> int -> bool

val touch : t -> int -> bool
(** [touch t frame] returns [true] on a hit; on a miss, inserts [frame],
    evicting a (deterministically) random resident when full, and
    returns [false]. *)

val admit : t -> int -> int
(** Like {!touch}, but returns the frame evicted to make room, or [-1]
    if none was (a hit, or a miss that filled a free slot). Callers
    that maintain side tables keyed on residents (the block cache's
    decoded blocks) use the victim to drop the matching entry. *)

val remove : t -> int -> unit
(** [remove t frame] invalidates a resident frame (no-op if absent).
    Used when COW retires a frame from a cluster's working set: the
    dead copy would otherwise linger as cache pollution that an LRU
    policy would age out naturally. *)

val hits : t -> int
val misses : t -> int
(** Cumulative counters since creation. *)
