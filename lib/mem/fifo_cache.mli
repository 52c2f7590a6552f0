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
    store, so the residency set is a {!Util.Int_table} and the slots
    {!remove} vacates are a list threaded through the slot array:
    {!mem}, {!touch}, {!admit} and {!remove} allocate nothing. Keys must
    be non-negative (frame ids, pcs). *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int

val mem : t -> int -> bool

val touch : t -> int -> bool
(** [touch t frame] returns [true] on a hit; on a miss, inserts [frame],
    evicting a (deterministically) random resident when full, and
    returns [false]. *)

val admit : t -> int -> int
(** Like {!touch}, but returns the frame evicted to make room, or [-1]
    if none was (a hit, or a miss that filled a free slot). Callers
    that maintain side tables keyed on residents — e.g.
    {!Page_digest_cache} — use the victim to drop the matching entry. *)

val remove : t -> int -> unit
(** [remove t frame] invalidates a resident frame (no-op if absent).
    Used when COW retires a frame from a cluster's working set: the
    dead copy would otherwise linger as cache pollution that an LRU
    policy would age out naturally. *)

val clear : t -> unit

val hits : t -> int
val misses : t -> int
(** Cumulative counters since creation or [clear]. *)
