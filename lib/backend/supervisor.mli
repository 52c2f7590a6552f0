(** Exactly-once verification accounting for a run's checks
    (DESIGN.md §18): the run's check ledger, the same for every checker
    backend. The pipeline stages drive it directly — the recorder
    registers, the replayer leases and settles, the watchdog heartbeats
    and expires, teardown cancels — while a backend only counts its
    batches and the stale verdicts it discards.

    One entry per recorded segment, driven
    [Pending -> Leased -> Settled]. A lease names the node (or the
    in-process checker) currently entitled to produce the segment's
    verdict and the incarnation (redispatch count) it was granted at;
    re-dispatch re-grants the lease at a strictly higher incarnation, so
    a verdict arriving with an older incarnation is recognizably stale
    and discarded instead of double-counting. Structural violations
    (double settle, lease after settle, non-monotonic re-lease) raise
    {!Violation} unconditionally. *)

exception Violation of string

(** The check accounting. The supervisor counts into a record the
    caller owns (a run's [Stats.backend]), so there is no second copy
    to keep equal. *)
type counters = {
  mutable b_dispatched : int;  (** lease grants, including re-grants *)
  mutable b_redispatched : int;
      (** checks re-dispatched after a node death/stall/pre-launch loss *)
  mutable b_leases_expired : int;
      (** heartbeat-budget expiries declared by the supervisor *)
  mutable b_stale_verdicts : int;
      (** verdicts discarded because their lease incarnation lapsed *)
  mutable b_batches : int;  (** deferred launch batches drained *)
  mutable b_max_lag : int;
      (** high-water mark of recorded-but-unsettled segments *)
  mutable b_verified : int;  (** segments settled exactly once *)
  mutable b_launch_ns : int;
      (** simulated launch overhead charged to checkers (cold first-in-
          batch launches vs warm follow-ups — the fork-amortization
          signal test_backend's [batching amortizes launch cost] case
          checks); the launching backend counts it, not the
          supervisor *)
}

type t

val create : counters -> t
(** A supervisor with no entries that counts into [counters]. *)

val note_recorded : t -> int -> unit
(** Register a freshly recorded segment as [Pending].
    @raise Violation if the id was already registered. *)

val lease :
  t -> id:int -> node:int -> incarnation:int -> now_ns:int -> insns:int -> unit
(** Grant (or re-grant) the verification lease. A re-grant must carry a
    strictly higher incarnation and counts as a re-dispatch; a first
    grant at incarnation > 0 (the checker was swapped in the pre-launch
    window) counts as one too. [node] is [-1] for in-process backends. *)

val heartbeat :
  t ->
  id:int ->
  now_ns:int ->
  insns:int ->
  excused:bool ->
  budget_ns:int ->
  [ `Ok | `Expired ]
(** Progress supervision (the unified watchdog path): progress or an
    excuse renews the lease; silence past [budget_ns] expires it. A
    segment with no current lease always answers [`Ok]. *)

val note_expired : t -> id:int -> unit
(** Count one lease expiry (the caller decided to kill/re-dispatch). *)

val settle : t -> id:int -> incarnation:int -> [ `Ok | `Stale ]
(** Retire the segment on a verdict from [incarnation]. [`Stale] means
    the lease moved on (re-dispatch) — the verdict must be discarded.
    An unknown id is registered-and-settled in one step (a RAFT
    streaming checker can retire before its segment finishes recording).
    @raise Violation on a second settle. *)

val note_stale : t -> unit
(** Count a stale verdict discarded before reaching {!settle} (e.g. a
    parked late verdict whose incarnation lapsed while parked). *)

val note_batch : t -> unit

val cancel_unsettled : t -> int
(** Rollback/abort: drop every [Pending]/[Leased] entry (those segments
    were torn down, not verified) and return how many were dropped. *)

val current_incarnation : t -> id:int -> int option
val node_of : t -> id:int -> int option

val recorded : t -> int
val dispatched : t -> int
val redispatched : t -> int
val leases_expired : t -> int
val stale_verdicts : t -> int
val settled : t -> int
val unsettled : t -> int
val all_settled : t -> bool

val check_invariants : t -> unit
(** Cross-check the counters against the entry table.
    @raise Violation on disagreement. *)
