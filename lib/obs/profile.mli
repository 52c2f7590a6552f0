(** Phase-attribution profiler: nestable monotonic phase scopes keyed
    by trace track, timestamped in simulated nanoseconds, with
    per-segment attribution. One profiler belongs to one run's sink.

    Scopes that close on a [Trace.Core _] track are {e wall} phases:
    they are sequential on the main core's timeline, so their self-times
    partition the main wall-clock and sum to at most the run wall-time.
    Everything else ([Proc]/[Run] scopes and zero-width [add_ns]
    charges) is concurrent {e work}, reported alongside but not summed
    into the wall partition.

    A profiler is created {e disabled} and costs one load+branch per
    call until [set_enabled] turns it on — the same zero-cost-when-off
    contract as [Config.obs]. *)

type t

type phase_summary = {
  count : int;  (** scope closures (or [add_ns] charges) folded in *)
  total_ns : int;  (** inclusive elapsed time *)
  self_ns : int;  (** exclusive time: elapsed minus nested children *)
  insns : int;  (** instructions retired while this phase was innermost *)
  blocks : int;  (** basic blocks dispatched while innermost *)
  decoded : int;
      (** basic blocks decoded (block-cache misses) while innermost — the
          interpreter's decode work, charged like insns/blocks *)
  wall : bool;  (** closed on a [Core _] track: part of the wall partition *)
}

val create : unit -> t
val set_enabled : t -> bool -> unit
val enabled : t -> bool

val enter : t -> ts_ns:int -> track:Trace.track -> ?segment:int -> string -> unit
(** Open a scope on [track]. Scopes on one track nest. *)

val leave : t -> ts_ns:int -> track:Trace.track -> string -> int option
(** Close the innermost scope named [name] on [track] (tolerant pop, as
    in [Export.summary]); the elapsed time is charged as a child of the
    enclosing scope. Returns the phase's new cumulative self-time (for
    counter-track emission), or [None] if disabled / no matching scope. *)

val add_ns :
  t -> tracks:Trace.track list -> ?segment:int -> string -> int -> int option
(** Attribute a zero-width charge of [ns] to the named phase, debiting
    the innermost open scope on the first of [tracks] that has one (so
    that scope's self-time excludes the charge). Returns the phase's new
    cumulative self-time. *)

val add_units :
  t -> tracks:Trace.track list -> decoded:int -> insns:int -> blocks:int -> unit
(** Batched hot-path counters: credit instructions/blocks/decoded
    blocks to the phase of the innermost open scope on the first of
    [tracks] that has one. Silently dropped when no scope is open
    (e.g. baseline runs). *)

val close_all : t -> ts_ns:int -> unit
(** Close every in-flight scope at [ts_ns], innermost first, tracks in
    sorted order — used at teardown (abort/rollback/run end) so no
    elapsed time is lost. *)

val phases : t -> (string * phase_summary) list
(** Name-sorted aggregate summaries. *)

val per_segment : t -> (int * (string * int) list) list
(** Segment-sorted, name-sorted per-segment self-times for scopes and
    charges that carried [?segment]. *)

val wall_attributed_ns : t -> int
(** Sum of self-times over wall phases; <= run wall-time. *)

val to_table : t -> wall_ns:int -> string
(** Human-readable breakdown: wall partition, concurrent work rows,
    attribution footer, per-segment lines. Deterministic. *)
