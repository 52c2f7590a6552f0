(** The observability sink a run writes into: one trace ring, one set
    of metric histograms and one phase profiler. A [Config.t] carries
    an optional sink ([None] by default) that the run attaches to its
    engine ([Sim_os.Engine.set_obs]); every emit site reaches it through
    the engine and is a no-op without one. A trace whose ring is
    disabled ([Trace.set_enabled]) records no events while the
    histograms are still kept, and the profiler is off until
    [Profile.set_enabled]. *)

type t = {
  trace : Trace.t;
  metrics : Metrics.t;
  profile : Profile.t;
}

val create : ?trace_capacity:int -> unit -> t

val emit :
  t ->
  ts_ns:int ->
  track:Trace.track ->
  phase:Trace.phase ->
  ?args:(string * Trace.arg) list ->
  string ->
  unit

val merge_into : t -> t list -> unit
(** Fold per-task sinks back into one after a parallel fan-out
    ([Util.Pool]): traces are appended in list (task) order, histogram
    observations re-added and profiles summed. A sink is not
    domain-safe, so parallel tasks must each write to a private sink;
    callers merge after the join, passing sinks in task input order to
    keep the result independent of domain scheduling. *)

val observe : t -> string -> float -> unit

(** {2 Phase profiling}

    Thin glue over {!Profile} that additionally mirrors every phase
    transition into the trace as a ["profile.<name>"] counter-track
    sample ([Trace.Counter], exported as ["ph":"C"]) carrying the
    cumulative self-time. All of these are no-ops while the profiler is
    disabled, so traces and goldens are byte-identical unless profiling
    was explicitly requested. *)

val phase_enter :
  t -> ts_ns:int -> track:Trace.track -> ?segment:int -> string -> unit

val phase_leave : t -> ts_ns:int -> track:Trace.track -> string -> unit

val phase_add :
  t ->
  ts_ns:int ->
  tracks:Trace.track list ->
  ?segment:int ->
  string ->
  int ->
  unit

val phase_units :
  t -> tracks:Trace.track list -> decoded:int -> insns:int -> blocks:int -> unit
val phase_close_all : t -> ts_ns:int -> unit
