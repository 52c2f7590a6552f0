(** Low-overhead event tracing for the runtime.

    A trace is a preallocated ring buffer of typed events, each keyed on
    {e simulated} time (the engine's [now_ns]) — never wall clock — so
    two runs from the same seed produce bit-identical traces. When the
    buffer fills, the oldest events are overwritten and counted in
    {!dropped}; emitting never allocates beyond the event record itself.

    Events carry a {!track} (which Perfetto/Chrome row they render on),
    a {!phase} (span begin/end, instant, or counter sample) and a small
    list of primitive arguments. The event taxonomy itself is defined by
    the emit sites (coordinator, scheduler, engine); see DESIGN.md
    "Observability". *)

type track =
  | Core of int  (** a physical core's timeline (the main process) *)
  | Proc of int  (** a process timeline, keyed by pid (checkers) *)
  | Tenant of int
      (** fleet mode: one row per admitted guest program (admission,
          completion, steal/teardown instants) *)
  | Run  (** run-global instants: detections, recoveries, pacing *)

type phase =
  | Begin  (** opens a span on [track]; closed by a matching [End] *)
  | End
  | Instant
  | Counter  (** sampled value series; args are the sample values *)

type arg =
  | Int of int
  | Str of string

type event = {
  ts_ns : int;  (** simulated nanoseconds since run start *)
  track : track;
  phase : phase;
  name : string;
  args : (string * arg) list;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is the ring size in events (default 65536); the storage
    is allocated eagerly. *)

val set_enabled : t -> bool -> unit
(** A disabled trace records nothing; {!emit} is a single load+branch. *)

val enabled : t -> bool

val emit :
  t ->
  ts_ns:int ->
  track:track ->
  phase:phase ->
  ?args:(string * arg) list ->
  string ->
  unit

val length : t -> int
(** Events currently retained (at most [capacity]). *)

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val events : t -> event list
(** Retained events, oldest first. *)

val iter : (event -> unit) -> t -> unit
(** Oldest first. *)

val clear : t -> unit
