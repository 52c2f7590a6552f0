(** The typed per-segment state machine.

    A segment moves through the pipeline of Figure 1(b):

    {v
      Recording ──────────► Awaiting_launch ─────► Checking ───► Done
          │    finish_recording     ▲  begin_checking │  complete  ▲
          │                         └─────────────────┘            │
          │                     redispatch (re-check/watchdog)     │
          └────────────────────────────────────────────────────────┘
            complete (RAFT streaming checker dies mid-record)
    v}

    Each state carries exactly the data that is meaningful in it, so
    fields like the end point, the replay driver or the log cursor
    cannot be observed before they exist — what used to be
    [mutable ... option] fields plus [Option.get] in the coordinator is
    now enforced by the variant. Illegal transitions and out-of-state
    accesses raise {!Invariant_violation} unconditionally; the
    {!check_invariants} self-check (run-level sweeps are gated on
    {!Config.t.check_invariants}) validates history legality and
    intra-state consistency.

    The segment is also the run's only check ledger (DESIGN.md §18):
    [Done] is terminal, so a check settles at most once; {!redispatches}
    is the check's incarnation; a check holds the watchdog's lease clock
    while [Checking] ({!heartbeat}); and a torn-down segment is simply
    never verified. *)

exception Invariant_violation of string

(** RAFT streaming replay: the checker consumes the log concurrently
    with recording, stalling ([waiting]) whenever it catches up. *)
type streaming = {
  cursor : Rr_log.cursor;
  mutable waiting : bool;
  started_ns : int;  (** sim time the checker was handed to the scheduler *)
}

type recording = {
  log : Rr_log.t;
  streaming : streaming option;  (** [Some] only in RAFT mode *)
}

(** Fully recorded, checker not yet armed/launched. *)
type recorded = {
  log : Rr_log.t;
  end_point : Exec_point.t;
  insn_delta : int;
  main_dirty : int array;
  snapshot : Sim_os.Engine.pid option;
      (** end-of-segment checkpoint (when state comparison is on) *)
  streaming : streaming option;
}

type checking = {
  log : Rr_log.t;
  cursor : Rr_log.cursor;
  replay : Exec_point.replay;
  mutable pending_signals : (Exec_point.t * Sim_os.Sig_num.t) list;
  end_point : Exec_point.t;
      (** retained so {!redispatch} can rebuild the replay plan *)
  insn_delta : int;
  main_dirty : int array;
  snapshot : Sim_os.Engine.pid option;
  launched_at_ns : int;
  mutable hb_insns : int;
      (** the checker's instruction count at the last lease renewal *)
  mutable hb_since_ns : int;  (** sim time of the last lease renewal *)
}

type state =
  | Recording of recording
  | Awaiting_launch of recorded
  | Checking of checking
  | Done

(** Data-free tags of {!state}, for histories and comparisons. *)
type phase =
  | Recording_p
  | Awaiting_launch_p
  | Checking_p
  | Done_p

val phase_to_string : phase -> string
val legal_transition : from:phase -> into:phase -> bool

val legal_history : phase list -> bool
(** Starts with [Recording_p] and every consecutive pair is a
    {!legal_transition}. *)

type t

val create : id:int -> checker:Sim_os.Engine.pid -> t
(** A fresh segment in [Recording] with an empty log. *)

val id : t -> int

val checker : t -> Sim_os.Engine.pid
(** The current checker — replaced by {!redispatch} when a re-check or
    the watchdog promotes the spare. *)

val spare : t -> Sim_os.Engine.pid option
(** A pristine fork of the checker taken before it first ran (at
    launch under {!Config.t.recheck_on_mismatch}, at dispatch for the
    remote backend): the segment-start snapshot a re-dispatch launches
    from. *)

val set_spare : t -> Sim_os.Engine.pid option -> unit

val redispatches : t -> int
(** How many times this segment's check was re-dispatched: the
    incarnation of its current check. *)

val recheck_of : t -> Detection.outcome option
(** The checker-side failure the current check is re-checking; a pass
    resolves it as {!Detection.Transient_checker_fault}. *)

val set_recheck_of : t -> Detection.outcome option -> unit
val state : t -> state
val phase : t -> phase

val history : t -> phase list
(** Every phase the segment has been in, oldest first. *)

val torn_down : t -> bool
(** The segment was discarded by rollback or abort rather than
    completing its pipeline. *)

(** {2 Transitions} — each raises {!Invariant_violation} outside its
    legal source state. *)

val start_streaming : t -> started_ns:int -> unit
(** RAFT only: attach a streaming cursor to a recording segment. *)

val finish_recording :
  t ->
  end_point:Exec_point.t ->
  insn_delta:int ->
  main_dirty:int array ->
  snapshot:Sim_os.Engine.pid option ->
  unit
(** [Recording -> Awaiting_launch]. *)

val begin_checking :
  t ->
  replay:Exec_point.replay ->
  pending_signals:(Exec_point.t * Sim_os.Sig_num.t) list ->
  launched_at_ns:int ->
  now_ns:int ->
  insns:int ->
  unit
(** [Awaiting_launch -> Checking]. The cursor is inherited from the
    streaming checker when there is one (it has already consumed a log
    prefix), fresh otherwise. The lease clock starts here, at [now_ns]
    with the checker's instruction count [insns]. *)

val complete : t -> unit
(** [Checking -> Done], or [Recording -> Done] for a streaming checker
    that died mid-record. *)

val redispatch : t -> checker:Sim_os.Engine.pid -> unit
(** [Checking -> Awaiting_launch]: return a failed or watchdog-killed
    check to the launch queue on a fresh [checker] (the promoted
    spare). Clears the spare, bumps {!redispatches}; the caller re-keys
    the roles table and relaunches. A re-dispatched check never
    streams. *)

val replace_checker_prelaunch : t -> checker:Sim_os.Engine.pid -> unit
(** Swap in a replacement for a checker that died between dispatch and
    launch (the watchdog's pre-launch swap): stays in
    [Awaiting_launch], clears the spare, bumps {!redispatches}. The
    caller re-keys the roles table. Raises outside [Awaiting_launch]. *)

val heartbeat :
  t ->
  now_ns:int ->
  insns:int ->
  excused:bool ->
  budget_ns:int ->
  [ `Ok | `Expired ]
(** The watchdog's lease check: progress ([insns] above the last
    renewal's) or an excuse renews the lease; silence for more than a
    positive [budget_ns] since the last renewal expires it. Raises
    outside [Checking]. *)

val tear_down : t -> unit
(** Mark the segment discarded (rollback/abort); not a transition. *)

(** {2 Per-state accessors} *)

val recorded : t -> recorded
(** Raises unless [Awaiting_launch]. *)

val checking : t -> checking
(** Raises unless [Checking]. *)

val log : t -> Rr_log.t
(** Raises in [Done] (nothing may be recorded or replayed anymore). *)

val cursor : t -> Rr_log.cursor option
(** The replay cursor, in any state that has one: [Checking] always,
    earlier states only while streaming. *)

val snapshot : t -> Sim_os.Engine.pid option
val streaming : t -> streaming option

val launched_at : t -> int option
(** [Some ns] iff the checker has been handed to the scheduler: its
    segment reached [Checking], or it is streaming. *)

val waiting : t -> bool

val set_waiting : t -> bool -> unit
(** Raises when there is no streaming checker to stall/wake. *)

val is_done : t -> bool

val check_invariants : t -> unit
(** History legality, history/state agreement, intra-state consistency.
    Raises {!Invariant_violation} on the first failure. *)
