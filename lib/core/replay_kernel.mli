(** The replay kernel: how a process re-executes one recorded segment
    (§4.2-4.3, DESIGN.md §12 and §17).

    Interactions are answered from the segment's record-and-replay log:
    syscall argument data is checked against the record; effectful and
    non-effectful calls get the recorded result and memory effects;
    process-local calls are re-executed, an anonymous mmap pinned to
    the recorded address; nondeterministic instructions get their
    recorded values. The process is driven to each recorded execution
    point by branch counter, breakpoint and skid margin, and recorded
    signals are delivered there. An interaction left in the log at the
    end point is a divergence.

    The live checker ({!Replayer}) and offline re-checking ({!Offline})
    both instantiate {!Make}; they differ only in their {!WORLD}. *)

val read_mem_opt : Mem.Address_space.t -> addr:int -> len:int -> Bytes.t option
(** [None] when the range is not mapped. *)

val syscall_in_data : Mem.Address_space.t -> Sim_os.Syscall.call -> Bytes.t option
(** The argument bytes a syscall hands the kernel (a write payload, an
    open path): what the recorder stores as [in_data] and replay checks
    the replaying process's buffer against. *)

val reexecute :
  Sim_os.Engine.t ->
  Sim_os.Engine.pid ->
  pin_to:int option ->
  Sim_os.Syscall.call ->
  unit
(** Execute the pending syscall. With [pin_to], an mmap is forced
    [MAP_FIXED] to that address (the one the recorded run got, so the
    ASLR stream cannot drift, §4.3.2); its argument registers are
    restored afterwards, invisible to the state comparison. *)

val arm :
  Machine.Cpu.t ->
  origin_branches:int ->
  origin_insns:int ->
  signals:(Exec_point.t * Sim_os.Sig_num.t) list ->
  end_point:Exec_point.t ->
  insn_delta:int ->
  timeout_scale:float ->
  fault:Fault.plan option ->
  segment:int ->
  attempt:int ->
  Exec_point.replay * (Exec_point.t * Sim_os.Sig_num.t) list
(** Arm a cpu to replay a segment. Recorded points are relative to the
    counter origin: 0 for a live checker, whose counters start at its
    fork; the segment-start counters offline, where one process replays
    every segment. The targets are the signal points not yet passed
    plus the end point; the runaway budget is
    [max 1000 (timeout_scale * insn_delta)] instructions past the
    origin; a checker-side [fault] is armed when {!Fault.arms} holds for
    [segment] and [attempt]. Returns the replay driver and the signals
    still to deliver. *)

(** Where a replay runs: access to the replaying process, its log and
    its replay plan, plus the six decisions that differ between worlds. *)
module type WORLD = sig
  type t

  val eng : t -> Sim_os.Engine.t
  val pid : t -> Sim_os.Engine.pid

  val next_interaction : t -> Seglog.Record.event option
  (** Pop the next [Sys]/[Nondet] record; [None] when there is none (yet). *)

  val replay : t -> Exec_point.replay
  val pending_signals : t -> (Exec_point.t * Sim_os.Sig_num.t) list
  val set_pending_signals : t -> (Exec_point.t * Sim_os.Sig_num.t) list -> unit

  val fail : t -> Detection.outcome -> unit
  (** The replay diverged. *)

  val at_end : t -> unit
  (** The process rests on the end point with the log consumed. *)

  val await_log : t -> bool
  (** The log ran dry. [true]: it is still being recorded (RAFT
      streaming) and the world parked the process until it grows;
      [false]: a divergence. *)

  val settled : t -> bool
  (** The verdict is already in; later events are stale. *)

  val note_syscall : t -> Sim_os.Syscall.call -> unit
  (** Live only: the [sys.replay] trace instant at every syscall stop. *)

  val charge_answer : t -> bytes:int -> unit
  (** Live only: the record-I/O cost of a syscall answered from the
      record. *)
end

module Make (W : WORLD) : sig
  val handle_event : W.t -> Sim_os.Engine.event -> unit
  (** Dispatch one tracer stop of the replaying process. *)
end
