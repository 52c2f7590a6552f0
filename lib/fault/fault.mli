(** The fault model (DESIGN.md §13): a typed taxonomy of injectable
    faults, generalizing the original checker-register-only plan of
    §5.6.

    A {!plan} names one fault: {e where} it strikes (the {!target}),
    {e when} (segment index + retired-instruction delay), and whether it
    is transient (one-shot) or persistent ([repeat]). This module
    describes faults, parses and prints them, and owns the one arming
    rule ({!arms}) and the {!Machine.Cpu} injection port mapping
    ({!arm_on_cpu}); the runtime decides {e where} to arm — the main at
    segment start, a checker at launch, runtime faults from a
    {!Sim_os.Engine} tick that kills or stalls the checker mid-check. *)

(** What the fault corrupts.

    Register and memory faults model a flipped bit in the core: a wrong
    value in the register file, or a wrong value carried by a store
    (the flip goes through the normal store path, so dirty tracking
    sees the page — a DRAM cell flipping {e at rest} is ECC territory
    and outside the runtime's threat model, see DESIGN.md §13).
    Runtime faults strike the fault-tolerance machinery itself: the
    checker process is killed outright, or stops making progress. *)
type target =
  | Checker_register of { reg : int; bit : int }
      (** flip [bit] (0-63) of checker register [reg] *)
  | Checker_memory_page of { page_index : int; bit : int }
      (** flip [bit] (0-63) of the first word of the [page_index]-th
          mapped page (mod the mapped count) of the checker *)
  | Main_register of { reg : int; bit : int }
  | Main_memory_page of { page_index : int; bit : int }
  | Runtime_fault of runtime_kind
      (** the checker of the targeted segment is killed or stalled
          mid-check — a fault in the runtime's own mechanism, which the
          watchdog must survive *)

and runtime_kind =
  | Kill  (** the checker process dies (SIGKILL analogue) *)
  | Stall  (** the checker stops making progress but stays alive *)

type plan = {
  segment : int;  (** 0-based segment index the fault arms in *)
  delay_instructions : int;
      (** retired instructions (of the targeted process) past the
          arming point before the fault fires; runtime faults fire at
          the first engine tick after the checker launches *)
  target : target;
  repeat : bool;
      (** [false] (transient): arm once, in segment [segment] only.
          [true] (persistent/stuck-at): re-arm in every segment with id
          [>= segment], including the checkers re-dispatched by a
          re-check and the segments re-recorded after a rollback — the
          shape the Hard_fault classifier exists for. *)
}

val checker_register :
  segment:int -> delay_instructions:int -> reg:int -> bit:int -> plan
(** The original §5.6 plan shape (transient checker-register flip). *)

val targets_checker : plan -> bool
(** True for [Checker_register], [Checker_memory_page] and
    [Runtime_fault] — plans armed on the replay side. *)

val targets_main : plan -> bool

val covers : plan -> segment:int -> bool
(** The plan applies to segment id [segment]: its own segment, or any
    later one for a [repeat] plan. *)

val arms : plan -> segment:int -> attempt:int -> bool
(** Arm the plan on attempt [attempt] (0 = first check, n = n-th
    re-dispatch) of segment [segment]: {!covers}, and a one-shot plan
    only on attempt 0 — it must not chase the segment onto its
    re-dispatched checker, where it would re-inject the very fault the
    re-check is ruling out. A [repeat] plan is stuck-at and arms on
    every attempt. *)

val arm_on_cpu : Machine.Cpu.t -> plan -> unit
(** Arm a register or memory plan on a cpu's injection port, to fire
    after [delay_instructions] more retired instructions. Runtime
    faults are not cpu-armed (no-op). *)

val target_kind_to_string : target -> string
(** The CLI keyword for the target's class:
    [checker-reg], [checker-mem], [main-reg], [main-mem],
    [runtime-kill] or [runtime-stall]. *)

val target_kind_of_string : string -> (int -> int -> target, string) result
(** Parse a CLI keyword into a target builder taking the two numeric
    plan fields (reg/page index, then bit; ignored by runtime
    targets). [Error] names the unknown keyword. *)

val all_target_kinds : string list
(** Every keyword {!target_kind_of_string} accepts, CLI-doc order. *)

val to_string : plan -> string

val validate : plan -> (unit, string) result
(** Range-check the plan: register in [0, num_regs), bit in [0, 63],
    page index and delay non-negative. *)
