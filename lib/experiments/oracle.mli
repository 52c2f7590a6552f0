(** The run oracle (DESIGN.md §18): Parallaft's guarantee, written
    once. A fault is detected or harmless: a run ends in its fault-free
    reference's state, writes its output once, verifies each recorded
    segment once and leaves no process behind, or it stops loudly.
    Each caller matches on the verdicts it accepts. *)

type run =
  | Protected of Parallaft.Runtime.report
  | Baseline of Parallaft.Runtime.baseline  (** no final state, no segments *)
  | Tenant of Fleet.report * Fleet.tenant_report
      (** no output of its own; the live processes are the fleet's *)

(** In the order {!judge} checks them. *)
type clause =
  | Unsettled  (** neither exited nor aborted: the hang bound cut it *)
  | Exit_status  (** another exit status than the reference's *)
  | Final_state  (** another final-state hash than the reference's *)
  | Output  (** another output, with no rollback to re-execute writes *)
  | Verified_count
      (** more checks settled than segments recorded or, with no
          rollback and no abort, a segment left unverified *)
  | Live_processes  (** simulated processes alive at the end *)

type verdict = Clean | Recovered | Fail_stop | Violation of clause

val judge : ?reference:run -> run -> verdict
(** The first clause [run] breaks; else [Fail_stop] if it aborted,
    [Recovered] if it rolled back, [Clean] otherwise. The exit,
    final-state and output clauses compare with [reference], the
    fault-free run of the same configuration and program, and skip an
    aborted run, an observable either run lacks, and a missing
    [reference] (a workload that reads the clock has no exact twin). *)

val to_string : verdict -> string
