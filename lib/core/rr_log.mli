(** The per-segment record-and-replay log (§3.2, §4.3).

    While the main process runs a segment, the coordinator appends every
    application/OS interaction: syscalls (with the argument data read
    from main memory, the kernel result, and the memory the kernel wrote
    back), trapped nondeterministic instructions with their emulated
    values, and externally delivered signals with the execution point at
    which they landed. The checker later consumes the log in order: each
    of its interactions must match the next record (else a divergence —
    i.e. an error — is flagged) and is answered from the record instead
    of the outside world, so externally visible effects happen exactly
    once.

    The event types are re-exports of {!Seglog.Record} and the log
    itself stores seglog-encoded bytes: the in-memory path is a
    writer+reader pair over the same format [--record-log] persists,
    so replay consumes only what the format can express.

    [in_data] holds bytes the kernel read from main memory (write
    payloads, open paths) — compared against the checker's buffer.
    [effects] holds bytes the kernel wrote into main memory
    (read/getrandom data) — injected into the checker instead of
    re-executing. *)

type mem_effect = Seglog.Record.mem_effect = {
  addr : int;
  data : Bytes.t;
}

type sys_record = Seglog.Record.sys_record = {
  call : Sim_os.Syscall.call;
  in_data : Bytes.t option;
  result : int;
  effects : mem_effect list;
}

type event = Seglog.Record.event =
  | Sys of sys_record
  | Nondet of {
      insn : Isa.Insn.t;
      value : int;
    }
  | Ext_signal of {
      at : Exec_point.t;  (** segment-relative delivery point *)
      signum : Sim_os.Sig_num.t;
    }

type t

val create : unit -> t

val record : t -> event -> unit

val length : t -> int

val events : t -> event list
(** In record order. *)

val signal_points : t -> (Exec_point.t * Sim_os.Sig_num.t) list
(** The external-signal delivery points, in order — these become extra
    replay targets for the checker. *)

val signals : event list -> (Exec_point.t * Sim_os.Sig_num.t) list
(** {!signal_points} of a decoded event list. *)

(** Replay cursor: one per checker. *)
type cursor

val cursor : t -> cursor

val next_interaction : cursor -> event option
(** Pop the next [Sys]/[Nondet] event (skipping [Ext_signal] entries,
    which are replayed by execution point, not by order of interaction).
    [None] means the log holds no further interaction {e yet}: if the
    segment is fully recorded that is a divergence (the checker did more
    than the main); if the log is still being recorded (RAFT's streaming
    replay) the checker must wait and retry. The log may grow after a
    cursor is created; cursors see appended events. *)
