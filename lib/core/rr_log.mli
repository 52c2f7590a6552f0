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

    The events are {!Seglog.Record}'s and the log itself stores
    seglog-encoded bytes: the in-memory path is a writer+reader pair
    over the same format [--record-log] persists, so replay consumes
    only what the format can express. {!Seglog.Record.sys_record} says
    what [in_data] and [effects] hold. *)

type t

val create : unit -> t

val record : t -> Seglog.Record.event -> unit

val length : t -> int

val events : t -> Seglog.Record.event list
(** In record order. *)

val signal_points : t -> (Exec_point.t * Sim_os.Sig_num.t) list
(** The external-signal delivery points, in order — these become extra
    replay targets for the checker. *)

val signals : Seglog.Record.event list -> (Exec_point.t * Sim_os.Sig_num.t) list
(** {!signal_points} of a decoded event list. *)

(** Replay cursor: one per checker. *)
type cursor

val cursor : t -> cursor

val next_interaction : cursor -> Seglog.Record.event option
(** Pop the next [Sys]/[Nondet] event (skipping [Ext_signal] entries,
    which are replayed by execution point, not by order of interaction).
    [None] means the log holds no further interaction {e yet}: if the
    segment is fully recorded that is a divergence (the checker did more
    than the main); if the log is still being recorded (RAFT's streaming
    replay) the checker must wait and retry. The log may grow after a
    cursor is created; cursors see appended events. *)
