(** POSIX-style signal numbers used by the simulated kernel. *)

type t = int

val sigint : t
val sigfpe : t
val sigkill : t
val sigusr1 : t
val sigsegv : t

val name : t -> string

val is_catchable : t -> bool
(** SIGKILL cannot be caught; everything else here can. *)

val exit_status : t -> int
(** Conventional [128 + signum] status for a signal-terminated process. *)
