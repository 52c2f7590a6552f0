(** The syscall ABI: numbers, argument decoding and classification.

    Convention: the syscall number is in [r0], arguments in [r1]-[r5],
    and the result is written back to [r0]. The decoded {!call} is what
    both the kernel and the Parallaft syscall handlers consume; the
    {!category} classification mirrors §4.3.1 of the paper
    (globally-effectful / process-locally-effectful / non-effectful). *)

(** mmap prot bits. *)
val prot_read : int

val prot_write : int

(** mmap flag bits. *)
val map_private : int

val map_anon : int
val map_fixed : int

(** open flag bits. *)
val o_create : int

type call =
  | Exit of int
  | Write of { fd : int; addr : int; len : int }
  | Read of { fd : int; addr : int; len : int }
  | Open of { path_addr : int; path_len : int; flags : int }
  | Close of { fd : int }
  | Brk of { addr : int }
  | Mmap of { addr : int; len : int; prot : int; flags : int; fd : int; off : int }
  | Munmap of { addr : int; len : int }
  | Mprotect of { addr : int; len : int; prot : int }
  | Getpid
  | Gettime  (** nanosecond clock — the gettimeofday stand-in *)
  | Sigaction of { signum : int; handler_pc : int }
  | Sigreturn
  | Getrandom of { addr : int; len : int }
  | Patch_code of { pc : int; word : int }
      (** overwrite the caller's instruction at [pc] with the
          {!Isa.Insn.decode} of [word] — the Harvard-layout channel for
          self-modifying code (the data space cannot reach the
          instruction stream, so a code write must cross the kernel) *)
  | Unknown of int

val nr_exit : int
val nr_write : int
val nr_read : int
val nr_open : int
val nr_mmap : int
val nr_munmap : int
val nr_getpid : int
val nr_gettime : int
val nr_sigaction : int
val nr_sigreturn : int

val decode : Machine.Cpu.t -> call
(** Decode the pending syscall from the register file. The mmap length,
    write length etc. are clamped to non-negative values; nonsense fds or
    addresses surface as kernel errors, not decode failures. *)

val name : call -> string

type category =
  | Globally_effectful
      (** effects escape the sphere of replication (IO): executed once by
          the main process; checked and replayed for checkers *)
  | Process_local
      (** affects only the calling process's state (memory layout,
          process properties): executed by both main and checkers *)
  | Non_effectful
      (** no external effect but nondeterministic output (getpid,
          gettime, getrandom): recorded and replayed *)

val categorize : call -> category
