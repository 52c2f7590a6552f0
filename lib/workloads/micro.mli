(** Stress microbenchmarks for the §5.7 syscall/signal-overhead study.

    Each returns a program for the simulated machine; the experiment
    harness runs them untraced (baseline) and under the runtimes and
    reports the slowdown ratios the paper quotes (getpid ≈ 124×,
    1 MiB [/dev/zero] reads ≈ 18.5×, SIGUSR1 storm ≈ 39.8×). *)

val getpid_loop : iters:int -> Isa.Program.t
(** Call [getpid] [iters] times, folding results into a checksum. *)

val devzero_reader : block_bytes:int -> blocks:int -> Isa.Program.t
(** Open [/dev/zero] and read [blocks] blocks of [block_bytes] into a
    heap buffer. *)

val sigusr1_spin : handled:int -> Isa.Program.t
(** Register a SIGUSR1 handler that bumps a memory counter, then spin
    until the counter reaches [handled] and exit. The driver must send
    SIGUSR1 repeatedly. *)

val hello : unit -> Isa.Program.t
(** Minimal write-and-exit program for smoke tests and the quickstart. *)
