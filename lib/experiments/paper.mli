(** The paper's reference values for Parallaft and RAFT, stated once.
    The experiments print each beside its measurement, and Table 1's
    footer is derived from {!geomean}. Overheads and shares are
    percentages, memory and slowdowns ratios ({!Suite.reported}). *)

val geomean : Suite.metric -> Suite.system -> float
(** Figs. 5, 7 and 8: the geomean over the suite on the Apple M2. *)

val intel_perf : Suite.system -> float
(** §5.8: the geomean performance overhead on the Intel platform. *)

val intel_energy : Suite.system -> float
(** §5.8: the geomean energy overhead on the Intel platform. *)

val benign_pct : float
(** Fig. 10: the share of injected faults that were benign. *)

(** §5.7: Parallaft's slowdown on each syscall and signal stress test. *)
type stress = {
  getpid : float;  (** a getpid loop *)
  devzero : float;  (** 1 MiB reads of /dev/zero *)
  sigusr1 : float;  (** a SIGUSR1 storm *)
}

val stress : stress
