(** Descriptions of the heterogeneous machines the paper evaluates on.

    A platform bundles every parameter of the timing, energy and
    monitoring model: core clusters (counts, DVFS levels, voltages, IPC,
    cache sizes), DRAM latency/bandwidth, power coefficients, page size,
    performance-counter imperfections (skid, overcount), kernel operation
    costs, and which slicing/dirty-tracking mechanisms the OS offers —
    the paper uses soft-dirty + cycle-based slicing on x86_64 and
    map-count (PAGEMAP_SCAN) + cycle-based slicing on Apple Silicon, with
    instruction-based slicing on Intel (§5.8).

    Two calibrated instances are provided, {!apple_m2} and {!intel_i7},
    plus a deliberately small {!testing} platform for unit tests.

    All cycle quantities use the paper-to-simulation cycle scale of 1e-4
    (paper "5 billion cycles" = 500k simulated cycles); see DESIGN.md. *)

type core_class = Big | Little

type cluster = {
  kind : core_class;
  n_cores : int;
  freq_levels_mhz : int array;  (** ascending DVFS points *)
  voltage_per_level : float array;  (** same length, volts *)
  default_level : int;  (** index into [freq_levels_mhz] *)
  separate_voltage_domain : bool;
      (** false on Intel: the little cores share the big cores' rail, so
          lowering their frequency saves little power (§5.8) *)
  ipc : float;  (** sustained instructions per cycle, scales throughput *)
  l1_pages : int;  (** private per-core page-granular L1 capacity *)
  l2_pages : int;  (** shared per-cluster L2 capacity *)
  l2_hit_extra_ns : float;
  dyn_power_coeff : float;  (** W per GHz per V^2, per active core *)
  static_power_w : float;  (** per active core *)
  idle_power_w : float;  (** per idle core *)
}

type dirty_tracking = Soft_dirty | Map_count

type slice_unit = Cycles | Instructions

type t = {
  name : string;
  page_size : int;
  clusters : cluster array;  (** index 0 = big cluster, 1 = little *)
  (* DRAM *)
  dram_extra_ns : float;  (** latency beyond L2 on a miss *)
  dram_accesses_per_us_capacity : float;
      (** sustainable miss rate before bandwidth contention kicks in *)
  dram_static_w : float;
  dram_energy_per_access_nj : float;
  soc_static_w : float;
  (* monitoring hardware imperfections *)
  max_skid : int;
  max_insn_overcount : int;
  (* kernel operation costs, in big-core effective cycles *)
  syscall_base_cycles : int;
  fork_base_cycles : int;
  fork_per_page_cycles : int;
  cow_fixed_cycles : int;
  cow_bytes_per_cycle : int;
  dirty_scan_per_page_cycles : int;
  tracer_stop_ns : float;  (** ptrace stop + coordinator handling latency *)
  syscall_record_ns_per_byte : float;
      (** runtime cost of capturing syscall data buffers for the R/R log *)
  hash_bytes_per_cycle : int;  (** injected-hasher throughput *)
  (* address-space layout *)
  mmap_area_base : int;
  aslr_entropy_pages : int;
  (* OS facilities *)
  dirty_tracking : dirty_tracking;
  slice_unit : slice_unit;
}

val big_cluster : t -> cluster
val little_cluster : t -> cluster

val effective_hz : cluster -> level:int -> float
(** Instruction throughput at a DVFS level: [freq * ipc]. *)

val active_power_w : cluster -> level:int -> float
(** Power of one active core at a DVFS level. On a shared voltage domain
    the rail stays at the top voltage regardless of [level]. *)

val apple_m2 : t
(** Apple M2 Mac Mini as in Table 3: 4 Avalanche big cores + 4 Blizzard
    little cores, 16 KiB pages, separate little-cluster voltage rail,
    map-count dirty tracking, cycle-based slicing. *)

val intel_i7 : t
(** Intel hybrid machine of §5.8: P cores + E cores, 4 KiB pages, shared
    voltage rail, soft-dirty tracking, instruction-based slicing. *)

val testing : t
(** A miniature platform (2 big + 2 little, tiny caches, 4 KiB pages) so
    unit tests run fast and hit capacity limits easily. *)

val of_name : string -> t option
(** The platform whose {!t.name} is the argument — the CLI's [--platform]
    names and the identity a segment log records. *)
