(** Run statistics, mirroring the artifact's statistics dump
    (timing.all_wall_time, counter.checkpoint_count,
    fixed_interval_slicer.nr_slices, ...). *)

type seglog = {
  seglog_segments : int;  (** segment files persisted *)
  seglog_bytes : int;  (** total bytes written (segment files + manifest) *)
  seglog_raw_page_bytes : int;
  seglog_stored_page_bytes : int;  (** post-compression payload bytes *)
}

(** The check accounting (DESIGN.md §18), counted where the segment
    state machine moves. *)
type backend_acct = {
  mutable b_dispatched : int;
      (** checks launched, re-launches included, plus a RAFT streaming
          check that completes before its segment ends *)
  mutable b_redispatched : int;
      (** launches at an incarnation above 0: after a re-check, a dead or
          stalled checker, or a pre-launch swap *)
  mutable b_leases_expired : int;
      (** the watchdog's kills of checking checkers *)
  mutable b_stale_verdicts : int;
      (** parked verdicts discarded: their incarnation lapsed or their
          segment was already done *)
  mutable b_batches : int;  (** deferred launch batches drained *)
  mutable b_max_lag : int;
      (** high-water mark of recorded-but-unverified segments *)
  mutable b_verified : int;
      (** checks completed, passed or failed: a segment reaching [Done] *)
  mutable b_launch_ns : int;
      (** simulated launch overhead charged to checkers (cold first-in-
          batch launches vs warm follow-ups — the fork-amortization
          signal test_backend's [batching amortizes launch cost] case
          checks) *)
}

type t = {
  mutable checkpoint_count : int;
      (** forks taken: checkers + end snapshots + mmap-split extras *)
  mutable nr_slices : int;  (** segments created by the periodic slicer *)
  mutable segments_total : int;
  mutable segments_compared : int;
  mutable dirty_pages_total : int;
  mutable bytes_hashed : int;
      (** page bytes the modelled runtime reads and hashes: a page per
          side for every compared vpn both sides map *)
  mutable pages_skipped_identical : int;
      (** compared vpns the host did not read because both sides still
          mapped the same COW frame *)
  page_hash_hits : int;
  page_hash_misses : int;
      (** always 0: there is no page-digest memo. Kept only because
          [ftbench/ftbench.ml] reads both for its
          [core.comparator.page_hash_hit_ratio]; they go with the next
          change to the benchmark. *)
  mutable syscalls_recorded : int;
  mutable nondet_recorded : int;
  mutable signals_recorded : int;
  mutable migrations : int;
  mutable checker_big_ns : float;
      (** checker CPU time spent while placed on big cores *)
  mutable checker_little_ns : float;
  mutable main_wall_ns : float;
  mutable all_wall_ns : float;
  mutable main_user_ns : float;
  mutable main_sys_ns : float;
  mutable detections : (int * Detection.outcome) list;
      (** (segment id, outcome); detections only, newest first *)
  mutable fi_outcome : Detection.outcome option;
      (** classification of the armed fault injection, once known *)
  mutable fi_fired : bool;
  mutable segment_insn_deltas : int list;  (** newest first *)
  mutable recoveries : int;
      (** rollbacks performed by the recovery extension *)
  mutable rechecks : int;
      (** checks re-dispatched onto a fresh checker (re-check on
          mismatch, or a watchdog kill with retries left) *)
  mutable transient_faults : int;
      (** re-checks that passed: the original failure was the checker's,
          classified {!Detection.Transient_checker_fault}; no rollback *)
  mutable watchdog_kills : int;
      (** checkers the watchdog declared dead or stalled *)
  mutable hard_faults : int;
      (** detections re-observed after a rollback with no verified
          progress, classified {!Detection.Hard_fault}; aborts the run *)
  mutable final_regs : int array option;
      (** main's register file at exit, captured before the engine frees
          the process (SDC oracle + rollback-exactness tests) *)
  mutable final_mem_hash : int64 option;
      (** digest of main's full memory image at exit (vpn + page bytes,
          ascending vpn order) *)
  mutable block_cache : (int * int * int) option;
      (** summed decoded-block-cache [(hits, misses, invalidations)]
          over every CPU of the run, filled by [Runtime] only under
          [Config.cpu_stats]; [None] keeps the stats dump (and the
          goldens) unchanged *)
  mutable seglog : seglog option;
      (** persisted-log size/compression counters, filled by [Runtime]
          only under [Config.record_log]; [None] keeps the stats dump
          (and the goldens) unchanged, same discipline as [block_cache] *)
  backend : backend_acct;
      (** check accounting, counted in place by the pipeline stages and
          the checker backend. Unlike the opt-in sub-records above these
          rows are unconditional — the inline backend fills them too, so
          one golden surface covers all backends. *)
}

val create : unit -> t

val record_detection : t -> segment:int -> Detection.outcome -> unit
(** Prepends: the [detections] field stays newest first. *)

val detections_oldest_first : t -> (int * Detection.outcome) list
(** The [detections] field in chronological order — the single place the
    newest-first storage order is reversed. [Runtime.report.detections]
    (documented oldest-first) is built with this. *)

val final_state_hash : t -> int64 option
(** Single digest over [final_regs] + [final_mem_hash]; [None] until the
    main process exits. Byte-identical final states hash equal, which is
    what the SDC oracle compares across faulted and fault-free runs. *)

val mem_hash : Mem.Page_table.t -> int64
(** The [final_mem_hash] digest of a memory image. *)

val state_hash : regs:int array -> mem:int64 -> int64
(** The {!final_state_hash} digest of a register file and a {!mem_hash};
    offline replay recomputes the recorded digest with these two. *)

val big_core_work_fraction : t -> float
(** Fraction of checker CPU time spent on big cores (the §5.2.1 "41.7%
    of work on big cores" metric). *)

val to_assoc : t -> (string * string) list
(** Artifact-style key/value dump. *)
