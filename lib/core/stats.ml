type seglog = {
  seglog_segments : int;
  seglog_bytes : int;  (* segment files + manifest *)
  seglog_raw_page_bytes : int;
  seglog_stored_page_bytes : int;
}

type backend_acct = {
  mutable b_dispatched : int;
  mutable b_redispatched : int;
  mutable b_leases_expired : int;
  mutable b_stale_verdicts : int;
  mutable b_batches : int;
  mutable b_max_lag : int;
  mutable b_verified : int;
  mutable b_launch_ns : int;
}

type t = {
  mutable checkpoint_count : int;
  mutable nr_slices : int;
  mutable segments_total : int;
  mutable segments_compared : int;
  mutable dirty_pages_total : int;
  mutable bytes_hashed : int;
  mutable pages_skipped_identical : int;
  mutable page_hash_hits : int;
  mutable page_hash_misses : int;
  mutable syscalls_recorded : int;
  mutable nondet_recorded : int;
  mutable signals_recorded : int;
  mutable migrations : int;
  mutable checker_big_ns : float;
  mutable checker_little_ns : float;
  mutable main_wall_ns : float;
  mutable all_wall_ns : float;
  mutable main_user_ns : float;
  mutable main_sys_ns : float;
  mutable detections : (int * Detection.outcome) list;
  mutable fi_outcome : Detection.outcome option;
  mutable fi_fired : bool;
  mutable segment_insn_deltas : int list;
  mutable recoveries : int;
  mutable rechecks : int;
  mutable transient_faults : int;
  mutable watchdog_kills : int;
  mutable hard_faults : int;
  mutable final_regs : int array option;
  mutable final_mem_hash : int64 option;
  mutable block_cache : (int * int * int) option;
  mutable seglog : seglog option;
  backend : backend_acct;
}

let create () =
  {
    checkpoint_count = 0;
    nr_slices = 0;
    segments_total = 0;
    segments_compared = 0;
    dirty_pages_total = 0;
    bytes_hashed = 0;
    pages_skipped_identical = 0;
    page_hash_hits = 0;
    page_hash_misses = 0;
    syscalls_recorded = 0;
    nondet_recorded = 0;
    signals_recorded = 0;
    migrations = 0;
    checker_big_ns = 0.0;
    checker_little_ns = 0.0;
    main_wall_ns = 0.0;
    all_wall_ns = 0.0;
    main_user_ns = 0.0;
    main_sys_ns = 0.0;
    detections = [];
    fi_outcome = None;
    fi_fired = false;
    segment_insn_deltas = [];
    recoveries = 0;
    rechecks = 0;
    transient_faults = 0;
    watchdog_kills = 0;
    hard_faults = 0;
    final_regs = None;
    final_mem_hash = None;
    block_cache = None;
    seglog = None;
    backend =
      {
        b_dispatched = 0;
        b_redispatched = 0;
        b_leases_expired = 0;
        b_stale_verdicts = 0;
        b_batches = 0;
        b_max_lag = 0;
        b_verified = 0;
        b_launch_ns = 0;
      };
  }

(* Digest of a memory image: vpn + page bytes, ascending vpn order
   ([mapped_vpns] is sorted). The bytes stream chunk by chunk, which
   XXH64 digests exactly as one buffer per page. *)
let mem_hash pt =
  let st = Ftr_hash.Xxh64.init () in
  Array.iter
    (fun vpn ->
      Ftr_hash.Xxh64.update_int64 st (Int64.of_int vpn);
      Mem.Frame.hash_into st (Mem.Page_table.read_frame pt ~vpn))
    (Mem.Page_table.mapped_vpns pt);
  Ftr_hash.Xxh64.digest st

(* One digest over the main process's final architectural state
   (register file folded with the memory image hash), for the SDC
   oracle: two runs ending in the same state produce the same value. *)
let state_hash ~regs ~mem =
  let st = Ftr_hash.Xxh64.init () in
  Array.iter (fun r -> Ftr_hash.Xxh64.update_int64 st (Int64.of_int r)) regs;
  Ftr_hash.Xxh64.update_int64 st mem;
  Ftr_hash.Xxh64.digest st

let final_state_hash t =
  match (t.final_regs, t.final_mem_hash) with
  | None, _ | _, None -> None
  | Some regs, Some mem -> Some (state_hash ~regs ~mem)

let record_detection t ~segment outcome =
  t.detections <- (segment, outcome) :: t.detections

(* The only place the newest-first storage order is reversed; every
   oldest-first consumer (Runtime.report) must go through this. *)
let detections_oldest_first t = List.rev t.detections

let big_core_work_fraction t =
  let total = t.checker_big_ns +. t.checker_little_ns in
  if total <= 0.0 then 0.0 else t.checker_big_ns /. total

let to_assoc t =
  let f = Printf.sprintf "%.0f" in
  [
    ("timing.all_wall_time", f t.all_wall_ns);
    ("timing.main_wall_time", f t.main_wall_ns);
    ("timing.main_user_time", f t.main_user_ns);
    ("timing.main_sys_time", f t.main_sys_ns);
    ("counter.checkpoint_count", string_of_int t.checkpoint_count);
    ("fixed_interval_slicer.nr_slices", string_of_int t.nr_slices);
    ("segments.total", string_of_int t.segments_total);
    ("segments.compared", string_of_int t.segments_compared);
    ("comparator.dirty_pages", string_of_int t.dirty_pages_total);
    ("comparator.bytes_hashed", string_of_int t.bytes_hashed);
    ("comparator.pages_skipped_identical", string_of_int t.pages_skipped_identical);
    ("comparator.page_hash_hits", string_of_int t.page_hash_hits);
    ("comparator.page_hash_misses", string_of_int t.page_hash_misses);
    ("rr.syscalls", string_of_int t.syscalls_recorded);
    ("rr.nondet_instructions", string_of_int t.nondet_recorded);
    ("rr.signals", string_of_int t.signals_recorded);
    ("scheduler.migrations", string_of_int t.migrations);
    ( "scheduler.big_core_work_fraction",
      Printf.sprintf "%.3f" (big_core_work_fraction t) );
    ("detections", string_of_int (List.length t.detections));
    ("recovery.rollbacks", string_of_int t.recoveries);
    ("recovery.hard_faults", string_of_int t.hard_faults);
    ("recheck.dispatched", string_of_int t.rechecks);
    ("recheck.transient_faults", string_of_int t.transient_faults);
    ("watchdog.kills", string_of_int t.watchdog_kills);
    ("backend.dispatched", string_of_int t.backend.b_dispatched);
    ("backend.redispatched", string_of_int t.backend.b_redispatched);
    ("backend.leases_expired", string_of_int t.backend.b_leases_expired);
    ("backend.stale_verdicts", string_of_int t.backend.b_stale_verdicts);
    ("backend.batches", string_of_int t.backend.b_batches);
    ("backend.max_lag_observed", string_of_int t.backend.b_max_lag);
    ("backend.verified", string_of_int t.backend.b_verified);
    ("backend.launch_overhead_ns", string_of_int t.backend.b_launch_ns);
    ( "final.state_hash",
      match final_state_hash t with
      | None -> "none"
      | Some h -> Printf.sprintf "%016Lx" h );
  ]
  (* Block-cache rows only when --cpu-stats asked for them, keeping
     the goldens byte-identical by default. *)
  @ (match t.block_cache with
    | None -> []
    | Some (hits, misses, invalidations) ->
      [
        ("cpu.block_cache_hits", string_of_int hits);
        ("cpu.block_cache_misses", string_of_int misses);
        ("cpu.block_cache_invalidations", string_of_int invalidations);
      ])
  (* Seglog rows only exist when --record-log persisted a log, the
     same opt-in discipline. The compression ratio is raw
     dirty-page payload over stored (post-compression) payload. *)
  @
  match t.seglog with
  | None -> []
  | Some sl ->
    let ratio =
      if sl.seglog_stored_page_bytes > 0 then
        float_of_int sl.seglog_raw_page_bytes /. float_of_int sl.seglog_stored_page_bytes
      else 1.0
    in
    [
      ("seglog.segments", string_of_int sl.seglog_segments);
      ("seglog.bytes_written", string_of_int sl.seglog_bytes);
      ("seglog.raw_page_bytes", string_of_int sl.seglog_raw_page_bytes);
      ("seglog.stored_page_bytes", string_of_int sl.seglog_stored_page_bytes);
      ("seglog.compression_ratio", Printf.sprintf "%.2f" ratio);
    ]
