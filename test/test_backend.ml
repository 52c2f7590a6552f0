(* Checker-backend tests (DESIGN.md §18): the lease clock a checking
   segment holds for the watchdog, the differential contract (Deferred
   at any batch size and fault-free Remote_sim must be observably
   identical to Inline), the chaos properties (random node
   crashes/stalls/late verdicts never double-count or lose a segment),
   the pre-launch death window, stale-verdict discard, the mid-batch
   rollback truncation of the persisted seglog, and the support matrix:
   Config.validate's refusals at each entry point and a qcheck property
   over the configuration product.

   Every run in this file executes with the invariant sweeps on: after
   every routed event, every verified check and every check in flight
   must hold a dispatch of its own. *)

let () = Unix.putenv "PARALLAFT_INVARIANTS" "1"

let platform = Platform.testing

module Seg = Parallaft.Segment
module Oracle = Experiments.Oracle

(* ---------- the lease clock ---------- *)

let end_point = { Parallaft.Exec_point.branches = 5; pc = 3 }

let recorded_seg () =
  let seg = Seg.create ~id:1 ~checker:42 in
  Seg.finish_recording seg ~end_point ~insn_delta:100 ~main_dirty:[||]
    ~snapshot:None;
  seg

(* A segment whose check launched at [now_ns], its checker then at
   [insns] instructions. *)
let checking_seg ~now_ns ~insns =
  let seg = recorded_seg () in
  let cpu =
    Machine.Cpu.create ~rng:(Util.Rng.create ~seed:1L)
      ~program:(Isa.Asm.assemble_exn "halt")
      ~aspace:
        (Mem.Address_space.create
           (Mem.Frame.allocator ~page_size:platform.Platform.page_size))
      ()
  in
  Seg.begin_checking seg
    ~replay:(Parallaft.Exec_point.start_replay ~targets:[ end_point ] ~cpu)
    ~pending_signals:[] ~launched_at_ns:now_ns ~now_ns ~insns;
  seg

let hb_tag = Alcotest.of_pp (fun fmt -> function
  | `Ok -> Format.fprintf fmt "`Ok"
  | `Expired -> Format.fprintf fmt "`Expired")

let test_heartbeat () =
  let budget_ns = 50_000 in
  let hb seg ~now_ns ~insns ~excused =
    Seg.heartbeat seg ~now_ns ~insns ~excused ~budget_ns
  in
  (* The clock starts at launch, at the checker's instruction count
     then: silence is measured from 10_000 with 100 instructions. *)
  let late = checking_seg ~now_ns:10_000 ~insns:100 in
  Alcotest.check hb_tag "budget counted from launch" `Ok
    (hb late ~now_ns:60_000 ~insns:100 ~excused:false);
  Alcotest.check hb_tag "launch count is not progress" `Expired
    (hb late ~now_ns:60_001 ~insns:100 ~excused:false);
  let seg = checking_seg ~now_ns:0 ~insns:100 in
  Alcotest.check hb_tag "within budget" `Ok
    (hb seg ~now_ns:10_000 ~insns:100 ~excused:false);
  Alcotest.check hb_tag "progress renews" `Ok
    (hb seg ~now_ns:40_000 ~insns:200 ~excused:false);
  Alcotest.check hb_tag "renewed clock still live" `Ok
    (hb seg ~now_ns:80_000 ~insns:200 ~excused:true);
  (* The excuse at 80_000 renewed the lease; silence past the budget
     from there expires it. *)
  Alcotest.check hb_tag "silence expires" `Expired
    (hb seg ~now_ns:140_000 ~insns:200 ~excused:false);
  (* Only a checking segment holds a lease. *)
  let raises what seg =
    match hb seg ~now_ns:0 ~insns:0 ~excused:false with
    | _ -> Alcotest.failf "heartbeat %s did not raise" what
    | exception Seg.Invariant_violation _ -> ()
  in
  raises "before launch" (recorded_seg ());
  Seg.complete seg;
  raises "after completion" seg

(* ---------- end-to-end helpers ---------- *)

(* Pure function of the program (no time queries): every backend must
   produce byte-identical output and final state. *)
let program = Experiments.Exp_backends.program

let base_cfg () = Parallaft.Config.parallaft ~platform ~slice_period:20_000 ()

(* The DVFS pacer and the recorder's boundary hold both react to
   verification lag, so a lagging backend legitimately re-paces the
   main and shifts slice boundaries. The strict differential (every
   counter equal) holds with the feedback paths neutralized — pacing
   off, live-segment cap far above what the run reaches; the chaos
   properties keep them on and compare only the correctness-observable
   surface. *)
let nopace_cfg () =
  {
    (base_cfg ()) with
    Parallaft.Config.dvfs_pacing = false;
    max_live_segments = 64;
  }

let run_cfg config = Parallaft.Runtime.run_protected ~platform ~config ~program ()

(* The observable signature the differential property compares:
   everything derived from the main's instruction stream. Segment and
   checkpoint counts are deliberately excluded — the testing platform
   slices by cycles, and main's cycle count includes the CoW copies its
   stores pay while checker forks still share its pages, so how long a
   backend keeps checkers alive legitimately shifts slice boundaries.
   Within-run exactness (every segment compared and verified) is
   asserted separately. *)
type signature = {
  sg_detections : string list;
  sg_aborted : bool;
  sg_exit : int option;
  sg_output : string;
  sg_final_hash : int64 option;
  sg_syscalls : int;
  sg_nondet : int;
}

let signature (r : Parallaft.Runtime.report) =
  {
    sg_detections =
      List.map
        (fun (seg, o) ->
          Printf.sprintf "%d:%s" seg (Parallaft.Detection.outcome_to_string o))
        r.Parallaft.Runtime.detections;
    sg_aborted = r.aborted;
    sg_exit = r.exit_status;
    sg_output = r.output;
    sg_final_hash = Parallaft.Stats.final_state_hash r.stats;
    sg_syscalls = r.stats.Parallaft.Stats.syscalls_recorded;
    sg_nondet = r.stats.Parallaft.Stats.nondet_recorded;
  }

let pp_signature fmt s =
  Format.fprintf fmt
    "{det=[%s]; aborted=%b; exit=%s; out=%d bytes (hash %d); final=%s; \
     sys=%d; nondet=%d}"
    (String.concat ";" s.sg_detections)
    s.sg_aborted
    (match s.sg_exit with None -> "-" | Some e -> string_of_int e)
    (String.length s.sg_output)
    (Hashtbl.hash s.sg_output)
    (match s.sg_final_hash with
    | None -> "-"
    | Some h -> Printf.sprintf "%Lx" h)
    s.sg_syscalls s.sg_nondet

let inline_reference = lazy (run_cfg (nopace_cfg ()))

(* The fault-free inline run, as the run oracle's reference. *)
let reference () = Oracle.Protected (Lazy.force inline_reference)
let judge run = Oracle.judge ~reference:(reference ()) run

(* Clean against the inline reference, every segment compared. *)
let fully_verified (r : Parallaft.Runtime.report) =
  judge (Oracle.Protected r) = Oracle.Clean
  && r.stats.Parallaft.Stats.segments_compared
     = r.stats.Parallaft.Stats.segments_total

let backend_stats (r : Parallaft.Runtime.report) =
  r.Parallaft.Runtime.stats.Parallaft.Stats.backend

(* ---------- differential properties ---------- *)

let qcheck_deferred_identical =
  QCheck.Test.make ~count:8 ~name:"deferred batch 1..8 = inline"
    QCheck.(int_range 1 8)
    (fun batch ->
      (* The int shrinker can probe outside the generator's range. *)
      QCheck.assume (batch >= 1 && batch <= 8);
      let ref_sig = signature (Lazy.force inline_reference) in
      let config =
        {
          (nopace_cfg ()) with
          Parallaft.Config.backend =
            Parallaft.Config.deferred_backend ~batch ~max_lag:64 ();
        }
      in
      let r = run_cfg config in
      if signature r <> ref_sig then
        QCheck.Test.fail_reportf "batch %d diverged:@.inline   %a@.deferred %a"
          batch pp_signature ref_sig pp_signature (signature r);
      let b = backend_stats r in
      fully_verified r
      && b.Parallaft.Stats.b_batches >= 1
      && b.Parallaft.Stats.b_redispatched = 0)

let qcheck_remote_identical =
  QCheck.Test.make ~count:4 ~name:"fault-free remote = inline"
    QCheck.(int_range 1 4)
    (fun nodes ->
      QCheck.assume (nodes >= 1 && nodes <= 4);
      let ref_sig = signature (Lazy.force inline_reference) in
      let config =
        {
          (nopace_cfg ()) with
          Parallaft.Config.backend =
            Parallaft.Config.remote_backend ~nodes ~retries:3 ();
        }
      in
      let r = run_cfg config in
      if signature r <> ref_sig then
        QCheck.Test.fail_reportf "nodes %d diverged:@.inline %a@.remote %a"
          nodes pp_signature ref_sig pp_signature (signature r);
      let b = backend_stats r in
      fully_verified r && b.Parallaft.Stats.b_stale_verdicts = 0)

(* ---------- trace span balance ---------- *)

let test_deferred_spans_balanced () =
  let sink = Obs.Sink.create () in
  let config =
    {
      (base_cfg ()) with
      Parallaft.Config.obs = Some sink;
      backend = Parallaft.Config.deferred_backend ~batch:3 ~max_lag:8 ();
    }
  in
  let r = run_cfg config in
  Alcotest.(check bool) "clean" false r.Parallaft.Runtime.aborted;
  Fixtures.assert_spans_balanced sink

(* Deferred batching amortizes checker launch cost: at batch 1 every
   launch pays a cold fork and warm-up, at batch 8 only the first launch
   of each burst does. *)
let test_batching_amortizes_launch () =
  let launch_ns_per_segment ~batch =
    let r =
      run_cfg
        {
          (base_cfg ()) with
          Parallaft.Config.backend =
            Parallaft.Config.deferred_backend ~batch ~max_lag:12 ();
        }
    in
    let segments = r.Parallaft.Runtime.stats.Parallaft.Stats.segments_total in
    Alcotest.(check bool)
      (Printf.sprintf "batch %d: %d segments >= 16" batch segments)
      true (segments >= 16);
    float_of_int (backend_stats r).Parallaft.Stats.b_launch_ns
    /. float_of_int segments
  in
  let b1 = launch_ns_per_segment ~batch:1 in
  let b8 = launch_ns_per_segment ~batch:8 in
  Alcotest.(check bool)
    (Printf.sprintf "batch 8 launch %.1f ns/segment < batch 1 %.1f" b8 b1)
    true (b8 < b1)

(* ---------- chaos ---------- *)

let chaos ?(crash = 0) ?(stall = 0) ?(late = 0) ?(prelaunch = 0)
    ?(seed = 0xC4A05L) ?(late_ns = 150_000) ?(reboot_ns = 400_000) () =
  {
    Parallaft.Config.chaos_seed = seed;
    crash_pct = crash;
    stall_pct = stall;
    late_pct = late;
    prelaunch_pct = prelaunch;
    reboot_ns;
    late_ns;
  }

let remote_cfg ?(retries = 6) ?(watchdog_stall_ns = 2_000_000) chaos_spec =
  {
    (base_cfg ()) with
    Parallaft.Config.backend =
      Parallaft.Config.remote_backend ~nodes:3 ~retries ~chaos:chaos_spec ();
    watchdog_stall_ns;
  }

let qcheck_chaos_exactly_once =
  QCheck.Test.make ~count:12 ~name:"chaos: exactly-once, no SDC, no leaks"
    QCheck.(
      pair (int_range 0 1000)
        (quad (int_range 0 40) (int_range 0 25) (int_range 0 25)
           (int_range 0 25)))
    (fun (seed, (crash, stall, late, prelaunch)) ->
      let ref_sig = signature (Lazy.force inline_reference) in
      let config =
        remote_cfg
          (chaos ~crash ~stall ~late ~prelaunch
             ~seed:(Int64.of_int (0x5EED00 + seed))
             ())
      in
      let r = run_cfg config in
      match judge (Oracle.Protected r) with
      | Oracle.Fail_stop ->
        (* The retry budget ran out under heavy chaos: fail-stop is an
           acceptable outcome, silent corruption and double-counting
           are not. *)
        true
      | Oracle.Clean ->
        if signature r <> ref_sig then
          QCheck.Test.fail_reportf
            "chaos (%d,%d,%d,%d) seed %d corrupted the run:@.inline %a@.remote %a"
            crash stall late prelaunch seed pp_signature ref_sig pp_signature
            (signature r);
        true
      | (Oracle.Recovered | Oracle.Violation _) as v ->
        QCheck.Test.fail_reportf "chaos (%d,%d,%d,%d) seed %d: %s" crash stall
          late prelaunch seed (Oracle.to_string v))

let test_prelaunch_death_redispatched () =
  (* Every dispatch loses its checker in the dispatch-to-launch RPC
     window. The watchdog must swap in the spare and re-dispatch —
     never hang, never skip a segment. *)
  let config = remote_cfg (chaos ~prelaunch:80 ~seed:0xDEAD1L ()) in
  let r = run_cfg config in
  Fixtures.check_verdict "clean, every segment verified exactly once"
    Oracle.Clean ~reference:(reference ()) (Oracle.Protected r);
  let b = backend_stats r in
  Alcotest.(check bool) "watchdog saw the deaths" true
    (r.stats.Parallaft.Stats.watchdog_kills >= 1);
  Alcotest.(check bool) "re-dispatched at least once" true
    (b.Parallaft.Stats.b_redispatched >= 1)

let test_stale_verdict_discarded () =
  (* Late verdicts parked past the heartbeat budget: the lease expires,
     the segment re-dispatches, and the parked verdict must be
     discarded as stale when it finally lands — not double-counted.
     The late delay straddles the budget so re-dispatches eventually
     deliver in time. *)
  let config =
    remote_cfg ~watchdog_stall_ns:1_600_000
      (chaos ~late:100 ~late_ns:1_000_000 ~seed:0x57A1EL ())
  in
  let r = run_cfg config in
  Fixtures.check_verdict "clean, every segment verified exactly once"
    Oracle.Clean ~reference:(reference ()) (Oracle.Protected r);
  let b = backend_stats r in
  Alcotest.(check bool) "at least one verdict went stale" true
    (b.Parallaft.Stats.b_stale_verdicts >= 1)

let test_chaos_spans_balanced () =
  let sink = Obs.Sink.create () in
  let config =
    {
      (remote_cfg (chaos ~crash:25 ~stall:10 ~late:10 ~prelaunch:10 ())) with
      Parallaft.Config.obs = Some sink;
    }
  in
  ignore (run_cfg config);
  Fixtures.assert_spans_balanced sink

(* ---------- mid-batch rollback truncation (seglog) ---------- *)

let test_truncation_mid_batch () =
  (* A checker-detected fault at segment 2 while later segments sit
     queued behind the deferred batch: the rollback must truncate the
     manifest at the failing segment — the queued-but-never-checked
     segments past it were recorded against state the rollback
     discarded and must not be listed, even though their files were
     already persisted. *)
  let dir = Fixtures.e2e_dir "backend_truncation" in
  let config =
    {
      (Parallaft.Config.parallaft ~platform ~slice_period:3000 ()) with
      Parallaft.Config.backend =
        Parallaft.Config.deferred_backend ~batch:4 ~max_lag:8 ();
      recovery = true;
      record_log = Some dir;
      fault_plan =
        Some
          {
            Fault.segment = 2;
            delay_instructions = 60;
            target = Fault.Checker_memory_page { page_index = 6; bit = 6 };
            repeat = false;
          };
    }
  in
  let r = run_cfg config in
  Alcotest.(check bool) "fault was detected live" true
    (r.Parallaft.Runtime.detections <> []);
  Alcotest.(check bool) "run recovered, not aborted" false
    r.Parallaft.Runtime.aborted;
  let fail_seg = fst (List.hd r.Parallaft.Runtime.detections) in
  let manifest, segments = Fixtures.load_log dir in
  let trunc =
    match manifest.Seglog.Record.truncated_at with
    | None -> Alcotest.fail "rollback did not latch a truncation point"
    | Some k -> k
  in
  Alcotest.(check int) "truncated at the failing segment" fail_seg trunc;
  List.iter
    (fun id ->
      if id > trunc then
        Alcotest.failf "manifest lists segment %d past truncation %d" id trunc)
    manifest.Seglog.Record.segments;
  (* The deferred queue had persisted segments past the failure before
     the rollback landed: their files remain on disk but the manifest
     must not reference them. *)
  let orphan = ref false in
  Array.iter
    (fun f ->
      match Scanf.sscanf_opt f "seg-%d.plog" (fun id -> id) with
      | Some id when id > trunc -> orphan := true
      | Some _ | None -> ())
    (Sys.readdir dir);
  Alcotest.(check bool) "queued segments past truncation were persisted" true
    !orphan;
  (* Offline replay of the truncated prefix reproduces the verdict. *)
  match Parallaft.Offline.replay ~manifest ~segments with
  | Error e -> Alcotest.failf "offline replay: %s" e
  | Ok (Parallaft.Offline.Verified _) ->
    Alcotest.fail "offline replay missed the recorded fault"
  | Ok (Parallaft.Offline.Diverged d) ->
    Alcotest.(check int) "offline divergence at the failing segment" fail_seg
      d.Parallaft.Offline.segment

(* ---------- the support matrix and the configuration product ---------- *)

module Config = Parallaft.Config

(* A fresh path that does not exist yet. *)
let fresh_dir leg =
  let path = Filename.temp_file ("parallaft_" ^ leg) "" in
  Sys.remove path;
  path

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let refused run =
  match run () with _ -> false | exception Invalid_argument _ -> true

(* A config Config.validate refuses makes Runtime.run_protected raise
   before the run does anything: before_run never fires and the record
   log's directory is never created. *)
let test_solo_refused config () =
  let dir = fresh_dir "refused" in
  let fired = ref false in
  Alcotest.(check bool) "raised Invalid_argument" true
    (refused (fun () ->
         Parallaft.Runtime.run_protected ~platform
           ~before_run:(fun _ _ -> fired := true)
           ~config:{ config with Config.record_log = Some dir }
           ~program ()));
  Alcotest.(check bool) "before_run never fired" false !fired;
  Alcotest.(check bool) "no log directory" false (Sys.file_exists dir)

(* A tenant's final config is validated too, not only the template. *)
let test_tenant_refused configure () =
  let dir = fresh_dir "refused_tenant" in
  Alcotest.(check bool) "raised Invalid_argument" true
    (refused (fun () ->
         Fleet.run ~platform ~config:(base_cfg ())
           ~configure:(fun tid cfg -> if tid = 0 then configure dir cfg else cfg)
           ~programs:[ program; program ] ()));
  Alcotest.(check bool) "no log directory" false (Sys.file_exists dir)

type case = {
  mode : [ `Baseline | `Parallaft | `Raft ];
  backend : Config.backend;
  tenants : int;
  record_log : bool;
  block_cache : int;
  dirty : Config.dirty_backend;
  fault : Fault.plan option;
  recovery : bool;
  recheck : bool;
}

let print_case c =
  Printf.sprintf
    "{mode=%s; backend=%s; tenants=%d; record_log=%b; block_cache=%d; \
     dirty=%s; fault=%s; recovery=%b; recheck=%b}"
    (match c.mode with
    | `Baseline -> "baseline"
    | `Parallaft -> "parallaft"
    | `Raft -> "raft")
    (match c.backend with
    | Config.Backend_inline -> "inline"
    | Config.Backend_deferred { batch; max_lag } ->
      Printf.sprintf "deferred(batch %d, max_lag %d)" batch max_lag
    | Config.Backend_remote { chaos; _ } ->
      if chaos = None then "remote" else "remote+chaos")
    c.tenants c.record_log c.block_cache
    (match c.dirty with
    | Config.Soft_dirty -> "soft-dirty"
    | Config.Map_count -> "map-count"
    | Config.Full_compare -> "full-compare")
    (match c.fault with None -> "none" | Some p -> Fault.to_string p)
    c.recovery c.recheck

let gen_case =
  let open QCheck2.Gen in
  let backend =
    oneof
      [
        pure Config.Backend_inline;
        (let+ batch = int_range 1 4 and+ max_lag = int_range 1 8 in
         Config.deferred_backend ~batch ~max_lag ());
        (let+ chaos = opt (pure Config.default_chaos) in
         Config.remote_backend ?chaos ());
      ]
  in
  let fault =
    opt
      (let+ kind = oneofl Fault.all_target_kinds
       and+ segment = int_range 0 3
       and+ delay_instructions = int_range 0 200
       and+ reg = int_range 0 (Isa.Insn.num_regs - 1)
       and+ bit = int_range 0 63 in
       let build = Result.get_ok (Fault.target_kind_of_string kind) in
       { Fault.segment; delay_instructions; target = build reg bit;
         repeat = false })
  in
  let+ mode = oneofl [ `Baseline; `Parallaft; `Raft ]
  and+ backend
  and+ tenants = int_range 1 2
  and+ record_log = bool
  and+ block_cache = oneofl [ 0; Machine.Cpu.default_block_cache () ]
  and+ dirty = oneofl Config.[ Soft_dirty; Map_count; Full_compare ]
  and+ fault
  and+ recovery = bool
  and+ recheck = bool in
  { mode; backend; tenants; record_log; block_cache; dirty; fault; recovery;
    recheck }

(* Remote chaos runs with the chaos campaigns' 2 ms stall budget: at
   the default 100 ms, a main looping on a corrupted counter records
   thousands of segments before a stalled node's lease expires. *)
let case_config c ~dir =
  let base =
    match c.mode with
    | `Raft -> Config.raft ~platform ()
    | `Parallaft | `Baseline -> base_cfg ()
  in
  {
    base with
    Config.backend = c.backend;
    watchdog_stall_ns =
      (match c.backend with
      | Config.Backend_remote { chaos = Some _; _ } -> 2_000_000
      | _ -> base.Config.watchdog_stall_ns);
    record_log = (if c.record_log then Some dir else None);
    block_cache = c.block_cache;
    dirty_backend = c.dirty;
    fault_plan = c.fault;
    recovery = c.recovery;
    recheck_on_mismatch = c.recheck;
  }

let case_kind c =
  match c.mode with
  | `Baseline -> Config.Baseline
  | `Parallaft | `Raft -> if c.tenants > 1 then Config.Tenant else Config.Solo

let expect what ok = if not ok then QCheck2.Test.fail_reportf "%s" what

(* Offline replay of a recorded log agrees with the live verdict on the
   segments the log holds. A runtime fault is never re-armed offline,
   so its detections are not compared. *)
let check_log (r : Parallaft.Runtime.report) (plan : Fault.plan option) dir =
  let manifest, segments = Fixtures.load_log dir in
  let runtime_fault =
    match plan with
    | Some { Fault.target = Fault.Runtime_fault _; _ } -> true
    | Some _ | None -> false
  in
  let live =
    if runtime_fault then None
    else
      List.find_map
        (fun (seg, _) ->
          if List.mem seg manifest.Seglog.Record.segments then Some seg
          else None)
        r.Parallaft.Runtime.detections
  in
  match (Parallaft.Offline.replay ~manifest ~segments, live) with
  | Error e, _ -> QCheck2.Test.fail_reportf "offline replay: %s" e
  | Ok (Parallaft.Offline.Verified v), None ->
    expect "offline final-state hash matches the manifest"
      (v.final_hash_matches <> Some false)
  | Ok (Parallaft.Offline.Diverged d), Some seg ->
    if d.Parallaft.Offline.segment <> seg then
      QCheck2.Test.fail_reportf "offline diverged at segment %d, live at %d"
        d.Parallaft.Offline.segment seg
  | Ok (Parallaft.Offline.Verified _), Some seg ->
    QCheck2.Test.fail_reportf "offline verified live detection at segment %d" seg
  | Ok (Parallaft.Offline.Diverged d), None ->
    QCheck2.Test.fail_reportf "offline diverged at segment %d, live verified"
      d.Parallaft.Offline.segment

(* The property accepts a clean, recovered or fail-stop run. *)
let accept what run =
  match judge run with
  | Oracle.Clean | Oracle.Recovered | Oracle.Fail_stop -> ()
  | Oracle.Violation _ as v ->
    QCheck2.Test.fail_reportf "%s: %s" what (Oracle.to_string v)

let run_case c =
  let dir = fresh_dir "product" in
  let config = case_config c ~dir in
  let accepted = Config.validate (case_kind c) config = Ok () in
  Fun.protect ~finally:(fun () -> remove_dir dir) @@ fun () ->
  (match (case_kind c, accepted) with
  | Config.Baseline, false -> ()
  | Config.Solo, false ->
    expect "run_protected refuses"
      (refused (fun () -> Parallaft.Runtime.run_protected ~platform ~config ~program ()))
  | Config.Tenant, false ->
    expect "Fleet.run refuses"
      (refused (fun () ->
           Fleet.run ~platform ~config ~programs:[ program; program ] ()))
  | Config.Baseline, true ->
    accept "baseline"
      (Oracle.Baseline
         (Parallaft.Runtime.run_baseline ~platform ~block_cache:c.block_cache
            ~program ()))
  | Config.Solo, true ->
    let r = run_cfg config in
    accept "run" (Oracle.Protected r);
    if c.record_log then check_log r c.fault dir
  | Config.Tenant, true ->
    (* The fault arms in tenant 0 only, as the CLI arms it. *)
    let f =
      Fleet.run ~platform
        ~config:{ config with Config.fault_plan = None }
        ~configure:(fun tid cfg ->
          if tid = 0 then { cfg with Config.fault_plan = c.fault } else cfg)
        ~programs:[ program; program ] ()
    in
    List.iter
      (fun (t : Fleet.tenant_report) ->
        if Option.is_none t.Fleet.stats then
          QCheck2.Test.fail_reportf "tenant %d never admitted" t.Fleet.tid;
        expect "tenant 1 completes" (t.Fleet.tid = 0 || t.Fleet.outcome = Fleet.Completed);
        accept (Printf.sprintf "tenant %d" t.Fleet.tid) (Oracle.Tenant (f, t)))
      f.Fleet.tenants);
  true

(* Shrunk counterexamples of the property, pinned. A rollback truncates
   the log before the failing segment when main crashed mid-recording,
   or at a segment whose runtime fault offline replay never re-arms, so
   offline replay must not check the re-executed run's final-state hash
   against that prefix. RAFT compares only syscalls, so Config.validate
   refuses a main-side fault there. *)
let product_regressions =
  let case =
    {
      mode = `Parallaft;
      backend = Config.Backend_inline;
      tenants = 1;
      record_log = true;
      block_cache = 0;
      dirty = Config.Soft_dirty;
      fault = None;
      recovery = true;
      recheck = false;
    }
  in
  let plan segment delay_instructions target =
    Some { Fault.segment; delay_instructions; target; repeat = false }
  in
  List.map
    (fun (name, c) ->
      Alcotest.test_case name `Quick (fun () -> ignore (run_case c)))
    [
      ( "truncated log after a main crash",
        { case with
          fault = plan 1 0 (Fault.Main_memory_page { page_index = 1; bit = 0 }) } );
      ( "truncated log after a runtime kill",
        { case with fault = plan 0 0 (Fault.Runtime_fault Fault.Kill) } );
      ( "RAFT main-register fault",
        { case with
          mode = `Raft;
          record_log = false;
          recovery = false;
          fault = plan 0 5 (Fault.Main_register { reg = 8; bit = 0 }) } );
    ]

let qcheck_configuration_product =
  QCheck2.Test.make ~count:300 ~print:print_case
    ~name:"configuration product: refused or no SDC, exactly once, no leaks"
    gen_case run_case

let () =
  Alcotest.run "backend"
    [
      ( "supervisor",
        [ Alcotest.test_case "heartbeat budget" `Quick test_heartbeat ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest qcheck_deferred_identical;
          QCheck_alcotest.to_alcotest qcheck_remote_identical;
          Alcotest.test_case "deferred spans balanced" `Slow
            test_deferred_spans_balanced;
          Alcotest.test_case "batching amortizes launch cost" `Slow
            test_batching_amortizes_launch;
        ] );
      ( "chaos",
        [
          QCheck_alcotest.to_alcotest qcheck_chaos_exactly_once;
          Alcotest.test_case "pre-launch deaths re-dispatch" `Slow
            test_prelaunch_death_redispatched;
          Alcotest.test_case "stale verdicts discarded" `Slow
            test_stale_verdict_discarded;
          Alcotest.test_case "chaos spans balanced" `Slow
            test_chaos_spans_balanced;
        ] );
      ( "seglog",
        [
          Alcotest.test_case "mid-batch rollback truncates the manifest" `Slow
            test_truncation_mid_batch;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "deferred batch 0 refused" `Quick
            (test_solo_refused
               {
                 (base_cfg ()) with
                 Config.backend = Config.Backend_deferred { batch = 0; max_lag = 8 };
               });
          Alcotest.test_case "remote nodes 0 refused" `Quick
            (test_solo_refused
               {
                 (base_cfg ()) with
                 Config.backend =
                   Config.Backend_remote { nodes = 0; retries = 3; chaos = None };
               });
          Alcotest.test_case "out-of-range fault register refused" `Quick
            (test_solo_refused
               {
                 (base_cfg ()) with
                 Config.fault_plan =
                   Some
                     (Fault.checker_register ~segment:1 ~delay_instructions:60
                        ~reg:99 ~bit:3);
               });
          Alcotest.test_case "tenant record_log refused" `Quick
            (test_tenant_refused (fun dir cfg ->
                 { cfg with Config.record_log = Some dir }));
          Alcotest.test_case "RAFT tenant refused" `Quick
            (test_tenant_refused (fun _ _ -> Config.raft ~platform ()));
          QCheck_alcotest.to_alcotest qcheck_configuration_product;
        ]
        @ product_regressions );
    ]
