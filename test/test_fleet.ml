(* Fleet mode (DESIGN.md §16): the work-stealing deque against a list
   model, cross-tenant fault isolation, admission-order determinism
   with the consolidation win (steals > 0, fleet wall <= half the
   serial wall), rollback resetting a tenant like a fresh admission,
   a tenant's end of run (fault classification as solo, one profiled
   drain per tenant), every checker backend under a fleet, the
   record-log and RAFT refusals, migration past a dead checker under
   remote-backend chaos, the shared pool's big-core take keeping the
   queue order, and the teardown pid invariant. Every run sweeps the
   pool-scope invariants on every scheduling event (the config forces
   them on). *)

module P = Parallaft
module Oracle = Experiments.Oracle

let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Deque vs list model: front-first list, push_back appends, pop_back
   takes the newest, steal_front the oldest. Checking every op's result
   AND the full contents after every op means no element can be lost or
   duplicated by any interleaving of owner and thief operations. *)

type op = Push of int | Pop | Steal | Remove_odd

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun x -> Push x) small_nat);
        (2, return Pop);
        (2, return Steal);
        (1, return Remove_odd);
      ])

let show_op = function
  | Push x -> Printf.sprintf "Push %d" x
  | Pop -> "Pop"
  | Steal -> "Steal"
  | Remove_odd -> "Remove_odd"

let arbitrary_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck.Gen.(list_size (int_bound 60) op_gen)

let qcheck_deque_matches_model =
  QCheck.Test.make ~name:"deque = list model (no lost/dup elements)"
    ~count:500 arbitrary_ops (fun ops ->
      let d = Util.Deque.create () in
      let model = ref [] (* oldest first *) in
      let split_last l =
        match List.rev l with
        | [] -> (None, [])
        | x :: rev_rest -> (Some x, List.rev rev_rest)
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Push x ->
              Util.Deque.push_back d x;
              model := !model @ [ x ];
              true
            | Pop ->
              let got = Util.Deque.pop_back d in
              let want, rest = split_last !model in
              model := rest;
              got = want
            | Steal -> (
              let got = Util.Deque.steal_front d in
              match !model with
              | [] -> got = None
              | x :: rest ->
                model := rest;
                got = Some x)
            | Remove_odd ->
              let removed = Util.Deque.remove_where d (fun x -> x mod 2 = 1) in
              let want_removed = List.filter (fun x -> x mod 2 = 1) !model in
              model := List.filter (fun x -> x mod 2 = 0) !model;
              removed = want_removed
          in
          ok
          && Util.Deque.to_list d = !model
          && Util.Deque.length d = List.length !model)
        ops)

(* ------------------------------------------------------------------ *)
(* End-to-end fixtures: small detimed tenants on the Intel model
   (enough little capacity for four tenants), invariants swept on every
   scheduling event. *)

let platform = Platform.intel_i7

let detimed name ~scale =
  let bench =
    match Workloads.Spec.find name with
    | Some b -> Workloads.Spec.detimed b
    | None -> Alcotest.failf "%s missing from the suite" name
  in
  List.hd
    (Workloads.Spec.programs bench ~page_size:platform.Platform.page_size ~scale)

let program = detimed "456.hmmer" ~scale:0.25

let config () =
  { (P.Config.parallaft ~platform ()) with P.Config.check_invariants = true }

let n = 4
let programs = List.init n (fun _ -> program)

(* A tenant's fault-free run replayed solo with its fleet rng streams:
   the determinism baseline, memoized per fixture program. *)
let solo_runs program =
  let memo = Hashtbl.create 4 in
  fun tid ->
    match Hashtbl.find_opt memo tid with
    | Some r -> r
    | None ->
      let rng, prng = Fleet.tenant_rngs ~seed:42L ~tid in
      let r =
        P.Runtime.run_protected ~platform ~config:(config ()) ~program ~rng ~prng
          ()
      in
      Hashtbl.add memo tid r;
      r

let solo = solo_runs program

let tenant f tid =
  List.find (fun (t : Fleet.tenant_report) -> t.Fleet.tid = tid) f.Fleet.tenants

(* Tenant [tid]'s verdict against its solo run (the pid clause reads
   the whole fleet's). *)
let check_verdict ~label ~solo f tid want =
  Fixtures.check_verdict (Printf.sprintf "%s: tenant %d" label tid) want
    ~reference:(Oracle.Protected (solo tid)) (Oracle.Tenant (f, tenant f tid))

let check_all_clean ~label ~solo f =
  List.iter
    (fun (t : Fleet.tenant_report) ->
      check_verdict ~label ~solo f t.Fleet.tid Oracle.Clean)
    f.Fleet.tenants

(* Fault isolation: a persistent checker-register flip armed in tenant 1
   only. Tenant 1 must detect it; every other tenant must see zero
   recovery activity and finish with the same state it reaches solo. *)
let test_fault_isolation () =
  let f =
    Fleet.run ~max_tenants:n ~platform
      ~config:{ (config ()) with P.Config.recovery = true }
      ~configure:(fun tid cfg ->
        if tid = 1 then
          {
            cfg with
            P.Config.fault_plan =
              Some
                {
                  Fault.segment = 1;
                  delay_instructions = 50;
                  target = Fault.Checker_register { reg = 8; bit = 33 };
                  repeat = true;
                };
          }
        else cfg)
      ~programs ()
  in
  (match (tenant f 1).Fleet.stats with
  | None -> Alcotest.fail "faulted tenant never admitted"
  | Some st ->
    Alcotest.(check bool)
      "fault landed in tenant 1" true
      (st.P.Stats.recoveries > 0
      || st.P.Stats.hard_faults > 0
      || st.P.Stats.detections <> []));
  List.iter
    (fun tid ->
      let t = tenant f tid in
      (match t.Fleet.stats with
      | None -> Alcotest.fail "bystander never admitted"
      | Some st ->
        Alcotest.(check int)
          (Printf.sprintf "tenant %d hard faults" tid)
          0 st.P.Stats.hard_faults;
        Alcotest.(check int)
          (Printf.sprintf "tenant %d watchdog kills" tid)
          0 st.P.Stats.watchdog_kills);
      (* Clean: no rollback, and the state it reaches solo. *)
      check_verdict ~label:"bystander" ~solo f tid Oracle.Clean)
    [ 0; 2; 3 ]

(* Admission-order determinism: batch admission, staggered arrivals
   through two admission slots, and the solo replay all give each
   tenant the same architectural outcome, because its rng streams are
   keyed by (seed, tid) alone. The batch run also shows the
   consolidation the mode exists for: with 12 home slots and 4 tenants,
   idle littles only get work by stealing, and four tenants sharing the
   machine finish in at most half the time of four serial runs. *)
let test_admission_order_determinism () =
  let batch = Fleet.run ~max_tenants:n ~platform ~config:(config ()) ~programs () in
  Alcotest.(check bool)
    (Printf.sprintf "steals > 0 (%d)" batch.Fleet.steals)
    true (batch.Fleet.steals > 0);
  let serial_wall =
    List.fold_left (fun acc tid -> acc + (solo tid).P.Runtime.wall_ns) 0
      (List.init n Fun.id)
  in
  Alcotest.(check bool)
    (Printf.sprintf "fleet wall %d <= serial wall %d / 2" batch.Fleet.wall_ns
       serial_wall)
    true
    (2 * batch.Fleet.wall_ns <= serial_wall);
  let staggered =
    Fleet.run ~max_tenants:2 ~arrival:(Fleet.Staggered 300_000) ~platform
      ~config:(config ()) ~programs ()
  in
  (* Both end in each tenant's solo state, so in the same state. *)
  check_all_clean ~label:"batch" ~solo batch;
  check_all_clean ~label:"staggered" ~solo staggered

(* A single-tenant fleet is just a protected run on the shared pool:
   same final state as Runtime.run_protected with the tenant streams. *)
let test_single_tenant_fleet_matches_run_protected () =
  let f =
    Fleet.run ~max_tenants:1 ~platform ~config:(config ())
      ~programs:[ program ] ()
  in
  check_verdict ~label:"= run_protected" ~solo f 0 Oracle.Clean

(* Rollback resets a tenant like a fresh admission. A one-shot checker
   fault in tenant 0 fails segment 1 (mid-run) or segment 3 (the last,
   so the main has already exited when the run rolls back). The tenant
   must re-execute as a running tenant, not a draining one: the pool
   reads the run's own main-exited flag, which the rollback resets, so
   no flag of the discarded execution survives it. *)
let gcc = detimed "403.gcc" ~scale:0.5
let gcc_solo = solo_runs gcc

let test_rollback_resets_tenant () =
  Alcotest.(check int)
    "segment 3 is the last" 4
    (gcc_solo 0).P.Runtime.stats.P.Stats.segments_total;
  List.iter
    (fun (tenants, segment) ->
      let label = Printf.sprintf "%d tenants, fault at segment %d" tenants segment in
      let f =
        Fleet.run ~max_tenants:tenants ~platform
          ~config:{ (config ()) with P.Config.recovery = true }
          ~configure:(fun tid cfg ->
            if tid = 0 then
              {
                cfg with
                P.Config.fault_plan =
                  Some
                    {
                      Fault.segment;
                      delay_instructions = 50;
                      target = Fault.Checker_register { reg = 8; bit = 33 };
                      repeat = false;
                    };
              }
            else cfg)
          ~programs:(List.init tenants (fun _ -> gcc))
          ()
      in
      List.iter
        (fun tid ->
          check_verdict ~label ~solo:gcc_solo f tid
            (if tid = 0 then Oracle.Recovered else Oracle.Clean))
        (List.init tenants Fun.id);
      match (tenant f 0).Fleet.stats with
      | None -> Alcotest.fail "faulted tenant never admitted"
      | Some st ->
        Alcotest.(check int) (label ^ ": tenant 0 recoveries") 1 st.P.Stats.recoveries)
    [ (1, 1); (1, 3); (4, 1); (4, 3) ]

(* A fleet tenant ends its run like a standalone one: a main-memory
   flip early in tenant 0's second segment, detected and rolled back,
   gets the classification (fi_outcome) its solo run gets. *)
let main_fault =
  {
    Fault.segment = 1;
    delay_instructions = 100;
    target = Fault.Main_memory_page { page_index = 3; bit = 9 };
    repeat = false;
  }

let test_fault_classified_like_solo () =
  let config = { (config ()) with P.Config.recovery = true } in
  let f =
    Fleet.run ~max_tenants:2 ~platform ~config
      ~configure:(fun tid cfg ->
        if tid = 0 then { cfg with P.Config.fault_plan = Some main_fault } else cfg)
      ~programs:[ gcc; gcc ] ()
  in
  let rng, prng = Fleet.tenant_rngs ~seed:42L ~tid:0 in
  let solo =
    P.Runtime.run_protected ~platform
      ~config:{ config with P.Config.fault_plan = Some main_fault }
      ~program:gcc ~rng ~prng ()
  in
  let outcome (st : P.Stats.t) =
    Option.map P.Detection.outcome_to_string st.P.Stats.fi_outcome
  in
  match (tenant f 0).Fleet.stats with
  | None -> Alcotest.fail "faulted tenant never admitted"
  | Some st ->
    Alcotest.(check bool) "fault fired" true st.P.Stats.fi_fired;
    Alcotest.(check bool) "solo run classified it" true
      (solo.P.Runtime.stats.P.Stats.fi_outcome <> None);
    Alcotest.(check (option string)) "fi_outcome = solo run's"
      (outcome solo.P.Runtime.stats) (outcome st)

(* Each main exit opens a drain scope; the fleet retires it at the
   tenant's end of run, so a profiled fleet reports one drain per
   tenant. *)
let test_profile_drains () =
  let sink = Obs.Sink.create () in
  Obs.Profile.set_enabled sink.Obs.Sink.profile true;
  ignore
    (Fleet.run ~max_tenants:4 ~platform
       ~config:{ (config ()) with P.Config.obs = Some sink }
       ~programs:(List.init 4 (fun _ -> gcc)) ());
  match List.assoc_opt "drain" (Obs.Profile.phases sink.Obs.Sink.profile) with
  | None -> Alcotest.fail "no drain phase"
  | Some d ->
    Alcotest.(check int) "one drain per tenant" 4 d.Obs.Profile.count;
    Alcotest.(check bool) "drain self-time > 0" true (d.Obs.Profile.self_ns > 0)

(* Each tenant builds its own checker backend, so a fleet runs under any
   of them with the same per-tenant outcomes as inline. *)
let test_backends () =
  List.iter
    (fun (label, backend) ->
      check_all_clean ~label ~solo
        (Fleet.run ~max_tenants:n ~platform
           ~config:{ (config ()) with P.Config.backend }
           ~programs ()))
    [
      ("deferred", P.Config.deferred_backend ~batch:2 ~max_lag:4 ());
      ("remote", P.Config.remote_backend ());
      ( "remote+chaos",
        P.Config.remote_backend ~retries:6 ~chaos:P.Config.default_chaos () );
    ]

(* A segment log holds one linear history: a fleet refuses to record
   one instead of silently writing nothing. *)
let test_record_log_refused () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fleet_record_log" in
  match
    Fleet.run ~platform
      ~config:{ (config ()) with P.Config.record_log = Some dir }
      ~programs:[ program ] ()
  with
  | _ -> Alcotest.fail "Fleet.run accepted record_log"
  | exception Invalid_argument _ -> ()

(* RAFT checkers run on big cores, and a fleet reserves those for its
   tenants' mains: a fleet refuses a RAFT config instead of quietly
   running its checkers on the littles. *)
let test_raft_refused () =
  match
    Fleet.run ~platform ~config:(P.Config.raft ~platform ()) ~programs:[ program ] ()
  with
  | _ -> Alcotest.fail "Fleet.run accepted a RAFT config"
  | exception Invalid_argument _ -> ()

(* Fixtures on the two-big, two-little testing platform: a pure
   function of its program (no time queries), so every backend and
   every schedule ends in the same state. *)
let testing = Platform.testing

let deterministic_program = Experiments.Exp_backends.program

(* Migration never picks a dead checker. Under remote-backend chaos a
   checker killed on its little core stays in the pool's running list
   until the watchdog retires it, and that retirement re-dispatches onto
   a big core: migrating the corpse raised "process has exited". *)
let test_migration_skips_dead_checkers () =
  let base = P.Config.parallaft ~platform:testing ~slice_period:20_000 () in
  let config =
    {
      base with
      P.Config.check_invariants = true;
      watchdog_stall_ns = 2_000_000;
      backend =
        P.Config.remote_backend ~nodes:3 ~retries:6
          ~chaos:
            {
              P.Config.chaos_seed = Int64.of_int (0x5EED00 + 12);
              crash_pct = 40;
              stall_pct = 25;
              late_pct = 25;
              prelaunch_pct = 25;
              reboot_ns = 400_000;
              late_ns = 150_000;
            }
          ();
    }
  in
  let f =
    Fleet.run ~platform:testing ~config ~programs:[ deterministic_program ] ()
  in
  let rng, prng = Fleet.tenant_rngs ~seed:42L ~tid:0 in
  let fault_free =
    P.Runtime.run_protected ~platform:testing ~config:base
      ~program:deterministic_program ~rng ~prng ()
  in
  check_verdict ~label:"vs the fault-free solo run" ~solo:(fun _ -> fault_free) f
    0 Oracle.Clean;
  (match (tenant f 0).Fleet.stats with
  | None -> Alcotest.fail "tenant never admitted"
  | Some st ->
    Alcotest.(check int) "every segment verified" st.P.Stats.segments_total
      f.Fleet.segments_verified);
  Alcotest.(check int) "segments verified" 23 f.Fleet.segments_verified

(* Bare pools on the testing platform (migration off), with stopped
   checker processes that the test hands to the pool directly. The
   tenant's main-exited flag is the test's [exited] ref: the pool reads
   the run's flags, it keeps no copy. *)
let bare_pool kind =
  let eng = Sim_os.Engine.create ~platform:testing ~seed:1L () in
  let cfg =
    { (P.Config.parallaft ~platform:testing ()) with P.Config.migration = false }
  in
  let pool = P.Core_pool.create kind eng cfg in
  let exited = ref false in
  P.Core_pool.register_tenant pool ~tid:0 ~stats:(P.Stats.create ()) ~main_core:0
    ~main_exited:(fun () -> !exited)
    ~main_held:(fun () -> false);
  let checker () =
    let pid = Sim_os.Engine.spawn eng ~program:deterministic_program ~core:0 () in
    Sim_os.Engine.suspend eng pid;
    pid
  in
  (eng, pool, checker, exited)

(* A private pool's three rules: each free core takes the run's oldest
   queued checker, no dispatch is a steal, and a rollback returns the
   free lists to creation order (a shared pool pushes each released
   core onto its free list, so c3 would land on little 1). *)
let test_private_pool_rules () =
  let module E = Sim_os.Engine in
  let eng, pool, checker, _ = bare_pool P.Core_pool.Private in
  let little0, little1 =
    match E.little_cores eng with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "testing has two littles"
  in
  let b0 = checker () in
  let b1 = checker () in
  let c1 = checker () in
  let c2 = checker () in
  List.iter (P.Core_pool.enqueue pool ~tid:0) [ b0; b1; c1; c2 ];
  Alcotest.(check (list int)) "littles in order" [ little0; little1 ]
    [ E.core_of eng b0; E.core_of eng b1 ];
  P.Core_pool.finished pool b0;
  Alcotest.(check int) "home core takes the oldest" little0 (E.core_of eng c1);
  P.Core_pool.finished pool b1;
  Alcotest.(check int) "little 1 takes the next" little1 (E.core_of eng c2);
  Alcotest.(check int) "no steals" 0 (P.Core_pool.steals pool);
  P.Core_pool.flush_tenant pool ~tid:0;
  Alcotest.(check (list int)) "nothing running" []
    (P.Core_pool.running_pids pool ~tid:0);
  let c3 = checker () in
  P.Core_pool.enqueue pool ~tid:0 c3;
  Alcotest.(check int) "creation order after reset" little0 (E.core_of eng c3)

(* A free big core takes the oldest draining checker and leaves the
   rest of the queue in order. One tenant, migration off, both littles
   busy, c1 c2 c3 queued at the home core (little 0): once the main
   exits the free big takes c1, and the next little to free (little 1,
   a thief) must then steal c2, not c3. *)
let test_big_take_keeps_queue_order () =
  let module E = Sim_os.Engine in
  let eng, pool, checker, exited = bare_pool P.Core_pool.Shared in
  let busy = List.init 2 (fun _ -> checker ()) in
  let c1 = checker () in
  let c2 = checker () in
  let c3 = checker () in
  List.iter (P.Core_pool.enqueue pool ~tid:0) (busy @ [ c1; c2; c3 ]);
  Alcotest.(check (list int)) "queued" [ c1; c2; c3 ]
    (P.Core_pool.queued_pids pool ~tid:0);
  exited := true;
  P.Core_pool.main_exited pool ~tid:0;
  Alcotest.(check (list int)) "the big took c1" (busy @ [ c1 ])
    (P.Core_pool.running_pids pool ~tid:0);
  let little1 = List.nth (E.little_cores eng) 1 in
  P.Core_pool.finished pool
    (List.find (fun pid -> E.core_of eng pid = little1) busy);
  Alcotest.(check int) "little 1 stole c2" little1 (E.core_of eng c2);
  Alcotest.(check (list int)) "c3 still queued" [ c3 ]
    (P.Core_pool.queued_pids pool ~tid:0)

(* Reject admission: with one slot and batch arrivals, the overflow
   tenants are turned away and the admitted one is undisturbed. *)
let test_reject_admission () =
  let f =
    Fleet.run ~max_tenants:1 ~admission:Fleet.Reject_arrivals ~platform
      ~config:(config ()) ~programs ()
  in
  Alcotest.(check int) "admitted" 1 f.Fleet.admitted;
  Alcotest.(check int) "rejected" (n - 1) f.Fleet.rejected;
  let t = tenant f 0 in
  Alcotest.(check bool) "tenant 0 completed" true (t.Fleet.outcome = Fleet.Completed);
  Alcotest.(check bool)
    "rejected tenants reported" true
    (List.for_all
       (fun tid -> (tenant f tid).Fleet.outcome = Fleet.Rejected)
       [ 1; 2; 3 ])

let () =
  Alcotest.run "fleet"
    [
      ( "deque",
        [ QCheck_alcotest.to_alcotest qcheck_deque_matches_model ] );
      ( "fleet",
        [
          tc "fault isolation" `Quick test_fault_isolation;
          tc "admission-order determinism" `Quick
            test_admission_order_determinism;
          tc "single tenant = run_protected" `Quick
            test_single_tenant_fleet_matches_run_protected;
          tc "reject admission" `Quick test_reject_admission;
          tc "rollback resets the tenant" `Quick test_rollback_resets_tenant;
          tc "fault classified like solo" `Quick test_fault_classified_like_solo;
          tc "profile drains per tenant" `Quick test_profile_drains;
          tc "any checker backend" `Quick test_backends;
          tc "record_log refused" `Quick test_record_log_refused;
          tc "RAFT refused" `Quick test_raft_refused;
          tc "migration skips dead checkers" `Quick
            test_migration_skips_dead_checkers;
        ] );
      ( "pool",
        [
          tc "private pool rules" `Quick test_private_pool_rules;
          tc "big-core take keeps queue order" `Quick
            test_big_take_keeps_queue_order;
        ] );
    ]
