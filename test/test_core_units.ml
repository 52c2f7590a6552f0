(* Direct unit tests of the Parallaft core-library leaf modules:
   execution points, the R/R log, the comparator and the dirty-tracker
   backends. The coordinator integration is covered by test_parallaft. *)

let page_size = 4096

let make_cpu ?(seed = 1L) src =
  let program = Isa.Asm.assemble_exn src in
  let alloc = Mem.Frame.allocator ~page_size in
  let aspace = Mem.Address_space.create alloc in
  List.iter
    (fun { Isa.Program.base; bytes } ->
      Mem.Address_space.write_bytes_map aspace ~addr:base bytes)
    program.Isa.Program.data;
  Machine.Cpu.create ~rng:(Util.Rng.create ~seed) ~program ~aspace ()

let null_env =
  {
    Machine.Cpu.core_id = 0;
    read_tsc = (fun () -> 0);
    read_rand = (fun () -> 0);
    mem_access = (fun ~frame:_ -> 0);
    mem_access_cow = (fun ~frame:_ ~old_frame:_ -> 0);
    max_access_cycles = 0;
    cow_extra_cycles = 0;
    mul_cycles = 3;
    div_cycles = 12;
  }

let loop_src = "li r1, 10000\nli r2, 0\nl:\nsub r1, r1, 1\nbne r1, r2, l\nhalt"

(* Drive a CPU through its replay plan, returning every Reached point. *)
let drive cpu replay =
  let reached = ref [] in
  let rec go () =
    let res = Machine.Cpu.run cpu ~env:null_env ~max_cycles:10_000_000 in
    let handle adv =
      match (adv : Parallaft.Exec_point.advance) with
      | Parallaft.Exec_point.Reached pt ->
        reached := pt :: !reached;
        Parallaft.Exec_point.next_target replay;
        if not (Parallaft.Exec_point.finished replay) then go ()
      | Parallaft.Exec_point.Keep_running -> go ()
    in
    match res.Machine.Cpu.stop with
    | Machine.Cpu.Counter_overflow_stop ->
      handle (Parallaft.Exec_point.on_branch_overflow replay)
    | Machine.Cpu.Breakpoint_stop ->
      handle (Parallaft.Exec_point.on_breakpoint replay)
    | Machine.Cpu.Halted -> ()
    | _ -> Alcotest.fail "unexpected stop during replay"
  in
  go ();
  List.rev !reached

let test_replay_single_target () =
  let cpu = make_cpu loop_src in
  let target = { Parallaft.Exec_point.branches = 5000; pc = 2 } in
  let replay = Parallaft.Exec_point.start_replay ~targets:[ target ] ~cpu in
  let reached = drive cpu replay in
  Alcotest.(check int) "one point" 1 (List.length reached);
  Alcotest.(check int) "exact branch count" 5000 (Machine.Cpu.branches cpu);
  Alcotest.(check int) "exact pc" 2 (Machine.Cpu.get_pc cpu)

let test_replay_multiple_targets () =
  let cpu = make_cpu loop_src in
  let targets =
    List.map
      (fun b -> { Parallaft.Exec_point.branches = b; pc = 2 })
      [ 100; 2500; 7000 ]
  in
  let replay = Parallaft.Exec_point.start_replay ~targets ~cpu in
  let reached = drive cpu replay in
  Alcotest.(check int) "three points" 3 (List.length reached);
  Alcotest.(check bool) "finished" true (Parallaft.Exec_point.finished replay)

let test_replay_short_distance_skips_counter () =
  (* A target closer than the skid margin must still be hit exactly. *)
  let cpu = make_cpu loop_src in
  let target = { Parallaft.Exec_point.branches = 2; pc = 2 } in
  let replay = Parallaft.Exec_point.start_replay ~targets:[ target ] ~cpu in
  let reached = drive cpu replay in
  Alcotest.(check int) "one point" 1 (List.length reached);
  Alcotest.(check int) "branches" 2 (Machine.Cpu.branches cpu)

let test_replay_exact_across_seeds () =
  (* Skid is random; the stop point must not be. *)
  for seed = 1 to 15 do
    let cpu = make_cpu ~seed:(Int64.of_int seed) loop_src in
    let target = { Parallaft.Exec_point.branches = 1234; pc = 2 } in
    let replay = Parallaft.Exec_point.start_replay ~targets:[ target ] ~cpu in
    ignore (drive cpu replay);
    Alcotest.(check int)
      (Printf.sprintf "seed %d stops exactly" seed)
      1234 (Machine.Cpu.branches cpu)
  done

let qcheck_replay_lands_exactly =
  QCheck.Test.make
    ~name:"replay lands exactly on (pc, branches) under random skid" ~count:60
    QCheck.(pair (1 -- 4000) (1 -- 10_000))
    (fun (target, seed) ->
      let cpu = make_cpu ~seed:(Int64.of_int seed) loop_src in
      let point = { Parallaft.Exec_point.branches = target; pc = 2 } in
      let replay = Parallaft.Exec_point.start_replay ~targets:[ point ] ~cpu in
      let reached = drive cpu replay in
      List.length reached = 1
      && Machine.Cpu.branches cpu = target
      && Machine.Cpu.get_pc cpu = 2)

let test_margin_zero_overruns () =
  (* DESIGN.md §5 decisions 1-2: the branch counter must be armed a full
     skid margin early, because the overflow interrupt only ever lands
     late. Arming at the target itself (margin 0) overruns the execution
     point whenever the hardware draws nonzero skid — the checker sails
     past and can never be walked back. *)
  let target = 1000 in
  let overruns = ref 0 in
  for seed = 1 to 12 do
    let cpu = make_cpu ~seed:(Int64.of_int seed) loop_src in
    Machine.Cpu.arm_branch_overflow cpu ~target;
    let res = Machine.Cpu.run cpu ~env:null_env ~max_cycles:10_000_000 in
    (match res.Machine.Cpu.stop with
    | Machine.Cpu.Counter_overflow_stop -> ()
    | _ -> Alcotest.fail "expected counter overflow");
    let b = Machine.Cpu.branches cpu in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d stops at or after the target" seed)
      true (b >= target);
    if b > target then incr overruns
  done;
  Alcotest.(check bool) "nonzero skid draws overrun the target" true
    (!overruns > 0)

let test_replay_rejects_unsorted () =
  let cpu = make_cpu loop_src in
  try
    ignore
      (Parallaft.Exec_point.start_replay
         ~targets:
           [
             { Parallaft.Exec_point.branches = 50; pc = 2 };
             { Parallaft.Exec_point.branches = 10; pc = 2 };
           ]
         ~cpu);
    Alcotest.fail "unsorted targets accepted"
  with Invalid_argument _ -> ()

let test_rr_log_order_and_cursor () =
  let log = Parallaft.Rr_log.create () in
  let sys result =
    Seglog.Record.Sys
      { call = Sim_os.Syscall.Getpid; in_data = None; result; effects = [] }
  in
  Parallaft.Rr_log.record log (sys 1);
  Parallaft.Rr_log.record log
    (Seglog.Record.Ext_signal
       { at = { Parallaft.Exec_point.branches = 3; pc = 0 }; signum = 10 });
  Parallaft.Rr_log.record log (sys 2);
  Alcotest.(check int) "length counts all events" 3 (Parallaft.Rr_log.length log);
  Alcotest.(check int) "one signal point" 1
    (List.length (Parallaft.Rr_log.signal_points log));
  let c = Parallaft.Rr_log.cursor log in
  (match Parallaft.Rr_log.next_interaction c with
  | Some (Seglog.Record.Sys { result = 1; _ }) -> ()
  | _ -> Alcotest.fail "first interaction wrong");
  (* Signals are skipped by the interaction cursor. *)
  (match Parallaft.Rr_log.next_interaction c with
  | Some (Seglog.Record.Sys { result = 2; _ }) -> ()
  | _ -> Alcotest.fail "second interaction wrong");
  Alcotest.(check bool) "exhausted" true (Parallaft.Rr_log.next_interaction c = None)

let test_rr_log_grows_under_cursor () =
  (* RAFT streaming: a cursor must see events appended after creation. *)
  let log = Parallaft.Rr_log.create () in
  let c = Parallaft.Rr_log.cursor log in
  Alcotest.(check bool) "empty at first" true
    (Parallaft.Rr_log.next_interaction c = None);
  Parallaft.Rr_log.record log
    (Seglog.Record.Nondet { insn = Isa.Insn.Rdtsc 1; value = 42 });
  match Parallaft.Rr_log.next_interaction c with
  | Some (Seglog.Record.Nondet { value = 42; _ }) -> ()
  | _ -> Alcotest.fail "appended event not visible"

let identical_cpus () =
  let src = ".zero 0x1000 8192\nli r1, 7\nli r2, 0x1000\nstore r1, r2, 0\nhalt" in
  let a = make_cpu src and b = make_cpu src in
  ignore (Machine.Cpu.run a ~env:null_env ~max_cycles:1_000_000);
  ignore (Machine.Cpu.run b ~env:null_env ~max_cycles:1_000_000);
  (a, b)

let compare_states ~reference ~candidate dirty =
  fst (Parallaft.Comparator.compare_states ~reference ~candidate ~dirty_vpns:dirty)

let test_comparator_match () =
  let a, b = identical_cpus () in
  match compare_states ~reference:a ~candidate:b [| 1; 2 |] with
  | Parallaft.Comparator.Match -> ()
  | Parallaft.Comparator.Mismatch m ->
    Alcotest.failf "spurious mismatch: %s" (Parallaft.Detection.mismatch_to_string m)

let test_comparator_register_mismatch () =
  let a, b = identical_cpus () in
  Machine.Cpu.set_reg b 1 999;
  match compare_states ~reference:a ~candidate:b [||] with
  | Parallaft.Comparator.Mismatch (Parallaft.Detection.Register_mismatch { reg = 1; _ })
    ->
    ()
  | _ -> Alcotest.fail "register corruption missed"

let test_comparator_memory_mismatch () =
  let a, b = identical_cpus () in
  Mem.Address_space.store64 (Machine.Cpu.aspace b) 0x1008 31337;
  (* Register state is identical; only memory differs, and only if the
     dirty set covers the corrupted page. *)
  (match compare_states ~reference:a ~candidate:b [| 1 |] with
  | Parallaft.Comparator.Mismatch (Parallaft.Detection.Memory_mismatch _) -> ()
  | _ -> Alcotest.fail "memory corruption missed");
  match compare_states ~reference:a ~candidate:b [| 2 |] with
  | Parallaft.Comparator.Match -> () (* page 2 is untouched on both sides *)
  | _ -> Alcotest.fail "clean page mismatched"

let test_comparator_layout_mismatch () =
  let a, b = identical_cpus () in
  Mem.Address_space.map_range (Machine.Cpu.aspace b) ~addr:0x100000 ~len:page_size
    Mem.Page_table.Read_write;
  let vpn = 0x100000 / page_size in
  match compare_states ~reference:a ~candidate:b [| vpn |] with
  | Parallaft.Comparator.Mismatch (Parallaft.Detection.Layout_mismatch _) -> ()
  | _ -> Alcotest.fail "layout divergence missed"

let test_comparator_pc_mismatch () =
  let a, b = identical_cpus () in
  Machine.Cpu.set_pc b 0;
  match compare_states ~reference:a ~candidate:b [||] with
  | Parallaft.Comparator.Mismatch (Parallaft.Detection.Register_mismatch { reg = -1; _ })
    ->
    ()
  | _ -> Alcotest.fail "pc divergence missed"

let test_union_sorted () =
  Alcotest.(check (array int)) "merge" [| 1; 2; 3; 4; 5 |]
    (Parallaft.Comparator.union_sorted [| 1; 3; 5 |] [| 2; 3; 4 |]);
  Alcotest.(check (array int)) "left empty" [| 1 |]
    (Parallaft.Comparator.union_sorted [||] [| 1 |]);
  Alcotest.(check (array int)) "both empty" [||]
    (Parallaft.Comparator.union_sorted [||] [||])

let qcheck_union_sorted_is_set_union =
  QCheck.Test.make ~name:"union_sorted = sorted set union" ~count:300
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (a, b) ->
      let sa = Array.of_list (List.sort_uniq compare a) in
      let sb = Array.of_list (List.sort_uniq compare b) in
      Parallaft.Comparator.union_sorted sa sb
      = Array.of_list (List.sort_uniq compare (a @ b)))

(* Reference/candidate CPUs over a freshly forked pair of address
   spaces: [pages] (default 8) COW-shared data pages at 0x100000, each
   seeded with a distinct value. Writes then exercise both COW (first
   touch of a shared page) and in-place stores (later touches). *)
let data_base = 0x100000
let data_pages = 8
let data_vpn i = (data_base / page_size) + i

let forked_cpu_pair ?(pages = data_pages) () =
  let program = Isa.Asm.assemble_exn "halt" in
  let alloc = Mem.Frame.allocator ~page_size in
  let ref_as = Mem.Address_space.create alloc in
  List.iter
    (fun { Isa.Program.base; bytes } ->
      Mem.Address_space.write_bytes_map ref_as ~addr:base bytes)
    program.Isa.Program.data;
  Mem.Address_space.map_range ref_as ~addr:data_base
    ~len:(pages * page_size) Mem.Page_table.Read_write;
  for i = 0 to pages - 1 do
    Mem.Address_space.store64 ref_as (data_base + (i * page_size)) (1000 + i)
  done;
  let cand_as = Mem.Address_space.fork ref_as in
  let a =
    Machine.Cpu.create ~rng:(Util.Rng.create ~seed:1L) ~program ~aspace:ref_as ()
  in
  let b =
    Machine.Cpu.create ~rng:(Util.Rng.create ~seed:1L) ~program ~aspace:cand_as ()
  in
  (a, b)

let all_data_vpns = Array.init data_pages data_vpn

(* The host skips a vpn whose two sides map one frame, but the modelled
   runtime sees no frames: every compared vpn is charged a page hash on
   each side, skipped or not. *)
let test_comparator_identity_short_circuit () =
  let a, b = forked_cpu_pair () in
  let verdict, cs =
    Parallaft.Comparator.compare_states ~reference:a ~candidate:b
      ~dirty_vpns:all_data_vpns
  in
  (match verdict with
  | Parallaft.Comparator.Match -> ()
  | _ -> Alcotest.fail "identical fork mismatched");
  Alcotest.(check int) "every shared page skipped" data_pages
    cs.Parallaft.Comparator.pages_skipped_identical;
  Alcotest.(check int) "every page hashed on both sides" (2 * data_pages * page_size)
    cs.Parallaft.Comparator.bytes_hashed;
  (* Diverge one page: the host reads only that vpn's two sides. *)
  Mem.Address_space.store64 (Machine.Cpu.aspace b) data_base 9999;
  let verdict, cs =
    Parallaft.Comparator.compare_states ~reference:a ~candidate:b
      ~dirty_vpns:all_data_vpns
  in
  (match verdict with
  | Parallaft.Comparator.Mismatch (Parallaft.Detection.Memory_mismatch _) -> ()
  | _ -> Alcotest.fail "divergence missed");
  Alcotest.(check int) "other pages still skipped" (data_pages - 1)
    cs.Parallaft.Comparator.pages_skipped_identical;
  Alcotest.(check int) "the charge does not move" (2 * data_pages * page_size)
    cs.Parallaft.Comparator.bytes_hashed;
  (* Equal-content writes on both sides COW fresh frames: identity is
     broken, so the host compares those vpns' bytes, yet they match. *)
  let pages = 256 in
  let a, b = forked_cpu_pair ~pages () in
  let vpns = Array.init pages data_vpn in
  let cow_both k =
    for i = 0 to k - 1 do
      List.iter
        (fun cpu ->
          Mem.Address_space.store64 (Machine.Cpu.aspace cpu)
            (data_base + (i * page_size))
            (5000 + i))
        [ a; b ]
    done
  in
  let check_cow label ~cowed =
    let verdict, cs =
      Parallaft.Comparator.compare_states ~reference:a ~candidate:b
        ~dirty_vpns:vpns
    in
    (match verdict with
    | Parallaft.Comparator.Match -> ()
    | _ -> Alcotest.failf "%s: equal contents mismatched" label);
    Alcotest.(check int) (label ^ ": shared pages skipped") (pages - cowed)
      cs.Parallaft.Comparator.pages_skipped_identical;
    Alcotest.(check int) (label ^ ": every page hashed on both sides")
      (2 * pages * page_size) cs.Parallaft.Comparator.bytes_hashed
  in
  cow_both 16;
  check_cow "16 of 256 COWed" ~cowed:16;
  cow_both pages;
  check_cow "all 256 COWed" ~cowed:pages

(* The segment-hash fold a hashing comparator computes: XXH64 over
   (vpn, XXH64 of the page bytes) on each side, for every compared vpn. *)
let fold_verdict ~reference ~candidate vpns =
  let pt cpu = Mem.Address_space.page_table (Machine.Cpu.aspace cpu) in
  let ref_pt = pt reference and cand_pt = pt candidate in
  let ref_state = Ftr_hash.Xxh64.init () and cand_state = Ftr_hash.Xxh64.init () in
  Array.iter
    (fun vpn ->
      List.iter
        (fun (state, pt) ->
          Ftr_hash.Xxh64.update_int64 state (Int64.of_int vpn);
          Ftr_hash.Xxh64.update_int64 state
            (Ftr_hash.Xxh64.hash (Mem.Page_table.copy_page_at pt ~vpn)))
        [ (ref_state, ref_pt); (cand_state, cand_pt) ])
    vpns;
  let expected_hash = Ftr_hash.Xxh64.digest ref_state
  and got_hash = Ftr_hash.Xxh64.digest cand_state in
  if Int64.equal expected_hash got_hash then Parallaft.Comparator.Match
  else
    Parallaft.Comparator.Mismatch
      (Parallaft.Detection.Memory_mismatch { expected_hash; got_hash })

let qcheck_verdict_matches_fold =
  (* Differential oracle for the identity skip and the chunked compare:
     after every random fork-side write (COW on a first touch, in place
     after), the comparator's verdict must equal the hash fold over
     whole pages, memory-mismatch hashes included. *)
  QCheck.Test.make ~name:"verdict = whole-page hash fold" ~count:40
    QCheck.(small_list (triple bool (0 -- (data_pages - 1)) (0 -- 100)))
    (fun ops ->
      let a, b = forked_cpu_pair () in
      let ok = ref true in
      let check_once () =
        let verdict = compare_states ~reference:a ~candidate:b all_data_vpns in
        let folded = fold_verdict ~reference:a ~candidate:b all_data_vpns in
        if verdict <> folded then ok := false
      in
      check_once ();
      List.iter
        (fun (side, page, v) ->
          let asp = Machine.Cpu.aspace (if side then a else b) in
          Mem.Address_space.store64 asp (data_base + (page * page_size)) v;
          check_once ())
        ops;
      !ok)

let test_detection_classification () =
  Alcotest.(check bool) "benign is not detected" false
    (Parallaft.Detection.is_detected Parallaft.Detection.Benign);
  Alcotest.(check bool) "timeout is detected" true
    (Parallaft.Detection.is_detected Parallaft.Detection.Timeout_detected);
  Alcotest.(check bool) "exception is detected" true
    (Parallaft.Detection.is_detected (Parallaft.Detection.Exception_detected "x"))

let test_stats_big_core_fraction () =
  let s = Parallaft.Stats.create () in
  Alcotest.(check (float 0.0)) "empty" 0.0 (Parallaft.Stats.big_core_work_fraction s);
  s.Parallaft.Stats.checker_big_ns <- 30.0;
  s.Parallaft.Stats.checker_little_ns <- 70.0;
  Alcotest.(check (float 1e-9)) "30%" 0.3 (Parallaft.Stats.big_core_work_fraction s)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "core_units"
    [
      ( "exec_point",
        [
          tc "single target" `Quick test_replay_single_target;
          tc "multiple targets" `Quick test_replay_multiple_targets;
          tc "short distance" `Quick test_replay_short_distance_skips_counter;
          tc "exact across skid seeds" `Quick test_replay_exact_across_seeds;
          tc "rejects unsorted" `Quick test_replay_rejects_unsorted;
          tc "margin 0 overruns" `Quick test_margin_zero_overruns;
          QCheck_alcotest.to_alcotest qcheck_replay_lands_exactly;
        ] );
      ( "rr_log",
        [
          tc "order and cursor" `Quick test_rr_log_order_and_cursor;
          tc "grows under cursor" `Quick test_rr_log_grows_under_cursor;
        ] );
      ( "comparator",
        [
          tc "match" `Quick test_comparator_match;
          tc "register mismatch" `Quick test_comparator_register_mismatch;
          tc "memory mismatch" `Quick test_comparator_memory_mismatch;
          tc "layout mismatch" `Quick test_comparator_layout_mismatch;
          tc "pc mismatch" `Quick test_comparator_pc_mismatch;
          tc "union_sorted" `Quick test_union_sorted;
          tc "frame-identity short circuit" `Quick
            test_comparator_identity_short_circuit;
          QCheck_alcotest.to_alcotest qcheck_union_sorted_is_set_union;
          QCheck_alcotest.to_alcotest qcheck_verdict_matches_fold;
        ] );
      ( "misc",
        [
          tc "detection classes" `Quick test_detection_classification;
          tc "stats fractions" `Quick test_stats_big_core_fraction;
        ] );
    ]
