(* Unit tests of the CPU interpreter and its monitoring hardware. *)

let page_size = 4096

let null_env =
  {
    Machine.Cpu.core_id = 0;
    read_tsc = (fun () -> 12345);
    read_rand = (fun () -> 777);
    mem_access = (fun ~frame:_ -> 0);
    mem_access_cow = (fun ~frame:_ ~old_frame:_ -> 0);
    max_access_cycles = 0;
    cow_extra_cycles = 100;
    mul_cycles = 3;
    div_cycles = 12;
  }

(* With [~cow:true] the loaded pages are shared with a forked address
   space, so the CPU's first store to each of them copies it. *)
let make_cpu ?(seed = 1L) ?block_cache ?(cow = false) src =
  let program = Isa.Asm.assemble_exn src in
  let alloc = Mem.Frame.allocator ~page_size in
  let aspace = Mem.Address_space.create alloc in
  List.iter
    (fun { Isa.Program.base; bytes } ->
      Mem.Address_space.write_bytes_map aspace ~addr:base bytes)
    program.Isa.Program.data;
  if cow then ignore (Mem.Address_space.fork aspace);
  Machine.Cpu.create ?block_cache ~rng:(Util.Rng.create ~seed) ~program ~aspace ()

let run ?(max_cycles = 1_000_000) cpu = Machine.Cpu.run cpu ~env:null_env ~max_cycles

let test_arithmetic () =
  let cpu =
    make_cpu
      {|
        li r1, 10
        li r2, 3
        add r3, r1, r2     ; 13
        sub r4, r1, r2     ; 7
        mul r5, r1, r2     ; 30
        div r6, r1, r2     ; 3
        rem r7, r1, r2     ; 1
        and r8, r1, r2     ; 2
        or r9, r1, r2      ; 11
        xor r10, r1, r2    ; 9
        shl r11, r1, 2     ; 40
        shr r12, r1, 1     ; 5
        halt
      |}
  in
  let res = run cpu in
  (match res.Machine.Cpu.stop with
  | Machine.Cpu.Halted -> ()
  | _ -> Alcotest.fail "did not halt");
  let reg = Machine.Cpu.get_reg cpu in
  List.iter
    (fun (r, expected) -> Alcotest.(check int) (Printf.sprintf "r%d" r) expected (reg r))
    [ (3, 13); (4, 7); (5, 30); (6, 3); (7, 1); (8, 2); (9, 11); (10, 9);
      (11, 40); (12, 5) ]

let test_branches_and_counter () =
  (* A loop with a known branch count: 10 iterations of bne + the final
     not-taken bne = 10 branches total (retired branches count taken and
     not-taken alike). *)
  let cpu =
    make_cpu
      {|
        li r1, 10
        li r2, 0
      loop:
        sub r1, r1, 1
        bne r1, r2, loop
        halt
      |}
  in
  ignore (run cpu);
  Alcotest.(check int) "branch counter" 10 (Machine.Cpu.branches cpu)

let test_branch_counter_deterministic () =
  let count seed =
    let cpu = make_cpu ~seed "li r1, 100\nli r2, 0\nl:\nsub r1, r1, 1\nbne r1, r2, l\nhalt" in
    ignore (run cpu);
    Machine.Cpu.branches cpu
  in
  Alcotest.(check int) "independent of noise seed" (count 1L) (count 999L)

let test_memory_roundtrip () =
  let cpu =
    make_cpu
      {|
      .zero 0x1000 4096
        li r1, 0x1000
        li r2, 424242
        store r2, r1, 16
        load r3, r1, 16
        store8 r3, r1, 100
        load8 r4, r1, 100
        halt
      |}
  in
  ignore (run cpu);
  Alcotest.(check int) "load64" 424242 (Machine.Cpu.get_reg cpu 3);
  Alcotest.(check int) "load8 truncates" (424242 land 0xFF)
    (Machine.Cpu.get_reg cpu 4)

let test_segv_reported () =
  let cpu = make_cpu "li r1, 0x800000\nload r2, r1, 0\nhalt" in
  let res = run cpu in
  match res.Machine.Cpu.stop with
  | Machine.Cpu.Fault_stop (Machine.Cpu.Segv { addr = 0x800000; write = false }) -> ()
  | _ -> Alcotest.fail "expected Segv"

let test_bad_pc_on_wild_jump () =
  let cpu = make_cpu "li r1, 99999\njr r1\nhalt" in
  let res = run cpu in
  match res.Machine.Cpu.stop with
  | Machine.Cpu.Fault_stop (Machine.Cpu.Bad_pc 99999) -> ()
  | _ -> Alcotest.fail "expected Bad_pc"

let test_syscall_stops_on_insn () =
  let cpu = make_cpu "li r0, 9\nsyscall\nhalt" in
  let res = run cpu in
  (match res.Machine.Cpu.stop with
  | Machine.Cpu.Syscall_stop -> ()
  | _ -> Alcotest.fail "expected Syscall_stop");
  Alcotest.(check int) "pc on syscall" 1 (Machine.Cpu.get_pc cpu);
  (* Completing the syscall is the tracer's job; emulate and continue. *)
  Machine.Cpu.set_reg cpu 0 42;
  Machine.Cpu.set_pc cpu 2;
  let res = run cpu in
  match res.Machine.Cpu.stop with
  | Machine.Cpu.Halted -> ()
  | _ -> Alcotest.fail "expected halt after resume"

let test_nondet_untrapped_executes () =
  let cpu = make_cpu "rdtsc r1\nrdcoreid r2\nrdrand r3\nhalt" in
  ignore (run cpu);
  Alcotest.(check int) "tsc from env" 12345 (Machine.Cpu.get_reg cpu 1);
  Alcotest.(check int) "coreid from env" 0 (Machine.Cpu.get_reg cpu 2);
  Alcotest.(check int) "rand from env" 777 (Machine.Cpu.get_reg cpu 3)

let test_nondet_trapped () =
  let cpu = make_cpu "rdtsc r1\nhalt" in
  Machine.Cpu.set_nondet_trap cpu true;
  let res = run cpu in
  (match res.Machine.Cpu.stop with
  | Machine.Cpu.Nondet_stop (Isa.Insn.Rdtsc 1) -> ()
  | _ -> Alcotest.fail "expected Nondet_stop");
  (* Tracer emulates. *)
  Machine.Cpu.set_reg cpu 1 555;
  Machine.Cpu.set_pc cpu 1;
  let res = run cpu in
  (match res.Machine.Cpu.stop with
  | Machine.Cpu.Halted -> ()
  | _ -> Alcotest.fail "expected halt");
  Alcotest.(check int) "emulated value survives" 555 (Machine.Cpu.get_reg cpu 1)

let test_breakpoint () =
  let cpu = make_cpu "li r1, 1\nli r2, 2\nli r3, 3\nhalt" in
  Machine.Cpu.set_breakpoint cpu 2;
  let res = run cpu in
  (match res.Machine.Cpu.stop with
  | Machine.Cpu.Breakpoint_stop -> ()
  | _ -> Alcotest.fail "expected Breakpoint_stop");
  Alcotest.(check int) "pc at bp" 2 (Machine.Cpu.get_pc cpu);
  Alcotest.(check int) "r3 not yet written" 0 (Machine.Cpu.get_reg cpu 3);
  (* Resume without clearing: must not re-trap on the same spot. *)
  let res = run cpu in
  (match res.Machine.Cpu.stop with
  | Machine.Cpu.Halted -> ()
  | _ -> Alcotest.fail "expected halt");
  Alcotest.(check int) "r3 written after resume" 3 (Machine.Cpu.get_reg cpu 3)

let test_breakpoint_in_loop_retraps () =
  let cpu =
    make_cpu "li r1, 3\nli r2, 0\nloop:\nsub r1, r1, 1\nbne r1, r2, loop\nhalt"
  in
  Machine.Cpu.set_breakpoint cpu 2;
  let hits = ref 0 in
  let rec go () =
    let res = run cpu in
    match res.Machine.Cpu.stop with
    | Machine.Cpu.Breakpoint_stop ->
      incr hits;
      go ()
    | Machine.Cpu.Halted -> ()
    | _ -> Alcotest.fail "unexpected stop"
  in
  go ();
  Alcotest.(check int) "hit once per iteration" 3 !hits

let test_branch_overflow_with_skid () =
  (* The overflow must arrive at or after the target (never before) and
     within max_skid branches of it. *)
  let src = "li r1, 1000\nli r2, 0\nl:\nsub r1, r1, 1\nbne r1, r2, l\nhalt" in
  for seed = 1 to 20 do
    let cpu = make_cpu ~seed:(Int64.of_int seed) src in
    Machine.Cpu.arm_branch_overflow cpu ~target:100;
    let res = run cpu in
    (match res.Machine.Cpu.stop with
    | Machine.Cpu.Counter_overflow_stop -> ()
    | _ -> Alcotest.fail "expected overflow");
    let b = Machine.Cpu.branches cpu in
    if b < 100 || b > 100 + Machine.Cpu.max_skid cpu then
      Alcotest.failf "overflow at %d branches (target 100, max skid %d)" b
        (Machine.Cpu.max_skid cpu)
  done

let test_cycle_overflow () =
  let cpu = make_cpu "li r1, 100000\nli r2, 0\nl:\nsub r1, r1, 1\nbne r1, r2, l\nhalt" in
  Machine.Cpu.arm_cycle_overflow cpu ~target:5000;
  let res = run cpu in
  (match res.Machine.Cpu.stop with
  | Machine.Cpu.Cycle_overflow_stop -> ()
  | _ -> Alcotest.fail "expected cycle overflow");
  Alcotest.(check bool) "at/after target" true (Machine.Cpu.cycles cpu >= 5000)

let test_insn_overflow () =
  let cpu = make_cpu "li r1, 100000\nli r2, 0\nl:\nsub r1, r1, 1\nbne r1, r2, l\nhalt" in
  Machine.Cpu.arm_insn_overflow cpu ~target:1000;
  let res = run cpu in
  (match res.Machine.Cpu.stop with
  | Machine.Cpu.Insn_overflow_stop -> ()
  | _ -> Alcotest.fail "expected insn overflow");
  Alcotest.(check bool) "at/after target" true
    (Machine.Cpu.instructions cpu >= 1000)

let test_insn_counter_overcounts_on_traps () =
  (* Two CPUs running the same program with syscall traps but different
     noise seeds disagree on the instruction counter — the nondeterminism
     that rules instruction counts out for execution-point replay. *)
  let src =
    "li r5, 50\nli r6, 0\nl:\nli r0, 9\nsyscall\nsub r5, r5, 1\nbne r5, r6, l\nhalt"
  in
  let final_count seed =
    let cpu = make_cpu ~seed src in
    let rec go () =
      let res = run cpu in
      match res.Machine.Cpu.stop with
      | Machine.Cpu.Syscall_stop ->
        Machine.Cpu.set_reg cpu 0 0;
        Machine.Cpu.set_pc cpu (Machine.Cpu.get_pc cpu + 1);
        go ()
      | Machine.Cpu.Halted -> Machine.Cpu.instructions cpu
      | _ -> Alcotest.fail "unexpected stop"
    in
    go ()
  in
  let counts = List.init 8 (fun i -> final_count (Int64.of_int (i + 1))) in
  let distinct = List.sort_uniq compare counts in
  Alcotest.(check bool)
    (Printf.sprintf "counts vary across seeds (%d distinct)" (List.length distinct))
    true
    (List.length distinct > 1)

let test_fork_copies_arch_state () =
  let cpu = make_cpu "li r1, 7\nli r2, 9\nhalt" in
  ignore (run cpu);
  let alloc = Mem.Frame.allocator ~page_size in
  let aspace2 = Mem.Address_space.create alloc in
  let child =
    Machine.Cpu.fork cpu ~rng:(Util.Rng.create ~seed:5L) ~aspace:aspace2
  in
  Alcotest.(check int) "regs copied" 7 (Machine.Cpu.get_reg child 1);
  Alcotest.(check int) "pc copied" (Machine.Cpu.get_pc cpu) (Machine.Cpu.get_pc child);
  Alcotest.(check int) "counters reset" 0 (Machine.Cpu.branches child)

let test_fault_injection_flips_bit () =
  let cpu = make_cpu "li r1, 0\nnop\nnop\nnop\nhalt" in
  Machine.Cpu.arm_fault_injection cpu ~after_instructions:2 ~reg:1 ~bit:4;
  ignore (run cpu);
  Alcotest.(check bool) "injected" true (Machine.Cpu.fault_injected cpu);
  Alcotest.(check int) "bit 4 flipped" 16 (Machine.Cpu.get_reg cpu 1)

let test_fault_injection_validation () =
  let cpu = make_cpu "halt" in
  (try
     Machine.Cpu.arm_fault_injection cpu ~after_instructions:0 ~reg:99 ~bit:0;
     Alcotest.fail "bad reg accepted"
   with Invalid_argument _ -> ());
  (* Bit 63 is legal (a real ECC model covers all 64 lines); on register
     targets it is a masked no-op because OCaml ints carry 63 bits. *)
  Machine.Cpu.arm_fault_injection cpu ~after_instructions:0 ~reg:0 ~bit:63;
  try
    Machine.Cpu.arm_fault_injection cpu ~after_instructions:0 ~reg:0 ~bit:64;
    Alcotest.fail "bad bit accepted"
  with Invalid_argument _ -> ()

let test_cow_cycles_counted_as_sys () =
  let alloc = Mem.Frame.allocator ~page_size in
  let aspace = Mem.Address_space.create alloc in
  Mem.Address_space.map_range aspace ~addr:0 ~len:page_size
    Mem.Page_table.Read_write;
  let program =
    Isa.Asm.assemble_exn "li r1, 0\nli r2, 5\nstore r2, r1, 0\nhalt"
  in
  let cpu =
    Machine.Cpu.create ~rng:(Util.Rng.create ~seed:1L) ~program ~aspace ()
  in
  (* Fork so the store COWs. *)
  let _child = Mem.Address_space.fork aspace in
  let res = run cpu in
  ignore res;
  Alcotest.(check bool) "sys cycles charged" true
    (Machine.Cpu.sys_cycles_total cpu >= 100)

(* --- decoded-block cache ------------------------------------------- *)

(* The cache must be architecturally invisible: a cached CPU and an
   uncached CPU driven identically must agree on every observable at
   every stop. The harness below runs random programs under random stop
   causes and compares the full observable state stop by stop. *)

(* The harness's data: four pages, every one reachable from the r7 base. *)
let bc_data_words = 4 * page_size / 8

(* Costs a wrong block cost summary would show: an access costs 0, 5 or
   40 cycles by frame, a COW store 9 on top of the kernel's copy, and
   [max_access_cycles] is the largest of them. The cached path skips its
   per-instruction cycle test for a block it bounds short of the cap, so
   an understated bound runs a block past a budget stop. *)
let bc_env =
  {
    null_env with
    Machine.Cpu.mem_access =
      (fun ~frame ->
        match frame mod 3 with 0 -> 0 | 1 -> 5 | _ -> 40);
    mem_access_cow = (fun ~frame:_ ~old_frame:_ -> 9);
    max_access_cycles = 40;
  }

(* Everything a tracer (or the fault-tolerance runtime) can see. *)
type bc_obs = {
  o_stop : Machine.Cpu.stop_reason;
  o_pc : int;
  o_regs : int list;
  o_insns : int;
  o_branches : int;
  o_cycles : int;
  o_sys : int;
  o_retired : int;
  o_blocks : int;
  o_injected : bool;
  o_mem : int list;
}

let bc_observe cpu (res : Machine.Cpu.run_result) =
  {
    o_stop = res.Machine.Cpu.stop;
    o_pc = Machine.Cpu.get_pc cpu;
    o_regs = List.init 16 (Machine.Cpu.get_reg cpu);
    o_insns = Machine.Cpu.instructions cpu;
    o_branches = Machine.Cpu.branches cpu;
    o_cycles = Machine.Cpu.cycles cpu;
    o_sys = Machine.Cpu.sys_cycles_total cpu;
    o_retired = res.Machine.Cpu.insns_retired;
    o_blocks = res.Machine.Cpu.blocks_retired;
    o_injected = Machine.Cpu.fault_injected cpu;
    o_mem =
      List.init bc_data_words (fun i ->
          Mem.Address_space.load64 (Machine.Cpu.aspace cpu) (i * 8));
  }

type bc_scenario =
  | S_plain
  | S_breakpoint of int  (* pc *)
  | S_overflow of int  (* branch-counter target, with skid *)
  | S_nondet  (* trap rdtsc/rdrand/rdcoreid *)
  | S_budget of int  (* small per-run cycle budget: the budget edge *)
  | S_inject of int * int * int  (* after_instructions, reg, bit *)

let bc_scenario_str = function
  | S_plain -> "plain"
  | S_breakpoint pc -> Printf.sprintf "breakpoint@%d" pc
  | S_overflow t -> Printf.sprintf "overflow@%d" t
  | S_nondet -> "nondet-trap"
  | S_budget c -> Printf.sprintf "budget=%d" c
  | S_inject (a, r, b) -> Printf.sprintf "inject@%d r%d bit%d" a r b

(* Drive one CPU to up to [max_stops] stops, emulating traps the way the
   engine's tracer does (syscall and nondet results are functions of the
   stop index only, so both CPUs of a pair see identical injections). *)
let bc_drive cpu ~scenario ~n_insns =
  (match scenario with
  | S_plain | S_budget _ -> ()
  | S_breakpoint pc -> Machine.Cpu.set_breakpoint cpu pc
  | S_overflow target -> Machine.Cpu.arm_branch_overflow cpu ~target
  | S_nondet -> Machine.Cpu.set_nondet_trap cpu true
  | S_inject (after_instructions, reg, bit) ->
    Machine.Cpu.arm_fault_injection cpu ~after_instructions ~reg ~bit);
  ignore n_insns;
  let max_cycles =
    match scenario with S_budget c -> c | _ -> 3_000
  in
  let max_stops = 10 in
  let rec go k acc =
    if k >= max_stops then List.rev acc
    else
      let res = Machine.Cpu.run cpu ~env:bc_env ~max_cycles in
      let obs = bc_observe cpu res in
      let acc = obs :: acc in
      match res.Machine.Cpu.stop with
      | Machine.Cpu.Halted | Machine.Cpu.Fault_stop _ -> List.rev acc
      | Machine.Cpu.Syscall_stop ->
        Machine.Cpu.set_reg cpu 0 (700 + k);
        Machine.Cpu.set_pc cpu (Machine.Cpu.get_pc cpu + 1);
        go (k + 1) acc
      | Machine.Cpu.Nondet_stop insn ->
        (match insn with
        | Isa.Insn.Rdtsc r | Isa.Insn.Rdcoreid r | Isa.Insn.Rdrand r ->
          Machine.Cpu.set_reg cpu r (9_000 + k)
        | _ -> ());
        Machine.Cpu.set_pc cpu (Machine.Cpu.get_pc cpu + 1);
        go (k + 1) acc
      | Machine.Cpu.Breakpoint_stop | Machine.Cpu.Counter_overflow_stop
      | Machine.Cpu.Cycle_overflow_stop | Machine.Cpu.Insn_overflow_stop
      | Machine.Cpu.Budget_exhausted ->
        go (k + 1) acc
  in
  go 0 []

(* Random straight-line instructions. r7 is pinned to 0 as the only
   load/store base and generated writes stay in r1..r6, so data traffic
   is confined to the mapped pages; ALU operands come from r0..r6, so a
   divisor is zero only if a register is. The two fused patterns
   (load + ALU on the loaded register, sub + branch on the decremented
   one) are generated on purpose as well as by chance. *)
let bc_straight =
  let open QCheck.Gen in
  let rw = int_range 1 6 in
  let rr = int_range 0 7 in
  let ra = int_range 0 6 in
  let off = map (fun i -> i * 8) (int_range 0 (bc_data_words - 1)) in
  let alu2 =
    oneofl [ "add"; "sub"; "mul"; "div"; "rem"; "and"; "or"; "xor" ]
  in
  let alui = oneofl [ "add"; "sub"; "shl"; "shr" ] in
  frequency
    [
      ( 6,
        map3
          (fun op d (a, b) -> Printf.sprintf "%s r%d, r%d, r%d" op d a b)
          alu2 rw (pair ra ra) );
      ( 4,
        map3
          (fun op d (a, i) -> Printf.sprintf "%s r%d, r%d, %d" op d a i)
          alui rw
          (pair ra (int_range 0 7)) );
      (3, map2 (fun d i -> Printf.sprintf "li r%d, %d" d i) rw (int_range (-1000) 1000));
      (2, map2 (fun d s -> Printf.sprintf "mov r%d, r%d" d s) rw rr);
      (3, map2 (fun d o -> Printf.sprintf "load r%d, r7, %d" d o) rw off);
      (3, map2 (fun s o -> Printf.sprintf "store r%d, r7, %d" s o) rr off);
      (1, map2 (fun d o -> Printf.sprintf "load8 r%d, r7, %d" d o) rw off);
      (1, map2 (fun s o -> Printf.sprintf "store8 r%d, r7, %d" s o) rr off);
      ( 1,
        map3
          (fun (l, o) op (d, a) ->
            Printf.sprintf "load r%d, r7, %d\n%s r%d, r%d, r%d" l o op d a l)
          (pair rw off) alu2 (pair rw ra) );
      (1, map (Printf.sprintf "rdtsc r%d") rw);
      (1, map (Printf.sprintf "rdrand r%d") rw);
      (1, map (Printf.sprintf "rdcoreid r%d") rw);
      (1, return "nop");
    ]

(* A control transfer or trap site to one of [labels]. *)
let bc_control labels =
  let open QCheck.Gen in
  let rr = int_range 0 7 in
  frequency
    [
      (1, return "syscall");
      ( 4,
        map3
          (fun c (a, b) l -> Printf.sprintf "%s r%d, r%d, %s" c a b l)
          (oneofl [ "beq"; "bne"; "blt"; "bge" ])
          (pair rr rr) labels );
      ( 1,
        map3
          (fun (d, i) (c, b) l ->
            Printf.sprintf "sub r%d, r%d, %d\n%s r%d, r%d, %s" d d i c d b l)
          (pair (int_range 1 6) (int_range 0 3))
          (pair (oneofl [ "bne"; "blt"; "bge" ]) rr)
          labels );
      (1, map (Printf.sprintf "jmp %s") labels);
    ]

(* Random program: every instruction is labelled so branches and jumps
   can target any of them; div-by-zero, infinite loops and mid-run traps
   are stop causes the harness compares, not generator bugs. *)
let bc_gen_case =
  let open QCheck.Gen in
  let n = 24 in
  let lab = map (Printf.sprintf "i%d") (int_range 0 (n - 1)) in
  let insn = frequency [ (27, bc_straight); (7, bc_control lab) ] in
  let scenario =
    frequency
      [
        (2, return S_plain);
        (2, map (fun pc -> S_breakpoint pc) (int_range 0 n));
        (2, map (fun t -> S_overflow t) (int_range 1 30));
        (2, return S_nondet);
        (2, map (fun c -> S_budget c) (int_range 50 1500));
        ( 2,
          map3
            (fun a r b -> S_inject (a, r, b))
            (int_range 0 300) (int_range 1 6) (int_range 0 62) );
      ]
  in
  let* body = list_repeat n insn in
  let* scen = scenario in
  let* seed = int_range 1 1_000_000 in
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf ".zero 0x0 %d\n" (bc_data_words * 8));
  Buffer.add_string b "li r7, 0\n";
  List.iteri
    (fun i s -> Buffer.add_string b (Printf.sprintf "i%d:\n%s\n" i s))
    body;
  Buffer.add_string b "halt\n";
  return (Buffer.contents b, scen, Int64.of_int seed, n)

let bc_case_print (src, scen, seed, _) =
  Printf.sprintf "seed=%Ld scenario=%s\n%s" seed (bc_scenario_str scen) src

let qcheck_block_cache_differential =
  QCheck.Test.make ~name:"block cache is architecturally invisible" ~count:300
    (QCheck.make ~print:bc_case_print bc_gen_case)
    (fun (src, scenario, seed, n_insns) ->
      let cached = make_cpu ~seed ~block_cache:64 ~cow:true src in
      let uncached = make_cpu ~seed ~block_cache:0 ~cow:true src in
      let a = bc_drive cached ~scenario ~n_insns in
      let b = bc_drive uncached ~scenario ~n_insns in
      if a <> b then
        QCheck.Test.fail_reportf "diverged after %d vs %d stops"
          (List.length a) (List.length b)
      else true)

(* Deliberately tiny cache: random programs with 25 blocks against 64
   slots plus a 4-slot variant exercise eviction and re-admission too. *)
let qcheck_block_cache_differential_tiny =
  QCheck.Test.make ~name:"block cache invisible under eviction pressure"
    ~count:120
    (QCheck.make ~print:bc_case_print bc_gen_case)
    (fun (src, scenario, seed, n_insns) ->
      let cached = make_cpu ~seed ~block_cache:4 ~cow:true src in
      let uncached = make_cpu ~seed ~block_cache:0 ~cow:true src in
      bc_drive cached ~scenario ~n_insns = bc_drive uncached ~scenario ~n_insns)

(* The bound the cached path trusts must be exact where it is tight:
   with every access at [max_access_cycles] and no kernel copy cost, a
   decoded block that runs to its terminator under the plain
   interpreter charges exactly [Cpu.block_cycle_bound]. One cycle short
   would let a block run past a budget that lands on its last
   instruction. *)
let max_cost_env =
  let worst = bc_env.Machine.Cpu.max_access_cycles in
  {
    bc_env with
    Machine.Cpu.mem_access = (fun ~frame:_ -> worst);
    mem_access_cow = (fun ~frame:_ ~old_frame:_ -> worst);
    cow_extra_cycles = 0;
  }

(* A block's worth of straight-line code (past the 64-op cap at times)
   and one control transfer, run with r0..r6 and every data byte
   nonzero so that most divisions have a divisor. *)
let bound_gen_case =
  let open QCheck.Gen in
  let* len = int_range 0 70 in
  let* body = list_repeat len bc_straight in
  let* term = oneof [ bc_control (return "top"); return "halt" ] in
  let* regs = list_repeat 7 (int_range 1 1000) in
  let src =
    Printf.sprintf ".zero 0x0 %d\ntop:\n%s\n%s\nhalt\n" (bc_data_words * 8)
      (String.concat "\n" body) term
  in
  return (src, regs)

let qcheck_block_bound_exact =
  QCheck.Test.make ~name:"block bound = cycles at max access cost" ~count:300
    (QCheck.make ~print:fst bound_gen_case)
    (fun (src, regs) ->
      let cpu = make_cpu ~block_cache:0 src in
      let aspace = Machine.Cpu.aspace cpu in
      ignore
        (Mem.Address_space.write_bytes aspace ~addr:0
           (Bytes.make (bc_data_words * 8) '\x11'));
      ignore (Mem.Address_space.fork aspace);
      List.iteri (Machine.Cpu.set_reg cpu) regs;
      let code = (Machine.Cpu.program cpu).Isa.Program.code in
      let blk = Isa.Decoded.decode_block ~code ~nondet_trap:false ~entry:0 in
      Machine.Cpu.arm_insn_overflow cpu ~target:blk.Isa.Decoded.n_insns;
      let res = Machine.Cpu.run cpu ~env:max_cost_env ~max_cycles:max_int in
      let charged = res.Machine.Cpu.user_cycles + res.Machine.Cpu.sys_cycles in
      match res.Machine.Cpu.stop with
      | Machine.Cpu.Fault_stop _ -> true (* stopped before its terminator *)
      | _ ->
        let bound = Machine.Cpu.block_cycle_bound max_cost_env blk in
        charged = bound
        || QCheck.Test.fail_reportf "charged %d cycles, bound %d" charged
             bound)

(* A capacity past the FIFO's 16-bit limit clamps to it: a program
   longer than the limit still gets a cache, which holds and finds
   blocks at entry pcs on both sides of 0xFFFF. *)
let test_block_cache_capacity_clamped () =
  let code_len = 100_000 in
  let code = Array.make code_len Isa.Insn.Nop in
  code.(code_len - 1) <- Isa.Insn.Halt;
  let bc = Machine.Block_cache.create ~capacity:100_000 ~code_len in
  let gens = Array.make (Isa.Decoded.n_code_pages ~code_len) 0 in
  let entries = [ 0; 65_534; 65_535; 70_000; code_len - 1 ] in
  List.iter
    (fun entry ->
      Machine.Block_cache.admit bc ~gens
        (Isa.Decoded.decode_block ~code ~nondet_trap:false ~entry))
    entries;
  List.iter
    (fun entry ->
      match Machine.Block_cache.lookup bc ~gens ~nondet_trap:false ~entry with
      | Some b -> Alcotest.(check int) "found its block" entry b.Isa.Decoded.entry
      | None -> Alcotest.failf "block at %d not resident" entry)
    entries;
  Alcotest.(check int) "every lookup hit" (List.length entries)
    (Machine.Block_cache.hits bc)

let test_block_cache_hits_and_stats () =
  let src = "li r1, 50\nli r2, 0\nl:\nsub r1, r1, 1\nbne r1, r2, l\nhalt" in
  let cpu = make_cpu src in
  Alcotest.(check bool) "enabled by default" true
    (Machine.Cpu.block_cache_enabled cpu);
  let res = run cpu in
  (match res.Machine.Cpu.stop with
  | Machine.Cpu.Halted -> ()
  | _ -> Alcotest.fail "expected halt");
  let hits, misses, _ = Machine.Cpu.block_cache_stats cpu in
  Alcotest.(check bool) "hot loop hits the cache" true (hits > 0);
  Alcotest.(check bool) "cold blocks missed first" true (misses > 0);
  Alcotest.(check bool) "decoded blocks reported" true
    (res.Machine.Cpu.blocks_decoded > 0);
  let off = make_cpu ~block_cache:0 src in
  Alcotest.(check bool) "disabled when capacity 0" false
    (Machine.Cpu.block_cache_enabled off);
  ignore (run off);
  Alcotest.(check (triple int int int)) "no stats when disabled" (0, 0, 0)
    (Machine.Cpu.block_cache_stats off);
  (* A hot load -> add -> store loop halts with the cache on and off. *)
  let mem_loop =
    ".zero 0x0 4096\nli r1, 2000\nli r2, 0\nli r3, 0\nl:\nload r4, r2, 8\n\
     add r4, r4, r1\nstore r4, r2, 8\nadd r3, r3, 1\nsub r1, r1, 1\n\
     bne r1, r2, l\nhalt"
  in
  List.iter
    (fun block_cache ->
      let cpu = make_cpu ~block_cache mem_loop in
      match (run cpu).Machine.Cpu.stop with
      | Machine.Cpu.Halted ->
        Alcotest.(check int) "every iteration ran" 2000 (Machine.Cpu.get_reg cpu 3)
      | _ -> Alcotest.failf "load/store loop did not halt (block cache %d)" block_cache)
    [ 4096; 0 ]

(* Self-modifying code: patching an instruction must invalidate the
   cached block spanning it, and re-execution must run the new bytes. *)
let test_patch_code_invalidates () =
  let src =
    "li r1, 5\nli r2, 0\nli r3, 0\nl:\nadd r3, r3, 1\nsub r1, r1, 1\nbne r1, r2, l\nhalt"
  in
  let cpu = make_cpu src in
  (match run cpu with
  | { Machine.Cpu.stop = Machine.Cpu.Halted; _ } -> ()
  | _ -> Alcotest.fail "expected halt");
  Alcotest.(check int) "r3 sums 1 per iteration" 5 (Machine.Cpu.get_reg cpu 3);
  let hits_before, _, _ = Machine.Cpu.block_cache_stats cpu in
  Alcotest.(check bool) "loop block was cached" true (hits_before > 0);
  (* Overwrite the add-1 with an add-10, rewind, run again: the stale
     cached block must not serve the old instruction. *)
  (match
     Machine.Cpu.patch_code cpu ~pc:3
       (Isa.Insn.Alu (Isa.Insn.Add, 3, 3, Isa.Insn.Imm 10))
   with
  | Ok () -> ()
  | Error m -> Alcotest.failf "patch_code: %s" m);
  (match Machine.Cpu.code_insn cpu 3 with
  | Some (Isa.Insn.Alu (Isa.Insn.Add, 3, 3, Isa.Insn.Imm 10)) -> ()
  | _ -> Alcotest.fail "code_insn does not reflect the patch");
  Machine.Cpu.set_pc cpu 0;
  Machine.Cpu.set_reg cpu 3 0;
  (match run cpu with
  | { Machine.Cpu.stop = Machine.Cpu.Halted; _ } -> ()
  | _ -> Alcotest.fail "expected halt after patch");
  Alcotest.(check int) "patched loop sums 10 per iteration" 50
    (Machine.Cpu.get_reg cpu 3);
  let _, _, invalidations = Machine.Cpu.block_cache_stats cpu in
  Alcotest.(check bool) "stale block invalidated" true (invalidations > 0)

let test_patch_code_validation () =
  let cpu = make_cpu "nop\nhalt" in
  (match Machine.Cpu.patch_code cpu ~pc:99 Isa.Insn.Nop with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-range pc accepted");
  match Machine.Cpu.patch_code cpu ~pc:0 (Isa.Insn.Li (99, 0)) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "malformed instruction accepted"

(* The same SMC program must behave identically cached and uncached —
   the invalidation protocol, not just the happy path, is differential. *)
let test_patch_code_differential () =
  let run_with block_cache =
    let src =
      "li r1, 5\nli r2, 0\nli r3, 0\nl:\nadd r3, r3, 1\nsub r1, r1, 1\nbne r1, r2, l\nhalt"
    in
    let cpu = make_cpu ~block_cache src in
    ignore (run cpu);
    (match
       Machine.Cpu.patch_code cpu ~pc:3
         (Isa.Insn.Alu (Isa.Insn.Add, 3, 3, Isa.Insn.Imm 7))
     with
    | Ok () -> ()
    | Error m -> Alcotest.failf "patch_code: %s" m);
    Machine.Cpu.set_pc cpu 0;
    Machine.Cpu.set_reg cpu 3 0;
    ignore (run cpu);
    ( List.init 16 (Machine.Cpu.get_reg cpu),
      Machine.Cpu.instructions cpu,
      Machine.Cpu.branches cpu,
      Machine.Cpu.cycles cpu )
  in
  Alcotest.(check bool) "cached = uncached across a patch" true
    (run_with 4096 = run_with 0)

let qcheck_register_ops =
  QCheck.Test.make ~name:"add/sub roundtrip at machine level" ~count:200
    QCheck.(pair int int)
    (fun (a, b) ->
      let src = Printf.sprintf "li r1, %d\nli r2, %d\nadd r3, r1, r2\nsub r4, r3, r2\nhalt" a b in
      let cpu = make_cpu src in
      ignore (run cpu);
      Machine.Cpu.get_reg cpu 4 = a && Machine.Cpu.get_reg cpu 3 = a + b)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "machine"
    [
      ( "exec",
        [
          tc "arithmetic" `Quick test_arithmetic;
          tc "memory roundtrip" `Quick test_memory_roundtrip;
          tc "segv" `Quick test_segv_reported;
          tc "bad pc" `Quick test_bad_pc_on_wild_jump;
          tc "syscall stop" `Quick test_syscall_stops_on_insn;
          QCheck_alcotest.to_alcotest qcheck_register_ops;
        ] );
      ( "counters",
        [
          tc "branch count exact" `Quick test_branches_and_counter;
          tc "branch counter deterministic" `Quick test_branch_counter_deterministic;
          tc "branch overflow + skid bounded" `Quick test_branch_overflow_with_skid;
          tc "cycle overflow" `Quick test_cycle_overflow;
          tc "insn overflow" `Quick test_insn_overflow;
          tc "insn counter overcounts" `Quick test_insn_counter_overcounts_on_traps;
        ] );
      ( "tracing",
        [
          tc "nondet untrapped" `Quick test_nondet_untrapped_executes;
          tc "nondet trapped" `Quick test_nondet_trapped;
          tc "breakpoint" `Quick test_breakpoint;
          tc "breakpoint re-traps in loop" `Quick test_breakpoint_in_loop_retraps;
        ] );
      ( "fork-and-faults",
        [
          tc "fork copies arch state" `Quick test_fork_copies_arch_state;
          tc "fault injection" `Quick test_fault_injection_flips_bit;
          tc "fault injection validation" `Quick test_fault_injection_validation;
          tc "cow charges sys cycles" `Quick test_cow_cycles_counted_as_sys;
        ] );
      ( "block-cache",
        [
          tc "hits, misses, decoded reported" `Quick
            test_block_cache_hits_and_stats;
          tc "capacity past the FIFO limit" `Quick
            test_block_cache_capacity_clamped;
          tc "patch_code invalidates" `Quick test_patch_code_invalidates;
          tc "patch_code validation" `Quick test_patch_code_validation;
          tc "patch_code differential" `Quick test_patch_code_differential;
          QCheck_alcotest.to_alcotest qcheck_block_cache_differential;
          QCheck_alcotest.to_alcotest qcheck_block_cache_differential_tiny;
          QCheck_alcotest.to_alcotest qcheck_block_bound_exact;
        ] );
    ]
