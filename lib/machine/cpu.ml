type fault =
  | Segv of { addr : int; write : bool }
  | Div_by_zero
  | Bad_pc of int

type stop_reason =
  | Budget_exhausted
  | Halted
  | Syscall_stop
  | Nondet_stop of Isa.Insn.t
  | Breakpoint_stop
  | Counter_overflow_stop
  | Cycle_overflow_stop
  | Insn_overflow_stop
  | Fault_stop of fault

type run_result = {
  stop : stop_reason;
  user_cycles : int;
  sys_cycles : int;
  insns_retired : int;
  blocks_retired : int;
  blocks_decoded : int;
}

type env = {
  core_id : int;
  read_tsc : unit -> int;
  read_rand : unit -> int;
  mem_access : frame:int -> int;
  mem_access_cow : frame:int -> old_frame:int -> int;
  max_access_cycles : int;
  cow_extra_cycles : int;
  mul_cycles : int;
  div_cycles : int;
}

(* The most a full execution of [blk] can charge (user + sys) under
   [env]: every access at [max_access_cycles], every store a COW copy. *)
let[@inline] block_cycle_bound env (blk : Isa.Decoded.block) =
  blk.Isa.Decoded.fixed_cycles
  + (blk.Isa.Decoded.n_mul * env.mul_cycles)
  + (blk.Isa.Decoded.n_div * env.div_cycles)
  + (blk.Isa.Decoded.n_mem * env.max_access_cycles)
  + (blk.Isa.Decoded.n_store * env.cow_extra_cycles)

(* Process-wide default capacity for the decoded-block cache, so every
   construction site (engine spawn, baseline runs, test CPUs) agrees
   without threading a parameter through each harness. [<= 0] disables.
   Overridable per CPU via [create ?block_cache]. *)
let default_block_cache_v = Atomic.make 4096

let default_block_cache () = Atomic.get default_block_cache_v
let set_default_block_cache n = Atomic.set default_block_cache_v n

type t = {
  regs : int array;
  mutable pc : int;
  prog : Isa.Program.t;
  code : Isa.Insn.t array;
      (* this CPU's live instruction stream: a copy of the program's
         code that patch_code may rewrite (inherited across fork) *)
  code_gens : int array; (* per-code-page patch generations *)
  bcache : Block_cache.t option;
  block_cache_capacity : int;
  aspace : Mem.Address_space.t;
  rng : Util.Rng.t;
  max_skid : int;
  max_insn_overcount : int;
  (* performance counters *)
  mutable branches : int;
  mutable instructions : int;
  mutable user_cycles : int;
  mutable sys_cycles : int;
  (* branch-overflow interrupt *)
  mutable overflow_armed : bool;
  mutable overflow_trap_at : int; (* target + skid draw *)
  mutable cycle_overflow_at : int; (* max_int = disarmed *)
  mutable insn_overflow_at : int; (* max_int = disarmed *)
  (* breakpoints *)
  breakpoints : (int, unit) Hashtbl.t;
  mutable bp_resume_pc : int; (* suppress re-trap at this pc once *)
  (* tracing *)
  mutable nondet_trap : bool;
  (* fault injection *)
  mutable inject_countdown : int; (* -1 = disarmed *)
  mutable inject_target : inject_target;
  mutable injected : bool;
}

and inject_target =
  | Inject_reg of { reg : int; bit : int }
  | Inject_mem of { page_index : int; bit : int }

let create ?(max_skid = 6) ?(max_insn_overcount = 3) ?block_cache ~rng
    ~program ~aspace () =
  let code = Array.copy program.Isa.Program.code in
  let code_len = Array.length code in
  let cap =
    match block_cache with Some c -> c | None -> default_block_cache ()
  in
  {
    regs = Array.make Isa.Insn.num_regs 0;
    pc = program.Isa.Program.entry;
    prog = program;
    code;
    code_gens = Array.make (Int.max 1 (Isa.Decoded.n_code_pages ~code_len)) 0;
    bcache =
      (if cap <= 0 then None
       else Some (Block_cache.create ~capacity:cap ~code_len));
    block_cache_capacity = cap;
    aspace;
    rng;
    max_skid;
    max_insn_overcount;
    branches = 0;
    instructions = 0;
    user_cycles = 0;
    sys_cycles = 0;
    overflow_armed = false;
    overflow_trap_at = 0;
    cycle_overflow_at = max_int;
    insn_overflow_at = max_int;
    breakpoints = Hashtbl.create 4;
    bp_resume_pc = -1;
    nondet_trap = false;
    inject_countdown = -1;
    inject_target = Inject_reg { reg = 0; bit = 0 };
    injected = false;
  }

let fork t ~rng ~aspace =
  let child = create ~max_skid:t.max_skid ~max_insn_overcount:t.max_insn_overcount
      ~block_cache:t.block_cache_capacity ~rng ~program:t.prog ~aspace ()
  in
  Array.blit t.regs 0 child.regs 0 (Array.length t.regs);
  (* The child executes the parent's *current* code image, patches
     included (its decoded-block cache starts cold). *)
  Array.blit t.code 0 child.code 0 (Array.length t.code);
  child.pc <- t.pc;
  child

let program t = t.prog
let aspace t = t.aspace
let get_reg t r = t.regs.(r)
let set_reg t r v = t.regs.(r) <- v
let get_pc t = t.pc
let set_pc t pc = t.pc <- pc
let snapshot_regs t = Array.copy t.regs

let restore_regs t regs =
  if Array.length regs <> Array.length t.regs then
    invalid_arg "Cpu.restore_regs: wrong register count";
  Array.blit regs 0 t.regs 0 (Array.length regs)

let branches t = t.branches
let instructions t = t.instructions
let cycles t = t.user_cycles + t.sys_cycles
let sys_cycles_total t = t.sys_cycles

let code_insn t pc =
  if pc < 0 || pc >= Array.length t.code then None else Some t.code.(pc)

let patch_code t ~pc insn =
  if pc < 0 || pc >= Array.length t.code then
    Error (Printf.sprintf "patch_code: pc %d out of range" pc)
  else
    match Isa.Insn.check insn with
    | Error e -> Error e
    | Ok () ->
      t.code.(pc) <- insn;
      let page = Isa.Decoded.code_page pc in
      t.code_gens.(page) <- t.code_gens.(page) + 1;
      Ok ()

let block_cache_enabled t = t.bcache <> None

let block_cache_stats t =
  match t.bcache with
  | None -> (0, 0, 0)
  | Some bc ->
    (Block_cache.hits bc, Block_cache.misses bc, Block_cache.invalidations bc)

let arm_branch_overflow t ~target =
  t.overflow_armed <- true;
  t.overflow_trap_at <- target + Util.Rng.int t.rng (t.max_skid + 1)

let disarm_branch_overflow t = t.overflow_armed <- false

let max_skid t = t.max_skid

let arm_cycle_overflow t ~target = t.cycle_overflow_at <- target
let arm_insn_overflow t ~target = t.insn_overflow_at <- target
let disarm_insn_overflow t = t.insn_overflow_at <- max_int

let set_breakpoint t pc = Hashtbl.replace t.breakpoints pc ()
let clear_breakpoint t pc = Hashtbl.remove t.breakpoints pc

let clear_all_breakpoints t =
  Hashtbl.reset t.breakpoints;
  t.bp_resume_pc <- -1

let set_nondet_trap t b = t.nondet_trap <- b

let arm_injection t ~after_instructions target =
  if after_instructions < 0 then
    invalid_arg "Cpu.arm_fault_injection: negative delay";
  t.inject_countdown <- after_instructions;
  t.inject_target <- target;
  t.injected <- false

let arm_fault_injection t ~after_instructions ~reg ~bit =
  if reg < 0 || reg >= Isa.Insn.num_regs then
    invalid_arg "Cpu.arm_fault_injection: bad register";
  if bit < 0 || bit > 63 then invalid_arg "Cpu.arm_fault_injection: bad bit";
  arm_injection t ~after_instructions (Inject_reg { reg; bit })

let arm_memory_fault_injection t ~after_instructions ~page_index ~bit =
  if page_index < 0 then
    invalid_arg "Cpu.arm_memory_fault_injection: negative page index";
  if bit < 0 || bit > 63 then
    invalid_arg "Cpu.arm_memory_fault_injection: bad bit";
  arm_injection t ~after_instructions (Inject_mem { page_index; bit })

let disarm_fault_injection t = t.inject_countdown <- -1
let fault_injected t = t.injected

(* Fire the armed injection. Registers are the ISA's 63-bit native ints
   (Shl zeroes shifts past 62), so bit 63 of a register does not exist
   architecturally: the flip is masked to a no-op but still counts as
   injected (the fault landed in a bit the core never reads). Memory
   flips go through the normal store path, so they break COW and mark
   the page dirty like any wrong-value store; a flip landing on a
   write-protected page is likewise masked. *)
let fire_injection t =
  (match t.inject_target with
  | Inject_reg { reg; bit } ->
    if bit <= 62 then t.regs.(reg) <- t.regs.(reg) lxor (1 lsl bit)
  | Inject_mem { page_index; bit } -> (
    let pt = Mem.Address_space.page_table t.aspace in
    let vpns = Mem.Page_table.mapped_vpns pt in
    let n = Array.length vpns in
    if n > 0 then
      let vpn = vpns.(page_index mod n) in
      let addr =
        (vpn * Mem.Address_space.page_size t.aspace) + (bit lsr 3)
      in
      try
        let b = Mem.Address_space.load8 t.aspace addr in
        Mem.Address_space.store8 t.aspace addr (b lxor (1 lsl (bit land 7)))
      with Mem.Address_space.Segfault _ -> ()));
  t.injected <- true

(* A trap perturbs the retired-instruction counter (interrupt-return
   overcounting, as on real hardware). *)
let trap_overcount t =
  if t.max_insn_overcount > 0 then
    t.instructions <- t.instructions + Util.Rng.int t.rng (t.max_insn_overcount + 1)

exception Stop of stop_reason

(* Raised by the cached fast path's ALU helper so a mid-block
   divide-by-zero can be routed through the flush-then-stop path
   (a bare [Stop] there would skip the counter flush). *)
exception Op_fault of fault

let run t ~env ~max_cycles =
  if max_cycles <= 0 then invalid_arg "Cpu.run: max_cycles <= 0";
  let code = t.code in
  let code_len = Array.length code in
  let aspace = t.aspace in
  let regs = t.regs in
  let user = ref 0 and sys = ref 0 in
  let base_cycles = t.user_cycles + t.sys_cycles in
  let insns0 = t.instructions and branches0 = t.branches in
  let blocks_decoded = ref 0 in
  let is_trap_stop = function
    | Syscall_stop | Nondet_stop _ | Breakpoint_stop | Counter_overflow_stop
    | Cycle_overflow_stop | Insn_overflow_stop | Fault_stop _ ->
      true
    | Budget_exhausted | Halted -> false
  in
  let operand_value = function
    | Isa.Insn.Reg r -> regs.(r)
    | Isa.Insn.Imm i -> i
  in
  let mem_cost () =
    1 + env.mem_access ~frame:(Mem.Address_space.last_frame aspace)
  in
  let store_cost () =
    if Mem.Address_space.last_cow aspace then begin
      sys := !sys + env.cow_extra_cycles;
      1
      + env.mem_access_cow
          ~frame:(Mem.Address_space.last_frame aspace)
          ~old_frame:(Mem.Address_space.last_cow_old_frame aspace)
    end
    else mem_cost ()
  in
  (* One full fetch-decode-execute-retire iteration of the plain
     interpreter — the reference semantics. The cached path below must
     be observationally identical to a [step] loop; it falls back to
     [step] when the injection point or the instruction-counter
     overflow could fall mid-block, and tests the cycle cap after every
     instruction only in a block that could reach it. *)
  let step () =
    (* Fetch. *)
    if t.pc < 0 || t.pc >= code_len then raise (Stop (Fault_stop (Bad_pc t.pc)));
    (* Hardware breakpoint check (suppressed once after resume). *)
    if Hashtbl.length t.breakpoints > 0
       && t.bp_resume_pc <> t.pc
       && Hashtbl.mem t.breakpoints t.pc
    then begin
      t.bp_resume_pc <- t.pc;
      raise (Stop Breakpoint_stop)
    end;
    let insn = Array.unsafe_get code t.pc in
    (match insn with
    | Isa.Insn.Syscall -> raise (Stop Syscall_stop)
    | Isa.Insn.Rdtsc _ | Isa.Insn.Rdcoreid _ | Isa.Insn.Rdrand _
      when t.nondet_trap ->
      raise (Stop (Nondet_stop insn))
    | Isa.Insn.Halt -> raise (Stop Halted)
    | Isa.Insn.Alu _ | Isa.Insn.Li _ | Isa.Insn.Mov _ | Isa.Insn.Load _
    | Isa.Insn.Store _ | Isa.Insn.Load8 _ | Isa.Insn.Store8 _
    | Isa.Insn.Branch _ | Isa.Insn.Jump _ | Isa.Insn.Jump_reg _
    | Isa.Insn.Rdtsc _ | Isa.Insn.Rdcoreid _ | Isa.Insn.Rdrand _
    | Isa.Insn.Nop ->
      ());
    t.bp_resume_pc <- -1;
    (* Execute. *)
    let next_pc = t.pc + 1 in
    (try
       match insn with
       | Isa.Insn.Alu (op, rd, rs1, op2) ->
         let a = regs.(rs1) and b = operand_value op2 in
         let v =
           match op with
           | Isa.Insn.Add ->
             user := !user + 1;
             a + b
           | Isa.Insn.Sub ->
             user := !user + 1;
             a - b
           | Isa.Insn.Mul ->
             user := !user + env.mul_cycles;
             a * b
           | Isa.Insn.Div ->
             user := !user + env.div_cycles;
             if b = 0 then raise (Stop (Fault_stop Div_by_zero)) else a / b
           | Isa.Insn.Rem ->
             user := !user + env.div_cycles;
             if b = 0 then raise (Stop (Fault_stop Div_by_zero)) else a mod b
           | Isa.Insn.And ->
             user := !user + 1;
             a land b
           | Isa.Insn.Or ->
             user := !user + 1;
             a lor b
           | Isa.Insn.Xor ->
             user := !user + 1;
             a lxor b
           | Isa.Insn.Shl ->
             user := !user + 1;
             let sh = b land 63 in
             if sh > 62 then 0 else a lsl sh
           | Isa.Insn.Shr ->
             user := !user + 1;
             let sh = b land 63 in
             if sh > 62 then 0 else a lsr sh
         in
         regs.(rd) <- v;
         t.pc <- next_pc
       | Isa.Insn.Li (rd, imm) ->
         user := !user + 1;
         regs.(rd) <- imm;
         t.pc <- next_pc
       | Isa.Insn.Mov (rd, rs) ->
         user := !user + 1;
         regs.(rd) <- regs.(rs);
         t.pc <- next_pc
       | Isa.Insn.Load (rd, rb, off) ->
         let v = Mem.Address_space.load64 aspace (regs.(rb) + off) in
         user := !user + mem_cost ();
         regs.(rd) <- v;
         t.pc <- next_pc
       | Isa.Insn.Store (rs, rb, off) ->
         Mem.Address_space.store64 aspace (regs.(rb) + off) regs.(rs);
         user := !user + store_cost ();
         t.pc <- next_pc
       | Isa.Insn.Load8 (rd, rb, off) ->
         let v = Mem.Address_space.load8 aspace (regs.(rb) + off) in
         user := !user + mem_cost ();
         regs.(rd) <- v;
         t.pc <- next_pc
       | Isa.Insn.Store8 (rs, rb, off) ->
         Mem.Address_space.store8 aspace (regs.(rb) + off) regs.(rs);
         user := !user + store_cost ();
         t.pc <- next_pc
       | Isa.Insn.Branch (cond, rs1, rs2, target) ->
         user := !user + 1;
         t.branches <- t.branches + 1;
         let a = regs.(rs1) and b = regs.(rs2) in
         let taken =
           match cond with
           | Isa.Insn.Eq -> a = b
           | Isa.Insn.Ne -> a <> b
           | Isa.Insn.Lt -> a < b
           | Isa.Insn.Ge -> a >= b
         in
         t.pc <- (if taken then target else next_pc)
       | Isa.Insn.Jump target ->
         user := !user + 1;
         t.branches <- t.branches + 1;
         t.pc <- target
       | Isa.Insn.Jump_reg rs ->
         user := !user + 1;
         t.branches <- t.branches + 1;
         t.pc <- regs.(rs)
       | Isa.Insn.Rdtsc rd ->
         user := !user + 2;
         regs.(rd) <- env.read_tsc ();
         t.pc <- next_pc
       | Isa.Insn.Rdcoreid rd ->
         user := !user + 2;
         regs.(rd) <- env.core_id;
         t.pc <- next_pc
       | Isa.Insn.Rdrand rd ->
         user := !user + 2;
         regs.(rd) <- env.read_rand ();
         t.pc <- next_pc
       | Isa.Insn.Nop ->
         user := !user + 1;
         t.pc <- next_pc
       | Isa.Insn.Syscall | Isa.Insn.Halt ->
         (* Unreachable: intercepted at fetch. *)
         assert false
     with Mem.Address_space.Segfault { addr; write } ->
       raise (Stop (Fault_stop (Segv { addr; write }))));
    (* Retire. *)
    t.instructions <- t.instructions + 1;
    if t.inject_countdown >= 0 then begin
      if t.inject_countdown = 0 then fire_injection t;
      t.inject_countdown <- t.inject_countdown - 1
    end;
    if t.overflow_armed && t.branches >= t.overflow_trap_at then begin
      t.overflow_armed <- false;
      raise (Stop Counter_overflow_stop)
    end;
    if t.instructions >= t.insn_overflow_at then begin
      t.insn_overflow_at <- max_int;
      raise (Stop Insn_overflow_stop)
    end;
    if base_cycles + !user + !sys >= t.cycle_overflow_at then begin
      t.cycle_overflow_at <- max_int;
      raise (Stop Cycle_overflow_stop)
    end;
    if !user + !sys >= max_cycles then raise (Stop Budget_exhausted)
  in
  (* The cached fast path. Counter updates are batched per block, so
     every early exit must flush the locally retired count (and the
     matching injection-countdown decrements) before raising — the
     trap-overcount draw below reads [t.instructions]. *)
  let run_cached bc =
    (* Cycle stops can only *arm* between run calls, so the combined
       threshold is a run constant: the earlier of the armed
       cycle-overflow point and the budget, in this-run cycles. *)
    let cyc_cap =
      let a = t.cycle_overflow_at - base_cycles in
      if a < max_cycles then a else max_cycles
    in
    (* The block-local mutable state and the helpers that close over it
       are hoisted out of [exec_block]: allocating them per block
       execution costs more than the batching saves on short blocks. *)
    let retired = ref 0 in
    (* [retired] when the current pass over the block began. A pass's
       ops are consecutive source instructions from the entry, so a stop
       among them lands on [entry + !retired - !pass_start]. *)
    let pass_start = ref 0 in
    (* Where the terminator sends control. *)
    let ip = ref 0 in
    let stop_mid pc reason =
      t.instructions <- t.instructions + !retired;
      if t.inject_countdown >= 0 then
        t.inject_countdown <- t.inject_countdown - !retired;
      t.pc <- pc;
      raise (Stop reason)
    in
    (* [!user + !sys] reached [cyc_cap]: the armed cycle overflow or the
       budget, whichever came first. *)
    let cap_stop pc =
      if base_cycles + !user + !sys >= t.cycle_overflow_at then begin
        t.cycle_overflow_at <- max_int;
        stop_mid pc Cycle_overflow_stop
      end;
      if !user + !sys >= max_cycles then stop_mid pc Budget_exhausted
    in
    (* Retire one source instruction among the ops. [checked] is a
       constant at every use, so each inlined copy keeps or drops the
       cap test. *)
    let[@inline] retire ~checked entry =
      incr retired;
      if checked && !user + !sys >= cyc_cap then
        cap_stop (entry + !retired - !pass_start)
    in
    (* Retire the terminator's branch: the live branch-overflow check
       runs on either path. *)
    let[@inline] branch_retire ~checked =
      incr retired;
      if t.overflow_armed && t.branches >= t.overflow_trap_at then begin
        t.overflow_armed <- false;
        stop_mid !ip Counter_overflow_stop
      end;
      if checked && !user + !sys >= cyc_cap then cap_stop !ip
    in
    (* Inlined at each use, like [retire]: a call per ALU op costs more
       than the copies. *)
    let[@inline] alu_exec op a b =
      match op with
      | Isa.Insn.Add ->
        user := !user + 1;
        a + b
      | Isa.Insn.Sub ->
        user := !user + 1;
        a - b
      | Isa.Insn.Mul ->
        user := !user + env.mul_cycles;
        a * b
      | Isa.Insn.Div ->
        user := !user + env.div_cycles;
        if b = 0 then raise (Op_fault Div_by_zero) else a / b
      | Isa.Insn.Rem ->
        user := !user + env.div_cycles;
        if b = 0 then raise (Op_fault Div_by_zero) else a mod b
      | Isa.Insn.And ->
        user := !user + 1;
        a land b
      | Isa.Insn.Or ->
        user := !user + 1;
        a lor b
      | Isa.Insn.Xor ->
        user := !user + 1;
        a lxor b
      | Isa.Insn.Shl ->
        user := !user + 1;
        let sh = b land 63 in
        if sh > 62 then 0 else a lsl sh
      | Isa.Insn.Shr ->
        user := !user + 1;
        let sh = b land 63 in
        if sh > 62 then 0 else a lsr sh
    in
    (* One pass over a block: its ops, then its terminator, which sets
       [ip]. The op semantics are written once; [exec_block] inlines a
       copy with [~checked:false] for a pass that cannot reach the cap
       and one with [~checked:true] that tests the cap after every
       source instruction. *)
    let[@inline] exec_pass ~checked (blk : Isa.Decoded.block) =
      let entry = blk.Isa.Decoded.entry in
      let ops = blk.Isa.Decoded.ops in
      for i = 0 to Array.length ops - 1 do
        (match Array.unsafe_get ops i with
        | Isa.Decoded.O_alu_rr { op; rd; rs1; rs2 } ->
          let a = regs.(rs1) and b = regs.(rs2) in
          regs.(rd) <- alu_exec op a b
        | Isa.Decoded.O_alu_ri { op; rd; rs1; imm } ->
          regs.(rd) <- alu_exec op regs.(rs1) imm
        | Isa.Decoded.O_li { rd; imm } ->
          user := !user + 1;
          regs.(rd) <- imm
        | Isa.Decoded.O_mov { rd; rs } ->
          user := !user + 1;
          regs.(rd) <- regs.(rs)
        | Isa.Decoded.O_load { rd; rb; off } ->
          let v = Mem.Address_space.load64 aspace (regs.(rb) + off) in
          user := !user + mem_cost ();
          regs.(rd) <- v
        | Isa.Decoded.O_store { rs; rb; off } ->
          Mem.Address_space.store64 aspace (regs.(rb) + off) regs.(rs);
          user := !user + store_cost ()
        | Isa.Decoded.O_load8 { rd; rb; off } ->
          let v = Mem.Address_space.load8 aspace (regs.(rb) + off) in
          user := !user + mem_cost ();
          regs.(rd) <- v
        | Isa.Decoded.O_store8 { rs; rb; off } ->
          Mem.Address_space.store8 aspace (regs.(rb) + off) regs.(rs);
          user := !user + store_cost ()
        | Isa.Decoded.O_load_alu { ld_rd; rb; off; op; rd; rs1 } ->
          (* Two source instructions: the load retires (and the cap is
             tested) before the ALU half runs, so a stop between them
             lands on the ALU instruction. *)
          let v = Mem.Address_space.load64 aspace (regs.(rb) + off) in
          user := !user + mem_cost ();
          regs.(ld_rd) <- v;
          retire ~checked entry;
          let a = regs.(rs1) and b = regs.(ld_rd) in
          regs.(rd) <- alu_exec op a b
        | Isa.Decoded.O_rdtsc { rd } ->
          user := !user + 2;
          regs.(rd) <- env.read_tsc ()
        | Isa.Decoded.O_rdcoreid { rd } ->
          user := !user + 2;
          regs.(rd) <- env.core_id
        | Isa.Decoded.O_rdrand { rd } ->
          user := !user + 2;
          regs.(rd) <- env.read_rand ()
        | Isa.Decoded.O_nop -> user := !user + 1);
        retire ~checked entry
      done;
      match blk.Isa.Decoded.term with
      | Isa.Decoded.T_fallthrough -> ip := blk.Isa.Decoded.term_pc
      | Isa.Decoded.T_trap insn ->
        stop_mid blk.Isa.Decoded.term_pc
          (match insn with
          | Isa.Insn.Syscall -> Syscall_stop
          | Isa.Insn.Halt -> Halted
          | i -> Nondet_stop i)
      | Isa.Decoded.T_branch { cond; rs1; rs2; target } ->
        user := !user + 1;
        t.branches <- t.branches + 1;
        let a = regs.(rs1) and b = regs.(rs2) in
        let taken =
          match cond with
          | Isa.Insn.Eq -> a = b
          | Isa.Insn.Ne -> a <> b
          | Isa.Insn.Lt -> a < b
          | Isa.Insn.Ge -> a >= b
        in
        ip := if taken then target else blk.Isa.Decoded.term_pc + 1;
        branch_retire ~checked
      | Isa.Decoded.T_dec_branch { rd; dec; cond; rs2; target } ->
        (* [term_pc] is the sub's; the branch is the next instruction. *)
        user := !user + 1;
        regs.(rd) <- regs.(rd) - dec;
        retire ~checked entry;
        user := !user + 1;
        t.branches <- t.branches + 1;
        let a = regs.(rd) and b = regs.(rs2) in
        let taken =
          match cond with
          | Isa.Insn.Eq -> a = b
          | Isa.Insn.Ne -> a <> b
          | Isa.Insn.Lt -> a < b
          | Isa.Insn.Ge -> a >= b
        in
        ip := if taken then target else blk.Isa.Decoded.term_pc + 2;
        branch_retire ~checked
      | Isa.Decoded.T_jump { target } ->
        user := !user + 1;
        t.branches <- t.branches + 1;
        ip := target;
        branch_retire ~checked
      | Isa.Decoded.T_jump_reg { rs } ->
        user := !user + 1;
        t.branches <- t.branches + 1;
        ip := regs.(rs);
        branch_retire ~checked
    in
    let again = ref false in
    let exec_block (blk : Isa.Decoded.block) =
      let entry = blk.Isa.Decoded.entry in
      let n_insns = blk.Isa.Decoded.n_insns in
      let bound = block_cycle_bound env blk in
      retired := 0;
      if blk.Isa.Decoded.resets_bp then t.bp_resume_pc <- -1;
      again := true;
      (try
        while !again do
          again := false;
          pass_start := !retired;
          (* Costs only grow, so a pass that starts [bound] short of
             the cap cannot reach it: no per-instruction test would
             fire, and the pass runs without one. *)
          if !user + !sys + bound < cyc_cap then exec_pass ~checked:false blk
          else exec_pass ~checked:true blk;
          (* Tight self-loop: the terminator came straight back to this
             block's entry, so skip the dispatch loop and the cache lookup
             and re-execute in place. The dispatch-time slow-path routing
             must be re-derived against the locally retired count: the
             injection arming point and the instruction-counter overflow
             are the only entry conditions that can move mid-run (the
             breakpoint table can't change between stops, and the live
             branch-overflow check just ran in [branch_retire]). *)
          if
            !ip = entry && n_insns > 0
            && (t.inject_countdown < 0
               || t.inject_countdown - !retired >= n_insns)
            && t.instructions + !retired + n_insns < t.insn_overflow_at
          then begin
            Block_cache.note_hit bc;
            again := true
          end
        done
      with
      | Op_fault f -> stop_mid (entry + !retired - !pass_start) (Fault_stop f)
      | Mem.Address_space.Segfault { addr; write } ->
        stop_mid (entry + !retired - !pass_start)
          (Fault_stop (Segv { addr; write })));
      (* Block completed: batch the counter updates. *)
      t.instructions <- t.instructions + !retired;
      if t.inject_countdown >= 0 then
        t.inject_countdown <- t.inject_countdown - !retired;
      t.pc <- !ip
    in
    while true do
      let pc = t.pc in
      if pc < 0 || pc >= code_len then raise (Stop (Fault_stop (Bad_pc pc)));
      begin
        let blk =
          match
            Block_cache.lookup bc ~gens:t.code_gens
              ~nondet_trap:t.nondet_trap ~entry:pc
          with
          | Some b -> b
          | None ->
            let b =
              Isa.Decoded.decode_block ~code ~nondet_trap:t.nondet_trap
                ~entry:pc
            in
            incr blocks_decoded;
            Block_cache.admit bc ~gens:t.code_gens b;
            b
        in
        (* Stop conditions that could fire mid-block (injection arming
           point, instruction-counter overflow) take the per-insn slow
           path for exactly as many instructions as they need. *)
        if
          (t.inject_countdown >= 0
          && t.inject_countdown < blk.Isa.Decoded.n_insns)
          || t.instructions + blk.Isa.Decoded.n_insns >= t.insn_overflow_at
        then step ()
        else exec_block blk
      end
    done
  in
  let stop =
    try
      (match t.bcache with
      (* Breakpoints cannot change mid-run, and an armed-and-already-past
         branch overflow fires at the very next [step] — so when either
         holds at run entry the cached loop would route every single
         instruction to [step] anyway. Decide once here and skip building
         the cached machinery: replay's arm-to-breakpoint runs are a few
         instructions each, and the setup would dominate them. A *live*
         overflow (armed, not yet reached) is fine for the fast path —
         the terminator's [branch_retire] checks it on every branch. *)
      | Some bc
        when Hashtbl.length t.breakpoints = 0
             && not (t.overflow_armed && t.branches >= t.overflow_trap_at) ->
        run_cached bc
      | Some _ | None ->
        while true do
          step ()
        done);
      assert false
    with Stop reason -> reason
  in
  if is_trap_stop stop then trap_overcount t;
  t.user_cycles <- t.user_cycles + !user;
  t.sys_cycles <- t.sys_cycles + !sys;
  {
    stop;
    user_cycles = !user;
    sys_cycles = !sys;
    (* Deltas over this run call, as the counters report them — the
       insn delta includes the trap overcount noise, like the hardware
       counter the profiler would batch-read. *)
    insns_retired = t.instructions - insns0;
    blocks_retired = t.branches - branches0;
    blocks_decoded = !blocks_decoded;
  }
