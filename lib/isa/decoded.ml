(* Pre-decoded basic blocks for the interpreter's block cache.

   A block is a run of straight-line instructions starting at [entry]
   and ending at the first control transfer, trap site (syscall, halt,
   trapped nondet), or the length cap. The decoder also fuses the two
   patterns that dominate the generated workloads' inner loops:

   - [load rd, rb, off; <alu> rd2, rs1, rd]  ->  O_load_alu
   - [sub rd, rd, imm; b<cond> rd, rs2, T]   ->  T_dec_branch

   Fusion is a dispatch optimization only: the executing CPU still
   charges costs and retires per source instruction, so a mid-pattern
   stop (cycle budget, fault) lands on exactly the same instruction as
   the unfused interpreter.

   Each block also carries a static cost summary, from which the CPU
   bounds what one execution can charge and skips the per-instruction
   cycle test where the bound stays short of its cap. *)

type op =
  | O_alu_rr of { op : Insn.alu_op; rd : int; rs1 : int; rs2 : int }
  | O_alu_ri of { op : Insn.alu_op; rd : int; rs1 : int; imm : int }
  | O_li of { rd : int; imm : int }
  | O_mov of { rd : int; rs : int }
  | O_load of { rd : int; rb : int; off : int }
  | O_store of { rs : int; rb : int; off : int }
  | O_load8 of { rd : int; rb : int; off : int }
  | O_store8 of { rs : int; rb : int; off : int }
  | O_load_alu of {
      ld_rd : int;
      rb : int;
      off : int;
      op : Insn.alu_op;
      rd : int;
      rs1 : int;
    }  (** fused [load ld_rd, rb, off; op rd, rs1, ld_rd] — 2 insns *)
  | O_rdtsc of { rd : int }
  | O_rdcoreid of { rd : int }
  | O_rdrand of { rd : int }
  | O_nop

type terminator =
  | T_branch of { cond : Insn.cond; rs1 : int; rs2 : int; target : int }
  | T_dec_branch of {
      rd : int;
      dec : int;
      cond : Insn.cond;
      rs2 : int;
      target : int;
    }  (** fused [sub rd, rd, dec; b<cond> rd, rs2, target] — 2 insns *)
  | T_jump of { target : int }
  | T_jump_reg of { rs : int }
  | T_trap of Insn.t
      (** block ends {e before} this instruction (syscall / halt /
          trapped nondet); the CPU raises the stop with pc on it *)
  | T_fallthrough  (** length cap or end of code; continue at [term_pc] *)

type block = {
  entry : int;
  ops : op array;
  term : terminator;
  term_pc : int;
      (** pc of the terminator instruction; for [T_fallthrough] the pc
          of the next block *)
  n_insns : int;
      (** instructions a full execution of the block retires (fused
          forms count their source width; trap/fallthrough terminators
          retire nothing) *)
  resets_bp : bool;
      (** whether executing the block fetches at least one instruction
          past the breakpoint check, i.e. clears the one-shot
          breakpoint-resume suppression like the plain interpreter *)
  first_page : int;
  last_page : int;
      (** inclusive code-page span the block's bytes were decoded from;
          a generation bump on any page in the span invalidates it *)
  nondet_trap : bool;
      (** the trap mode the block was decoded under — rdtsc/rdcoreid/
          rdrand are inline ops or trap sites depending on it *)
  fixed_cycles : int;
      (** cycles a full execution charges whatever the CPU's env: 1 per
          source instruction (the terminator's and each memory op's
          base cycle included), but 2 per nondet read and 0 per mul,
          div or rem *)
  n_mul : int;  (** mul instructions: each charges the env's [mul_cycles] *)
  n_div : int;
      (** div and rem instructions: each charges the env's [div_cycles] *)
  n_mem : int;
      (** loads and stores: each adds at most the env's
          [max_access_cycles] *)
  n_store : int;
      (** stores: each may also break COW, adding the env's
          [cow_extra_cycles] *)
}

let code_page_bits = 6
(* 64 instructions per code page: fine enough that a patch invalidates
   little, coarse enough that the generation array stays small. *)

let code_page pc = pc lsr code_page_bits
let n_code_pages ~code_len = (code_len + (1 lsl code_page_bits) - 1) lsr code_page_bits

(* Decoded-op length cap per block (fused ops count once). *)
let max_block_ops = 64

(* Source instructions an op retires (2 for a fused op, else 1). *)
let op_width = function O_load_alu _ -> 2 | _ -> 1

let term_width = function
  | T_branch _ | T_jump _ | T_jump_reg _ -> 1
  | T_dec_branch _ -> 2
  | T_trap _ | T_fallthrough -> 0

let op_of_insn (i : Insn.t) =
  match i with
  | Insn.Alu (op, rd, rs1, Insn.Reg rs2) -> Some (O_alu_rr { op; rd; rs1; rs2 })
  | Insn.Alu (op, rd, rs1, Insn.Imm imm) -> Some (O_alu_ri { op; rd; rs1; imm })
  | Insn.Li (rd, imm) -> Some (O_li { rd; imm })
  | Insn.Mov (rd, rs) -> Some (O_mov { rd; rs })
  | Insn.Load (rd, rb, off) -> Some (O_load { rd; rb; off })
  | Insn.Store (rs, rb, off) -> Some (O_store { rs; rb; off })
  | Insn.Load8 (rd, rb, off) -> Some (O_load8 { rd; rb; off })
  | Insn.Store8 (rs, rb, off) -> Some (O_store8 { rs; rb; off })
  | Insn.Rdtsc rd -> Some (O_rdtsc { rd })
  | Insn.Rdcoreid rd -> Some (O_rdcoreid { rd })
  | Insn.Rdrand rd -> Some (O_rdrand { rd })
  | Insn.Nop -> Some O_nop
  | Insn.Branch _ | Insn.Jump _ | Insn.Jump_reg _ | Insn.Syscall | Insn.Halt ->
    None

let decode_block ~code ~nondet_trap ~entry =
  let code_len = Array.length code in
  (* [rev_ops] accumulates decoded ops newest-first so the fusion
     peepholes can pop the instruction they merge with. *)
  let rec scan rev_ops n_ops ip =
    if ip >= code_len || n_ops >= max_block_ops then
      (rev_ops, T_fallthrough, ip, ip - 1)
    else
      let insn = code.(ip) in
      match insn with
      | Insn.Syscall | Insn.Halt -> (rev_ops, T_trap insn, ip, ip)
      | (Insn.Rdtsc _ | Insn.Rdcoreid _ | Insn.Rdrand _) when nondet_trap ->
        (rev_ops, T_trap insn, ip, ip)
      | Insn.Branch (cond, rs1, rs2, target) -> (
        match rev_ops with
        | O_alu_ri { op = Insn.Sub; rd; rs1 = srs1; imm } :: rest
          when rd = rs1 && srs1 = rd ->
          (rest, T_dec_branch { rd; dec = imm; cond; rs2; target }, ip - 1, ip)
        | _ -> (rev_ops, T_branch { cond; rs1; rs2; target }, ip, ip))
      | Insn.Jump target -> (rev_ops, T_jump { target }, ip, ip)
      | Insn.Jump_reg rs -> (rev_ops, T_jump_reg { rs }, ip, ip)
      | _ -> (
        match op_of_insn insn with
        | None -> assert false
        | Some op -> (
          match (op, rev_ops) with
          | ( O_alu_rr { op = aop; rd; rs1; rs2 },
              O_load { rd = ld_rd; rb; off } :: rest )
            when rs2 = ld_rd ->
            scan
              (O_load_alu { ld_rd; rb; off; op = aop; rd; rs1 } :: rest)
              n_ops (ip + 1)
          | _ -> scan (op :: rev_ops) (n_ops + 1) (ip + 1)))
  in
  let rev_ops, term, term_pc, span_end = scan [] 0 entry in
  let ops = Array.of_list (List.rev rev_ops) in
  let ops_insns = Array.fold_left (fun n o -> n + op_width o) 0 ops in
  let resets_bp =
    match term with
    | T_branch _ | T_dec_branch _ | T_jump _ | T_jump_reg _ -> true
    | T_trap _ | T_fallthrough -> Array.length ops > 0
  in
  let span_end = Int.max entry span_end in
  (* The cost summary: every terminator source instruction is a 1-cycle
     sub or branch, so the terminator's fixed share is its width. *)
  let fixed = ref (term_width term) and n_mul = ref 0 and n_div = ref 0 in
  let n_mem = ref 0 and n_store = ref 0 in
  let alu = function
    | Insn.Mul -> incr n_mul
    | Insn.Div | Insn.Rem -> incr n_div
    | Insn.Add | Insn.Sub | Insn.And | Insn.Or | Insn.Xor | Insn.Shl
    | Insn.Shr ->
      incr fixed
  in
  Array.iter
    (function
      | O_alu_rr { op; _ } | O_alu_ri { op; _ } -> alu op
      | O_li _ | O_mov _ | O_nop -> incr fixed
      | O_load _ | O_load8 _ ->
        incr fixed;
        incr n_mem
      | O_store _ | O_store8 _ ->
        incr fixed;
        incr n_mem;
        incr n_store
      | O_load_alu { op; _ } ->
        incr fixed;
        incr n_mem;
        alu op
      | O_rdtsc _ | O_rdcoreid _ | O_rdrand _ -> fixed := !fixed + 2)
    ops;
  {
    entry;
    ops;
    term;
    term_pc;
    n_insns = ops_insns + term_width term;
    resets_bp;
    first_page = code_page entry;
    last_page = code_page span_end;
    nondet_trap;
    fixed_cycles = !fixed;
    n_mul = !n_mul;
    n_div = !n_div;
    n_mem = !n_mem;
    n_store = !n_store;
  }
