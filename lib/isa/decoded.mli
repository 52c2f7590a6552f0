(** Pre-decoded basic blocks — the representation the interpreter's
    block cache stores (DESIGN.md §15).

    A block is the run of instructions from [entry] to the first
    control transfer, trap site (syscall, halt, nondet when trapping is
    on), or the length cap. Two hot patterns are fused into
    superinstructions ([O_load_alu], [T_dec_branch]); fusion is a
    dispatch optimization only — the CPU still charges and retires per
    {e source} instruction, so any mid-block stop lands on exactly the
    instruction the unfused interpreter stops on. A block's cost
    summary ([fixed_cycles] to [n_store]) lets the CPU bound what one
    execution can charge ([Machine.Cpu.block_cycle_bound]). *)

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
      (** inclusive code-page span the block decodes from; a generation
          bump on any page in the span invalidates it *)
  nondet_trap : bool;
      (** trap mode the block was decoded under — nondet instructions
          are inline ops or trap sites depending on it *)
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

val code_page : int -> int
(** [code_page pc] is the code page a pc falls on. Code pages are 64
    instructions: the granularity of the patch-invalidation generation
    counters. *)

val n_code_pages : code_len:int -> int

val decode_block : code:Insn.t array -> nondet_trap:bool -> entry:int -> block
(** Decode one block. [entry] must be a valid index into [code]. *)
