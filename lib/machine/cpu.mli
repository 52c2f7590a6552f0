(** The simulated CPU: architectural state plus the monitoring hardware
    Parallaft depends on.

    One [Cpu.t] is the machine context of one simulated process (the OS
    layer pairs it with scheduling state). It executes {!Isa.Insn}
    programs against an {!Mem.Address_space} and exposes:

    - a {e deterministic} user-mode retired-branch counter with
      overflow interrupts subject to bounded {e skid} (§4.2.2 of the
      paper: the interrupt lands up to [max_skid] branches late);
    - a retired-instruction counter that {e overcounts
      nondeterministically} at every trap (the documented behaviour of
      commodity counters [Weaver et al.] that forces Parallaft to replay
      with branch counts + breakpoints rather than instruction counts);
    - hardware breakpoints;
    - trapping of nondeterministic instructions ([rdtsc], [rdcoreid],
      [rdrand]) when enabled by the tracer;
    - a fault-injection port that flips one register bit after a chosen
      number of retired instructions (§5.6).

    Cycle costs are charged per instruction through an {!env} the
    scheduler rebuilds whenever the process changes core or the
    contention picture changes. *)

type fault =
  | Segv of { addr : int; write : bool }
  | Div_by_zero
  | Bad_pc of int  (** control transferred outside the code array *)

type stop_reason =
  | Budget_exhausted  (** quantum used up; nothing notable happened *)
  | Halted  (** executed [halt]; pc rests on the halt instruction *)
  | Syscall_stop  (** pc rests {e on} the [syscall] instruction *)
  | Nondet_stop of Isa.Insn.t  (** pc rests on the trapped instruction *)
  | Breakpoint_stop  (** pc rests on the breakpointed instruction *)
  | Counter_overflow_stop
      (** branch counter passed its armed target (plus skid) *)
  | Cycle_overflow_stop
      (** total-cycle counter passed its armed target (the slicer's
          segment-boundary interrupt on the Apple platform) *)
  | Insn_overflow_stop
      (** instruction counter passed its armed target (the slicer's
          boundary on Intel, and the checker-timeout kill switch) *)
  | Fault_stop of fault

type run_result = {
  stop : stop_reason;
  user_cycles : int;  (** execution cycles consumed by this run call *)
  sys_cycles : int;  (** kernel-side cycles (COW page copies) consumed *)
  insns_retired : int;
      (** instruction-counter delta over this run call, trap overcount
          noise included — what a batched hot-path profiler read of the
          hardware counter would report *)
  blocks_retired : int;  (** branch (basic-block) counter delta *)
  blocks_decoded : int;
      (** basic blocks decoded (block-cache misses) during this run
          call; 0 when the cache is disabled *)
}

(** Per-run execution environment, supplied by the scheduler. *)
type env = {
  core_id : int;  (** value returned by an untrapped [rdcoreid] *)
  read_tsc : unit -> int;  (** value returned by an untrapped [rdtsc] *)
  read_rand : unit -> int;  (** value returned by an untrapped [rdrand] *)
  mem_access : write:bool -> frame:int -> int;
      (** extra cycles for a memory access to physical frame [frame]
          (cache hierarchy + DRAM contention), excluding the 1-cycle
          base cost *)
  mem_access_cow : frame:int -> old_frame:int -> int;
      (** cache cost of the store that just broke COW: the kernel's page
          copy leaves the fresh frame cache-warm, so this inserts the
          frame into the hierarchy at L2-hit cost instead of charging a
          cold DRAM miss (the copy's traffic is part of
          [cow_extra_cycles]); the retired [old_frame] is invalidated,
          as recency-based replacement would age it out *)
  max_access_cycles : int;
      (** an upper bound on every value [mem_access] and
          [mem_access_cow] return. {!run} skips the per-instruction
          cycle-cap test for a block whose {!block_cycle_bound} cannot
          reach the cap, so budget and cycle-overflow stops are exact
          only if this bounds both closures *)
  cow_extra_cycles : int;  (** kernel cost of one COW page copy *)
  mul_cycles : int;
  div_cycles : int;
}

val block_cycle_bound : env -> Isa.Decoded.block -> int
(** The most one full execution of a decoded block charges (user + sys
    cycles) under an env: its fixed cycles, the env's mul and div costs,
    [max_access_cycles] per memory op and [cow_extra_cycles] per store.
    It is exact when every access costs [max_access_cycles] and either
    every store copies a COW page or [cow_extra_cycles = 0]. *)

type t

val create :
  ?max_skid:int ->
  ?max_insn_overcount:int ->
  ?block_cache:int ->
  rng:Util.Rng.t ->
  program:Isa.Program.t ->
  aspace:Mem.Address_space.t ->
  unit ->
  t
(** [max_skid] (default 6) bounds counter-overflow skid in branches;
    [max_insn_overcount] (default 3) bounds the spurious increment the
    instruction counter suffers at each trap. [rng] drives both noise
    sources; give each CPU its own split stream. [block_cache] is the
    decoded-block cache capacity in blocks ([<= 0] disables; default
    {!default_block_cache}); the cache is an interpreter speedup with
    {e no} architectural effect (DESIGN.md §15). *)

val fork : t -> rng:Util.Rng.t -> aspace:Mem.Address_space.t -> t
(** Duplicate architectural state (registers, pc) onto a new address
    space. Counters, breakpoints and armed events are {e not} inherited
    (a fresh process starts with quiesced monitoring hardware), matching
    the runtime's behaviour of configuring each checker explicitly. The
    child inherits the parent's {e current} code image — patches
    included — with a cold block cache of the same capacity. *)

val default_block_cache : unit -> int
(** Process-wide default block-cache capacity used by {!create} when
    [?block_cache] is omitted: 4096 blocks unless
    {!set_default_block_cache} changed it. [<= 0] means disabled. *)

val set_default_block_cache : int -> unit
(** Override the process-wide default (e.g. a differential harness
    flipping the cache off for a whole campaign). Affects CPUs created
    afterwards only. *)

val run : t -> env:env -> max_cycles:int -> run_result
(** Execute until the cycle budget is spent or a stop condition arises.
    [max_cycles] must be positive. *)

(** {2 Architectural state access (the ptrace register file)} *)

val program : t -> Isa.Program.t
(** The program this CPU was loaded from — its {e original} code image;
    see {!code_insn} for the live, possibly patched stream. *)

val code_insn : t -> int -> Isa.Insn.t option
(** The instruction this CPU would fetch at a pc, from its live code
    image (reflects {!patch_code}); [None] out of bounds. *)

val patch_code : t -> pc:int -> Isa.Insn.t -> (unit, string) result
(** Overwrite the instruction at [pc] in this CPU's code image (the
    [patch_code] syscall's backend — the Harvard-layout analogue of a
    store to a code page). Bumps the code page's generation so cached
    decoded blocks spanning it are invalidated on next lookup. Errors
    on an out-of-range pc or an instruction failing {!Isa.Insn.check};
    no effect on other CPUs (each has its own image), but a subsequent
    {!fork} inherits the patched stream. *)

val aspace : t -> Mem.Address_space.t
val get_reg : t -> int -> int
val set_reg : t -> int -> int -> unit
val get_pc : t -> int
val set_pc : t -> int -> unit
val snapshot_regs : t -> int array
val restore_regs : t -> int array -> unit

(** {2 Performance counters} *)

val branches : t -> int
(** Retired user-mode branches — deterministic. *)

val instructions : t -> int
(** Retired instructions {e as the hardware counter reports them},
    including trap-overcount noise. *)

val cycles : t -> int
(** Total cycles this CPU has consumed (user + sys). *)

val sys_cycles_total : t -> int

val arm_branch_overflow : t -> target:int -> unit
(** Request a {!Counter_overflow_stop} once [branches t >= target + skid]
    with a fresh skid draw in [\[0, max_skid\]]. Re-arming replaces the
    previous target. *)

val disarm_branch_overflow : t -> unit

val max_skid : t -> int

val arm_cycle_overflow : t -> target:int -> unit
(** Request a {!Cycle_overflow_stop} once [cycles t >= target]. Imprecise
    interrupts are fine here: segment boundaries may fall anywhere. *)

val arm_insn_overflow : t -> target:int -> unit
(** Request an {!Insn_overflow_stop} once [instructions t >= target]. *)

val disarm_insn_overflow : t -> unit

(** {2 Breakpoints} *)

val set_breakpoint : t -> int -> unit
val clear_breakpoint : t -> int -> unit
val clear_all_breakpoints : t -> unit

(** {2 Tracing controls} *)

val set_nondet_trap : t -> bool -> unit
(** When true (a traced process), [rdtsc]/[rdcoreid]/[rdrand] stop the
    CPU with {!Nondet_stop} instead of executing. *)

(** {2 Fault injection} *)

val arm_fault_injection : t -> after_instructions:int -> reg:int -> bit:int -> unit
(** Silently flip [bit] (0-63) of register [reg] after a further
    [after_instructions] retired instructions. Registers are the ISA's
    63-bit native ints, so a bit-63 flip is architecturally masked (a
    no-op that still counts as {!fault_injected} — the fault landed in
    a bit the core never reads).

    @raise Invalid_argument on an out-of-range register or bit. *)

val arm_memory_fault_injection :
  t -> after_instructions:int -> page_index:int -> bit:int -> unit
(** Like {!arm_fault_injection}, but the flip lands in memory: [bit]
    (0-63) of the first word of the [page_index]-th mapped page (mod
    the mapped-page count) of this CPU's address space. The flip goes
    through the normal store path, so it breaks COW and marks the page
    dirty like any wrong-value store; a flip landing on a
    write-protected page is masked. Re-arming replaces any armed
    injection (the port holds one fault at a time).

    @raise Invalid_argument on an out-of-range page index or bit. *)

val disarm_fault_injection : t -> unit

val fault_injected : t -> bool
(** Whether an armed injection has fired. *)

(** {2 Block-cache statistics} *)

val block_cache_enabled : t -> bool

val block_cache_stats : t -> int * int * int
(** [(hits, misses, invalidations)] of this CPU's decoded-block cache
    since creation; all zero when the cache is disabled. Invalidations
    (a subset of misses) count cached blocks dropped because
    {!patch_code} bumped a code page they span. *)
