type pid = int

type pstate =
  | Runnable
  | Stopped
  | Exited of int

type event =
  | Syscall_entry of Syscall.call
  | Nondet of Isa.Insn.t
  | Breakpoint
  | Branch_overflow
  | Cycle_overflow
  | Insn_overflow
  | Signal of Sig_num.t
  | Fault of Machine.Cpu.fault
  | Halted

type t = {
  plat : Platform.t;
  block_cache : int; (* decoded-block cache capacity for spawned CPUs *)
  rng : Util.Rng.t;
  alloc : Mem.Frame.allocator;
  filesystem : File.fs;
  mutable now : int;
  procs : (pid, process) Hashtbl.t;
  mutable next_pid : int;
  cores : core array;
  clusters : cluster_state array;
  mutable dram_mult : float;
  mutable dram_quantum_accesses : int;
  mutable dram_total : int;
  mutable energy_big : float;
  mutable energy_little : float;
  mutable energy_dram : float;
  mutable energy_static : float;
  mutable runtime_work : float;
  mutable ticks : tick list;
  mutable live : int;
  mutable event_time : float;
  mutable obs : Obs.Sink.t option;
}

and tracer = t -> pid -> event -> unit

and process = {
  pid : pid;
  cpu : Machine.Cpu.t;
  tracer : tracer option;
  mutable state : pstate;
  mutable core : int;
  mutable resume_at_ns : float;
  fd_table : (int, File.open_file) Hashtbl.t;
  mutable next_fd : int;
  mutable brk : int;
  mutable mmap_cursor : int;
  (* Per-process entropy stream (fleet mode): when set, ASLR gap and
     getrandom draws come from here instead of the engine-global rng, so
     a process's address-space layout depends only on its own stream —
     not on how other tenants' draws interleave with it. [None] (the
     default) preserves the engine-global draw order bit for bit. *)
  prng : Util.Rng.t option;
  sig_handlers : (int, int) Hashtbl.t;
  mutable sig_stack : (int * int array) list;
  pending_signals : int Queue.t;
  mutable user_ns : float;
  mutable sys_ns : float;
  started_ns : int;
  mutable ended_ns : int;
}

and core = {
  core_id : int;
  cluster_idx : int;
  l1 : Mem.Fifo_cache.t;
  mutable assigned : pid list;
  mutable busy_ns : float;
}

and cluster_state = {
  desc : Platform.cluster;
  mutable level : int;
  l2 : Mem.Fifo_cache.t;
}

and tick = {
  every_ns : int;
  mutable next_at : int;
  fn : t -> unit;
}

(* The scheduling quantum: simulated time advances in these steps. *)
let quantum_ns = 20_000

let create ?block_cache ~platform ~seed () =
  let block_cache =
    match block_cache with
    | Some c -> c
    | None -> Machine.Cpu.default_block_cache ()
  in
  let rng = Util.Rng.create ~seed in
  let clusters =
    Array.map
      (fun (c : Platform.cluster) ->
        {
          desc = c;
          level = c.Platform.default_level;
          l2 = Mem.Fifo_cache.create ~capacity:c.Platform.l2_pages;
        })
      platform.Platform.clusters
  in
  let cores =
    let rec build cluster_idx offset acc =
      if cluster_idx >= Array.length platform.Platform.clusters then
        List.rev acc |> Array.of_list
      else
        let c = platform.Platform.clusters.(cluster_idx) in
        let cores_here =
          List.init c.Platform.n_cores (fun i ->
              {
                core_id = offset + i;
                cluster_idx;
                l1 = Mem.Fifo_cache.create ~capacity:c.Platform.l1_pages;
                assigned = [];
                busy_ns = 0.0;
              })
        in
        build (cluster_idx + 1) (offset + c.Platform.n_cores)
          (List.rev_append cores_here acc)
    in
    build 0 0 []
  in
  {
    plat = platform;
    block_cache;
    rng;
    alloc = Mem.Frame.allocator ~page_size:platform.Platform.page_size;
    filesystem = File.create_fs ~rng:(Util.Rng.split rng);
    now = 0;
    procs = Hashtbl.create 32;
    next_pid = 1;
    cores;
    clusters;
    dram_mult = 1.0;
    dram_quantum_accesses = 0;
    dram_total = 0;
    energy_big = 0.0;
    energy_little = 0.0;
    energy_dram = 0.0;
    energy_static = 0.0;
    runtime_work = 0.0;
    ticks = [];
    live = 0;
    event_time = 0.0;
    obs = None;
  }

let platform t = t.plat
let fs t = t.filesystem
let now_ns t = t.now
let frame_allocator t = t.alloc

(* Fine-grained simulated time: within a quantum [event_time] tracks the
   moment of the event being dispatched, while [now] only advances per
   quantum. Observability timestamps use this so traces resolve events
   inside a quantum. *)
let time_ns t = int_of_float (Float.max t.event_time (float_of_int t.now))

let set_obs t sink = t.obs <- Some sink

(* The one route from a run to its sink: every layer above (pipeline
   stages, checker pool, fleet) emits through these, stamped with
   [time_ns]; each is a no-op without a sink. *)
let emit t ~track ~phase ?args name =
  match t.obs with
  | None -> ()
  | Some s -> Obs.Sink.emit s ~ts_ns:(time_ns t) ~track ~phase ?args name

let observe t name v =
  match t.obs with
  | None -> ()
  | Some s -> Obs.Sink.observe s name v

let phase_enter t ~track ?segment name =
  match t.obs with
  | None -> ()
  | Some s -> Obs.Sink.phase_enter s ~ts_ns:(time_ns t) ~track ?segment name

let phase_leave t ~track name =
  match t.obs with
  | None -> ()
  | Some s -> Obs.Sink.phase_leave s ~ts_ns:(time_ns t) ~track name

let phase_add t ~tracks ?segment name ns =
  match t.obs with
  | None -> ()
  | Some s -> Obs.Sink.phase_add s ~ts_ns:(time_ns t) ~tracks ?segment name ns

let phase_close_all t =
  match t.obs with
  | None -> ()
  | Some s -> Obs.Sink.phase_close_all s ~ts_ns:(time_ns t)

let n_cores t = Array.length t.cores

let cores_of_cluster t idx =
  Array.to_list t.cores
  |> List.filter_map (fun c -> if c.cluster_idx = idx then Some c.core_id else None)

let big_cores t = cores_of_cluster t 0
let little_cores t = cores_of_cluster t 1

let set_dvfs_level t ~cluster ~level =
  let cl = t.clusters.(cluster) in
  if level < 0 || level >= Array.length cl.desc.Platform.freq_levels_mhz then
    invalid_arg "Engine.set_dvfs_level: level out of range";
  if cl.level <> level then
    emit t ~track:Obs.Trace.Run ~phase:Obs.Trace.Counter
      ~args:[ ("level", Obs.Trace.Int level) ]
      (Printf.sprintf "dvfs.cluster%d" cluster);
  cl.level <- level

let dvfs_level t ~cluster = t.clusters.(cluster).level

let proc t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Engine: unknown pid %d" pid)

let state t pid = (proc t pid).state

let exit_status t pid =
  match (proc t pid).state with Exited s -> Some s | Runnable | Stopped -> None

let cpu t pid = (proc t pid).cpu
let aspace t pid = Machine.Cpu.aspace (proc t pid).cpu
let core_of t pid = (proc t pid).core

let eff_hz_of_core t core =
  let cl = t.clusters.(core.cluster_idx) in
  Platform.effective_hz cl.desc ~level:cl.level

let cycles_to_ns t core cycles = float_of_int cycles *. 1e9 /. eff_hz_of_core t core

let resume t pid =
  let p = proc t pid in
  match p.state with
  | Stopped -> p.state <- Runnable
  | Runnable -> ()
  | Exited _ -> invalid_arg "Engine.resume: process has exited"

let remove_from_core t p =
  let core = t.cores.(p.core) in
  core.assigned <- List.filter (fun pid -> pid <> p.pid) core.assigned

let mark_exited t p status =
  match p.state with
  | Exited _ -> ()
  | Runnable | Stopped ->
    p.state <- Exited status;
    emit t ~track:(Obs.Trace.Proc p.pid) ~phase:Obs.Trace.Instant
      ~args:[ ("status", Obs.Trace.Int status) ]
      "exit";
    p.ended_ns <- int_of_float (Float.max t.event_time (float_of_int t.now));
    Mem.Page_table.free_all (Mem.Address_space.page_table (Machine.Cpu.aspace p.cpu));
    remove_from_core t p;
    t.live <- t.live - 1

let suspend t pid =
  let p = proc t pid in
  match p.state with
  | Runnable -> p.state <- Stopped
  | Stopped -> ()
  | Exited _ -> invalid_arg "Engine.suspend: process has exited"

let kill t pid =
  let p = proc t pid in
  mark_exited t p (Sig_num.exit_status Sig_num.sigkill)

let force_exit t pid ~status = mark_exited t (proc t pid) status

let set_core t pid ~core =
  if core < 0 || core >= Array.length t.cores then
    invalid_arg "Engine.set_core: no such core";
  let p = proc t pid in
  (match p.state with
  | Exited _ -> invalid_arg "Engine.set_core: process has exited"
  | Runnable | Stopped -> ());
  if p.core <> core then begin
    remove_from_core t p;
    p.core <- core;
    t.cores.(core).assigned <- t.cores.(core).assigned @ [ pid ]
  end

let send_signal t pid signum =
  let p = proc t pid in
  match p.state with
  | Exited _ -> ()
  | Runnable | Stopped -> Queue.add signum p.pending_signals

let delay t pid ~ns =
  if ns < 0.0 then invalid_arg "Engine.delay: negative";
  let p = proc t pid in
  let base = Float.max p.resume_at_ns t.event_time in
  p.resume_at_ns <- base +. ns;
  t.runtime_work <- t.runtime_work +. ns

(* Account kernel work (in the core's cycles) to the process: adds
   system time and stop latency. *)
let charge_sys_cycles t pid cycles =
  let p = proc t pid in
  let ns = cycles_to_ns t t.cores.(p.core) cycles in
  p.sys_ns <- p.sys_ns +. ns;
  let base = Float.max p.resume_at_ns t.event_time in
  p.resume_at_ns <- base +. ns

(* ------------------------------------------------------------------ *)
(* Process creation                                                     *)

let open_std_fds fd_table =
  Hashtbl.replace fd_table 1 { File.kind = File.Stdout; offset = 0 };
  Hashtbl.replace fd_table 2 { File.kind = File.Stderr; offset = 0 }

let fresh_mmap_cursor t =
  t.plat.Platform.mmap_area_base
  + (Util.Rng.int t.rng t.plat.Platform.aslr_entropy_pages
    * t.plat.Platform.page_size)

let add_process t p =
  Hashtbl.replace t.procs p.pid p;
  t.cores.(p.core).assigned <- t.cores.(p.core).assigned @ [ p.pid ];
  t.live <- t.live + 1

let spawn t ?tracer ?prng ~program ~core () =
  if core < 0 || core >= Array.length t.cores then
    invalid_arg "Engine.spawn: no such core";
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let aspace = Mem.Address_space.create t.alloc in
  List.iter
    (fun { Isa.Program.base; bytes } ->
      Mem.Address_space.write_bytes_map aspace ~addr:base bytes)
    program.Isa.Program.data;
  let cpu_rng =
    (* The per-process stream, when given, also seeds the CPU's skid
       rng, so even counter-skid nondeterminism is tenant-local. *)
    match prng with Some r -> Util.Rng.split r | None -> Util.Rng.split t.rng
  in
  let cpu =
    Machine.Cpu.create ~max_skid:t.plat.Platform.max_skid
      ~max_insn_overcount:t.plat.Platform.max_insn_overcount
      ~block_cache:t.block_cache ~rng:cpu_rng ~program ~aspace
      ()
  in
  Machine.Cpu.set_nondet_trap cpu (Option.is_some tracer);
  let fd_table = Hashtbl.create 8 in
  open_std_fds fd_table;
  let p =
    {
      pid;
      cpu;
      tracer;
      state = Runnable;
      core;
      resume_at_ns = float_of_int t.now;
      fd_table;
      next_fd = 3;
      brk = program.Isa.Program.initial_brk;
      mmap_cursor =
        (match prng with
        | Some r ->
          t.plat.Platform.mmap_area_base
          + (Util.Rng.int r t.plat.Platform.aslr_entropy_pages
            * t.plat.Platform.page_size)
        | None -> fresh_mmap_cursor t);
      prng;
      sig_handlers = Hashtbl.create 4;
      sig_stack = [];
      pending_signals = Queue.create ();
      user_ns = 0.0;
      sys_ns = 0.0;
      started_ns = t.now;
      ended_ns = 0;
    }
  in
  add_process t p;
  pid

let fork_process t parent_pid =
  let parent = proc t parent_pid in
  (match parent.state with
  | Stopped -> ()
  | Runnable | Exited _ ->
    invalid_arg "Engine.fork_process: parent must be stopped");
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let child_aspace = Mem.Address_space.fork (Machine.Cpu.aspace parent.cpu) in
  let child_cpu =
    Machine.Cpu.fork parent.cpu ~rng:(Util.Rng.split t.rng) ~aspace:child_aspace
  in
  Machine.Cpu.set_nondet_trap child_cpu (Option.is_some parent.tracer);
  let fd_table = Hashtbl.create 8 in
  Hashtbl.iter
    (fun fd (of_ : File.open_file) ->
      Hashtbl.replace fd_table fd { File.kind = of_.kind; offset = of_.offset })
    parent.fd_table;
  let sig_handlers = Hashtbl.copy parent.sig_handlers in
  let child =
    {
      pid;
      cpu = child_cpu;
      tracer = parent.tracer;
      state = Stopped;
      core = parent.core;
      resume_at_ns = Float.max parent.resume_at_ns t.event_time;
      fd_table;
      next_fd = parent.next_fd;
      brk = parent.brk;
      mmap_cursor = parent.mmap_cursor;
      (* A copy, not a split: a snapshot promoted to main by a rollback
         re-executes the same mmap/getrandom draws the original made,
         keeping the recovered run's layout identical. Checkers never
         draw (their mmaps replay MAP_FIXED, their getrandoms replay
         recorded results), so the copy is inert for them. *)
      prng = Option.map Util.Rng.copy parent.prng;
      sig_handlers;
      sig_stack = parent.sig_stack;
      pending_signals = Queue.create ();
      user_ns = 0.0;
      sys_ns = 0.0;
      started_ns = t.now;
      ended_ns = 0;
    }
  in
  add_process t child;
  (* Fork cost: page-table copy, charged to the parent. *)
  let mapped =
    Mem.Page_table.mapped_count
      (Mem.Address_space.page_table (Machine.Cpu.aspace parent.cpu))
  in
  let cycles =
    t.plat.Platform.fork_base_cycles
    + (mapped * t.plat.Platform.fork_per_page_cycles)
  in
  let cost_ns = cycles_to_ns t t.cores.(parent.core) cycles in
  emit t ~track:(Obs.Trace.Proc parent_pid) ~phase:Obs.Trace.Instant
    ~args:
      [
        ("child", Obs.Trace.Int pid);
        ("pages", Obs.Trace.Int mapped);
        ("cost_ns", Obs.Trace.Int (int_of_float cost_ns));
      ]
    "fork";
  observe t "fork.cost_ns" cost_ns;
  observe t "fork.pages" (float_of_int mapped);
  (* Phase attribution: the page-table copy is a zero-width charge
     against whatever phase scope is open for the forking process (its
     core's timeline first, its pid track second). *)
  phase_add t
    ~tracks:[ Obs.Trace.Core parent.core; Obs.Trace.Proc parent_pid ]
    "fork" (int_of_float cost_ns);
  charge_sys_cycles t parent_pid cycles;
  pid

(* ------------------------------------------------------------------ *)
(* Signals                                                              *)

let deliver_signal_now t pid signum =
  let p = proc t pid in
  (match p.state with
  | Exited _ -> ()
  | Runnable | Stopped ->
    (match Hashtbl.find_opt p.sig_handlers signum with
    | Some handler_pc when Sig_num.is_catchable signum ->
      p.sig_stack <-
        (Machine.Cpu.get_pc p.cpu, Machine.Cpu.snapshot_regs p.cpu)
        :: p.sig_stack;
      Machine.Cpu.set_pc p.cpu handler_pc
    | Some _ | None -> mark_exited t p (Sig_num.exit_status signum)))

(* ------------------------------------------------------------------ *)
(* Kernel: syscall execution                                            *)

let complete_syscall t pid ~result =
  let p = proc t pid in
  Machine.Cpu.set_reg p.cpu 0 result;
  Machine.Cpu.set_pc p.cpu (Machine.Cpu.get_pc p.cpu + 1)

let page_align_up t len =
  let ps = t.plat.Platform.page_size in
  (len + ps - 1) / ps * ps

let kernel_mmap t p call =
  match call with
  | Syscall.Mmap { addr; len; prot; flags; fd; off } ->
    if len = 0 then -22 (* EINVAL *)
    else begin
      let len = page_align_up t len in
      let base =
        if flags land Syscall.map_fixed <> 0 then addr
        else begin
          (* ASLR: each allocation lands at the cursor plus fresh entropy
             (from the process's own stream when it has one). *)
          let gap_rng = match p.prng with Some r -> r | None -> t.rng in
          let gap = Util.Rng.int gap_rng 16 * t.plat.Platform.page_size in
          let base = p.mmap_cursor + gap in
          p.mmap_cursor <- base + len + t.plat.Platform.page_size;
          base
        end
      in
      let aspace = Machine.Cpu.aspace p.cpu in
      if flags land Syscall.map_fixed <> 0 then
        Mem.Address_space.unmap_range aspace ~addr:base ~len;
      let protection =
        if prot land Syscall.prot_write <> 0 then Mem.Page_table.Read_write
        else Mem.Page_table.Read_only
      in
      (* Map writable first so file contents can be copied in. *)
      Mem.Address_space.map_range aspace ~addr:base ~len Mem.Page_table.Read_write;
      (if flags land Syscall.map_anon = 0 then
         match Hashtbl.find_opt p.fd_table fd with
         | None -> ()
         | Some of_ ->
           let saved = of_.File.offset in
           of_.File.offset <- off;
           let data = File.read t.filesystem of_ ~len in
           of_.File.offset <- saved;
           ignore (Mem.Address_space.write_bytes aspace ~addr:base data));
      if protection = Mem.Page_table.Read_only then begin
        let pt = Mem.Address_space.page_table aspace in
        let first = Mem.Address_space.vpn_of_addr aspace base in
        let last = Mem.Address_space.vpn_of_addr aspace (base + len - 1) in
        for vpn = first to last do
          Mem.Page_table.set_protection pt ~vpn Mem.Page_table.Read_only
        done
      end;
      base
    end
  | _ -> assert false

(* Execute the syscall [p] is stopped on, at simulated time
   [t.event_time]. Sets the result register, advances the pc, charges
   kernel time. *)
let do_syscall_internal t p =
  let call = Syscall.decode p.cpu in
  let aspace = Machine.Cpu.aspace p.cpu in
  let base_cost = t.plat.Platform.syscall_base_cycles in
  let finish ?(extra_cost = 0) result =
    complete_syscall t p.pid ~result;
    charge_sys_cycles t p.pid (base_cost + extra_cost)
  in
  match call with
  | Syscall.Exit status ->
    charge_sys_cycles t p.pid base_cost;
    mark_exited t p status
  | Syscall.Write { fd; addr; len } -> (
    match Hashtbl.find_opt p.fd_table fd with
    | None -> finish (-9) (* EBADF *)
    | Some of_ -> (
      try
        let data = Mem.Address_space.read_bytes aspace ~addr ~len in
        let written = File.write t.filesystem of_ data in
        finish ~extra_cost:(len / 32) written
      with Mem.Address_space.Segfault _ -> finish (-14) (* EFAULT *)))
  | Syscall.Read { fd; addr; len } -> (
    match Hashtbl.find_opt p.fd_table fd with
    | None -> finish (-9)
    | Some of_ -> (
      try
        let data = File.read t.filesystem of_ ~len in
        ignore (Mem.Address_space.write_bytes aspace ~addr data);
        finish ~extra_cost:(Bytes.length data / 32) (Bytes.length data)
      with Mem.Address_space.Segfault _ -> finish (-14)))
  | Syscall.Open { path_addr; path_len; flags } -> (
    try
      let path =
        Bytes.to_string (Mem.Address_space.read_bytes aspace ~addr:path_addr ~len:path_len)
      in
      match
        File.lookup t.filesystem ~path ~create:(flags land Syscall.o_create <> 0)
      with
      | None -> finish (-2) (* ENOENT *)
      | Some kind ->
        let fd = p.next_fd in
        p.next_fd <- fd + 1;
        Hashtbl.replace p.fd_table fd { File.kind; offset = 0 };
        finish fd
    with Mem.Address_space.Segfault _ -> finish (-14))
  | Syscall.Close { fd } ->
    if Hashtbl.mem p.fd_table fd then begin
      Hashtbl.remove p.fd_table fd;
      finish 0
    end
    else finish (-9)
  | Syscall.Brk { addr } ->
    if addr <= 0 then finish p.brk
    else begin
      if addr > p.brk then
        Mem.Address_space.map_range aspace ~addr:p.brk ~len:(addr - p.brk)
          Mem.Page_table.Read_write
      else if addr < p.brk then
        Mem.Address_space.unmap_range aspace ~addr ~len:(p.brk - addr);
      p.brk <- addr;
      finish addr
    end
  | Syscall.Mmap _ as call ->
    let result = kernel_mmap t p call in
    finish ~extra_cost:(if result > 0 then 200 else 0) result
  | Syscall.Munmap { addr; len } ->
    Mem.Address_space.unmap_range aspace ~addr ~len;
    finish 0
  | Syscall.Mprotect { addr; len; prot } ->
    if len = 0 then finish 0
    else begin
      let pt = Mem.Address_space.page_table aspace in
      let first = Mem.Address_space.vpn_of_addr aspace addr in
      let last = Mem.Address_space.vpn_of_addr aspace (addr + len - 1) in
      let ok = ref true in
      for vpn = first to last do
        if Mem.Page_table.is_mapped pt ~vpn then
          Mem.Page_table.set_protection pt ~vpn
            (if prot land Syscall.prot_write <> 0 then Mem.Page_table.Read_write
             else Mem.Page_table.Read_only)
        else ok := false
      done;
      finish (if !ok then 0 else -12)
    end
  | Syscall.Getpid -> finish p.pid
  | Syscall.Gettime -> finish (int_of_float t.event_time)
  | Syscall.Sigaction { signum; handler_pc } ->
    if signum <= 0 || not (Sig_num.is_catchable signum) then finish (-22)
    else begin
      if handler_pc < 0 then Hashtbl.remove p.sig_handlers signum
      else Hashtbl.replace p.sig_handlers signum handler_pc;
      finish 0
    end
  | Syscall.Sigreturn -> (
    match p.sig_stack with
    | [] -> finish (-22)
    | (pc, regs) :: rest ->
      p.sig_stack <- rest;
      Machine.Cpu.restore_regs p.cpu regs;
      Machine.Cpu.set_pc p.cpu pc;
      charge_sys_cycles t p.pid base_cost)
  | Syscall.Getrandom { addr; len } -> (
    try
      let data = Bytes.create len in
      let rand_rng = match p.prng with Some r -> r | None -> t.rng in
      for i = 0 to len - 1 do
        Bytes.unsafe_set data i (Char.unsafe_chr (Util.Rng.int rand_rng 256))
      done;
      ignore (Mem.Address_space.write_bytes aspace ~addr data);
      finish ~extra_cost:(len / 16) len
    with Mem.Address_space.Segfault _ -> finish (-14))
  | Syscall.Patch_code { pc; word } -> (
    (* The icache-flush analogue dominates the cost of a code write. *)
    match Isa.Insn.decode word with
    | None -> finish (-22) (* EINVAL: not an encodable instruction *)
    | Some insn -> (
      match Machine.Cpu.patch_code p.cpu ~pc insn with
      | Ok () -> finish ~extra_cost:50 0
      | Error _ -> finish (-14) (* EFAULT: pc outside the code image *)))
  | Syscall.Unknown _ -> finish (-38) (* ENOSYS *)

let do_syscall t pid = do_syscall_internal t (proc t pid)

(* ------------------------------------------------------------------ *)
(* Event dispatch                                                       *)

let event_of_stop stop =
  match (stop : Machine.Cpu.stop_reason) with
  | Machine.Cpu.Syscall_stop -> None (* rebuilt with decoded call below *)
  | Machine.Cpu.Nondet_stop insn -> Some (Nondet insn)
  | Machine.Cpu.Breakpoint_stop -> Some Breakpoint
  | Machine.Cpu.Counter_overflow_stop -> Some Branch_overflow
  | Machine.Cpu.Cycle_overflow_stop -> Some Cycle_overflow
  | Machine.Cpu.Insn_overflow_stop -> Some Insn_overflow
  | Machine.Cpu.Fault_stop f -> Some (Fault f)
  | Machine.Cpu.Halted -> Some Halted
  | Machine.Cpu.Budget_exhausted -> assert false

let dispatch_traced t p tracer stop =
  p.state <- Stopped;
  let latency = t.plat.Platform.tracer_stop_ns in
  p.resume_at_ns <- t.event_time +. latency;
  t.runtime_work <- t.runtime_work +. latency;
  let ev =
    match (stop : Machine.Cpu.stop_reason) with
    | Machine.Cpu.Syscall_stop -> Syscall_entry (Syscall.decode p.cpu)
    | other -> (
      match event_of_stop other with Some ev -> ev | None -> assert false)
  in
  tracer t p.pid ev

let dispatch_untraced t p stop =
  match (stop : Machine.Cpu.stop_reason) with
  | Machine.Cpu.Syscall_stop -> do_syscall_internal t p
  | Machine.Cpu.Halted -> mark_exited t p 0
  | Machine.Cpu.Fault_stop f ->
    let signum =
      match f with
      | Machine.Cpu.Segv _ | Machine.Cpu.Bad_pc _ -> Sig_num.sigsegv
      | Machine.Cpu.Div_by_zero -> Sig_num.sigfpe
    in
    (* Faulting instruction would re-execute: handlers here must fix state
       or the default action terminates. We only support termination or a
       handler that jumps elsewhere via sigreturn-less longjmp style. *)
    deliver_signal_now t p.pid signum
  | Machine.Cpu.Nondet_stop _ ->
    (* Untraced CPUs execute nondet instructions natively. *)
    assert false
  | Machine.Cpu.Breakpoint_stop | Machine.Cpu.Counter_overflow_stop
  | Machine.Cpu.Cycle_overflow_stop | Machine.Cpu.Insn_overflow_stop ->
    (* Nothing armed these for untraced processes; ignore. *)
    ()
  | Machine.Cpu.Budget_exhausted -> assert false

let dispatch t p stop =
  match p.tracer with
  | Some tracer -> dispatch_traced t p tracer stop
  | None -> dispatch_untraced t p stop

let dispatch_pending_signal t p =
  if Queue.is_empty p.pending_signals then false
  else begin
    let signum = Queue.pop p.pending_signals in
    (match p.tracer with
    | Some tracer ->
      p.state <- Stopped;
      let latency = t.plat.Platform.tracer_stop_ns in
      p.resume_at_ns <- Float.max p.resume_at_ns t.event_time +. latency;
      t.runtime_work <- t.runtime_work +. latency;
      tracer t p.pid (Signal signum)
    | None -> deliver_signal_now t p.pid signum);
    true
  end

(* ------------------------------------------------------------------ *)
(* The quantum loop                                                     *)

let make_env t core =
  let cl = t.clusters.(core.cluster_idx) in
  let eff_hz = Platform.effective_hz cl.desc ~level:cl.level in
  let ns_to_cycles ns = int_of_float (ns *. eff_hz /. 1e9) in
  let l2_cycles = ns_to_cycles cl.desc.Platform.l2_hit_extra_ns in
  let dram_cycles = ns_to_cycles (t.plat.Platform.dram_extra_ns *. t.dram_mult) in
  let cow_cycles =
    t.plat.Platform.cow_fixed_cycles
    + (t.plat.Platform.page_size / t.plat.Platform.cow_bytes_per_cycle)
  in
  let l1 = core.l1 and l2 = cl.l2 in
  {
    Machine.Cpu.core_id = core.core_id;
    read_tsc = (fun () -> t.now);
    read_rand = (fun () -> Util.Rng.bits64 t.rng);
    mem_access =
      (fun ~write ~frame ->
        ignore write;
        if Mem.Fifo_cache.touch l1 frame then 0
        else if Mem.Fifo_cache.touch l2 frame then l2_cycles
        else begin
          t.dram_quantum_accesses <- t.dram_quantum_accesses + 1;
          t.dram_total <- t.dram_total + 1;
          dram_cycles
        end);
    mem_access_cow =
      (fun ~frame ~old_frame ->
        (* The kernel's COW copy left the page warm: install it without
           charging a cold miss, and invalidate the retired frame (dead
           to this cluster; recency-based replacement would age it
           out). *)
        Mem.Fifo_cache.remove l1 old_frame;
        Mem.Fifo_cache.remove l2 old_frame;
        ignore (Mem.Fifo_cache.touch l1 frame);
        ignore (Mem.Fifo_cache.touch l2 frame);
        l2_cycles);
    (* Exact: the two closures return 0, [l2_cycles] or [dram_cycles],
       all fixed for the life of this env. *)
    max_access_cycles = Int.max l2_cycles dram_cycles;
    cow_extra_cycles = cow_cycles;
    mul_cycles = 3;
    div_cycles = 12;
  }

let pick_runnable t core budget_end =
  let ready pid =
    let p = proc t pid in
    match p.state with
    | Runnable -> p.resume_at_ns < budget_end
    | Stopped | Exited _ -> false
  in
  let rec find = function
    | [] -> None
    | pid :: rest -> if ready pid then Some pid else find rest
  in
  match find core.assigned with
  | None -> None
  | Some pid ->
    (* Round-robin: move the chosen pid to the back for the next quantum. *)
    core.assigned <- List.filter (fun q -> q <> pid) core.assigned @ [ pid ];
    Some pid

let run_core t core =
  core.busy_ns <- 0.0;
  let budget_end = float_of_int (t.now + quantum_ns) in
  match pick_runnable t core budget_end with
  | None -> ()
  | Some pid ->
    let p = proc t pid in
    let eff_hz = eff_hz_of_core t core in
    let env = make_env t core in
    let continue_running = ref true in
    let t_local = ref (Float.max (float_of_int t.now) p.resume_at_ns) in
    while !continue_running do
      if p.state <> Runnable || p.core <> core.core_id then continue_running := false
      else begin
        let t_start = Float.max !t_local p.resume_at_ns in
        if t_start >= budget_end then continue_running := false
        else begin
          t.event_time <- t_start;
          if dispatch_pending_signal t p then t_local := t_start
          else begin
            let avail =
              int_of_float ((budget_end -. t_start) *. eff_hz /. 1e9)
            in
            if avail <= 0 then continue_running := false
            else begin
              let res = Machine.Cpu.run p.cpu ~env ~max_cycles:avail in
              let user_ns = float_of_int res.Machine.Cpu.user_cycles *. 1e9 /. eff_hz in
              let sys_ns = float_of_int res.Machine.Cpu.sys_cycles *. 1e9 /. eff_hz in
              (* Batched hot-path counters: one call per Cpu.run burst
                 (not per instruction) credits the retired work to the
                 pid's open phase scope, falling back to the core's. *)
              (match t.obs with
              | None -> ()
              | Some s ->
                Obs.Sink.phase_units s
                  ~tracks:[ Obs.Trace.Proc pid; Obs.Trace.Core core.core_id ]
                  ~insns:res.Machine.Cpu.insns_retired
                  ~blocks:res.Machine.Cpu.blocks_retired
                  ~decoded:res.Machine.Cpu.blocks_decoded);
              p.user_ns <- p.user_ns +. user_ns;
              p.sys_ns <- p.sys_ns +. sys_ns;
              core.busy_ns <- core.busy_ns +. user_ns +. sys_ns;
              let t_now = t_start +. user_ns +. sys_ns in
              t_local := t_now;
              p.resume_at_ns <- t_now;
              match res.Machine.Cpu.stop with
              | Machine.Cpu.Budget_exhausted -> continue_running := false
              | stop ->
                t.event_time <- t_now;
                dispatch t p stop
            end
          end
        end
      end
    done

let integrate_energy t =
  let q_s = float_of_int quantum_ns *. 1e-9 in
  Array.iter
    (fun core ->
      let cl = t.clusters.(core.cluster_idx) in
      let p_active = Platform.active_power_w cl.desc ~level:cl.level in
      let p_idle = cl.desc.Platform.idle_power_w in
      let busy_s = Float.min (core.busy_ns *. 1e-9) q_s in
      let e = (p_active *. busy_s) +. (p_idle *. (q_s -. busy_s)) in
      match cl.desc.Platform.kind with
      | Platform.Big -> t.energy_big <- t.energy_big +. e
      | Platform.Little -> t.energy_little <- t.energy_little +. e)
    t.cores;
  t.energy_dram <-
    t.energy_dram
    +. (t.plat.Platform.dram_static_w *. q_s)
    +. (float_of_int t.dram_quantum_accesses
       *. t.plat.Platform.dram_energy_per_access_nj *. 1e-9);
  t.energy_static <- t.energy_static +. (t.plat.Platform.soc_static_w *. q_s)

let update_contention t =
  let quantum_us = float_of_int quantum_ns /. 1000.0 in
  let rate = float_of_int t.dram_quantum_accesses /. quantum_us in
  let target =
    Float.max 1.0 (rate /. t.plat.Platform.dram_accesses_per_us_capacity)
  in
  t.dram_mult <- (0.7 *. t.dram_mult) +. (0.3 *. target);
  t.dram_quantum_accesses <- 0

let run_ticks t =
  List.iter
    (fun tick ->
      while tick.next_at <= t.now do
        tick.next_at <- tick.next_at + tick.every_ns;
        tick.fn t
      done)
    t.ticks

let add_tick t ~every_ns fn =
  if every_ns <= 0 then invalid_arg "Engine.add_tick: every_ns <= 0";
  t.ticks <- t.ticks @ [ { every_ns; next_at = t.now + every_ns; fn } ]

let step_quantum t =
  Array.iter (fun core -> run_core t core) t.cores;
  integrate_energy t;
  update_contention t;
  t.now <- t.now + quantum_ns;
  run_ticks t

let live_processes t = t.live

let run ?(max_ns = 1_000_000_000_0) t =
  while t.live > 0 && t.now < max_ns do
    step_quantum t
  done

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)

type proc_stats = {
  state : pstate;
  user_ns : float;
  sys_ns : float;
  started_ns : int;
  ended_ns : int;
}

let proc_stats t pid =
  let p = proc t pid in
  {
    state = p.state;
    user_ns = p.user_ns;
    sys_ns = p.sys_ns;
    started_ns = p.started_ns;
    ended_ns = (match p.state with Exited _ -> p.ended_ns | _ -> t.now);
  }

let energy_j t = t.energy_big +. t.energy_little +. t.energy_dram +. t.energy_static

let energy_breakdown_j t =
  [
    ("big", t.energy_big);
    ("little", t.energy_little);
    ("dram", t.energy_dram);
    ("static", t.energy_static);
  ]

let runtime_work_ns t = t.runtime_work

let pss_bytes t pids =
  List.fold_left
    (fun acc pid ->
      let p = proc t pid in
      match p.state with
      | Exited _ -> acc
      | Runnable | Stopped ->
        acc
        + Mem.Page_table.pss_bytes
            (Mem.Address_space.page_table (Machine.Cpu.aspace p.cpu)))
    0 pids

let dram_accesses t = t.dram_total

let block_cache_totals t =
  (* The process table retains exited processes, so this sums the whole
     simulation: every CPU ever spawned or forked. *)
  Hashtbl.fold
    (fun _ p (h, m, i) ->
      let bh, bm, bi = Machine.Cpu.block_cache_stats p.cpu in
      (h + bh, m + bm, i + bi))
    t.procs (0, 0, 0)

let output t = File.captured_stdout t.filesystem
