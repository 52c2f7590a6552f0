(* The replay kernel (see the interface): one set of replay handlers,
   instantiated by the live checker (Replayer) and offline re-checking
   (Offline) over their own world. *)

module E = Sim_os.Engine
module R = Seglog.Record

let read_mem_opt sp ~addr ~len =
  try Some (Mem.Address_space.read_bytes sp ~addr ~len)
  with Mem.Address_space.Segfault _ -> None

let syscall_in_data sp (call : Sim_os.Syscall.call) =
  match call with
  | Sim_os.Syscall.Write { addr; len; _ } -> read_mem_opt sp ~addr ~len
  | Sim_os.Syscall.Open { path_addr; path_len; _ } ->
    read_mem_opt sp ~addr:path_addr ~len:path_len
  | _ -> None

let fault_to_string (f : Machine.Cpu.fault) =
  match f with
  | Machine.Cpu.Segv { addr; write } ->
    Printf.sprintf "SIGSEGV at %#x (%s)" addr (if write then "write" else "read")
  | Machine.Cpu.Div_by_zero -> "SIGFPE (division by zero)"
  | Machine.Cpu.Bad_pc pc -> Printf.sprintf "control flow left the code (pc=%d)" pc

let reexecute eng pid ~pin_to (call : Sim_os.Syscall.call) =
  match (call, pin_to) with
  | Sim_os.Syscall.Mmap { addr; flags; _ }, Some at ->
    let cpu = E.cpu eng pid in
    Machine.Cpu.set_reg cpu 1 at;
    Machine.Cpu.set_reg cpu 4 (flags lor Sim_os.Syscall.map_fixed);
    E.do_syscall eng pid;
    Machine.Cpu.set_reg cpu 1 addr;
    Machine.Cpu.set_reg cpu 4 flags
  | _ -> E.do_syscall eng pid

let arm cpu ~origin_branches ~origin_insns ~signals ~end_point ~insn_delta
    ~timeout_scale ~fault ~segment ~attempt =
  let shift (at : Exec_point.t) =
    { at with Exec_point.branches = at.Exec_point.branches + origin_branches }
  in
  (* A RAFT streaming checker may already have executed past some signal
     points; only the remaining ones become targets. *)
  let pending =
    List.filter
      (fun ((at : Exec_point.t), _) ->
        at.Exec_point.branches >= Machine.Cpu.branches cpu)
      (List.map (fun (at, signum) -> (shift at, signum)) signals)
  in
  let replay =
    Exec_point.start_replay ~targets:(List.map fst pending @ [ shift end_point ]) ~cpu
  in
  (* The runaway kill switch: a diverged control flow that never reaches
     the end point must not spin until the simulation bound. *)
  let budget = max 1000 (int_of_float (timeout_scale *. float_of_int insn_delta)) in
  Machine.Cpu.arm_insn_overflow cpu ~target:(origin_insns + budget);
  (match fault with
  | Some plan when Fault.targets_checker plan && Fault.arms plan ~segment ~attempt ->
    Fault.arm_on_cpu cpu plan
  | Some _ | None -> ());
  (replay, pending)

module type WORLD = sig
  type t

  val eng : t -> E.t
  val pid : t -> E.pid
  val next_interaction : t -> R.event option
  val replay : t -> Exec_point.replay
  val pending_signals : t -> (Exec_point.t * Sim_os.Sig_num.t) list
  val set_pending_signals : t -> (Exec_point.t * Sim_os.Sig_num.t) list -> unit
  val fail : t -> Detection.outcome -> unit
  val at_end : t -> unit
  val await_log : t -> bool
  val settled : t -> bool
  val note_syscall : t -> Sim_os.Syscall.call -> unit
  val charge_answer : t -> bytes:int -> unit
end

module Make (W : WORLD) = struct
  let cpu w = E.cpu (W.eng w) (W.pid w)
  let resume w = E.resume (W.eng w) (W.pid w)
  let mismatch w m = W.fail w (Detection.Detected m)

  let replay_process_local w (rec_ : R.sys_record) call =
    let pin_to =
      match (call : Sim_os.Syscall.call) with
      | Sim_os.Syscall.Mmap { flags; _ } when flags land Sim_os.Syscall.map_anon <> 0 ->
        Some rec_.result
      | _ -> None
    in
    reexecute (W.eng w) (W.pid w) ~pin_to call;
    let got = Machine.Cpu.get_reg (cpu w) 0 in
    match (call : Sim_os.Syscall.call) with
    | _ when got = rec_.result -> resume w
    | Sim_os.Syscall.Sigreturn -> resume w (* r0 is the restored context *)
    | _ ->
      let name = Sim_os.Syscall.name call in
      mismatch w
        (Detection.Syscall_mismatch
           {
             expected = Printf.sprintf "%s = %d" name rec_.result;
             got = Printf.sprintf "%s = %d" name got;
           })

  (* Never re-executed: answered from the record, so external effects
     happen exactly once. *)
  let answer w (rec_ : R.sys_record) =
    E.complete_syscall (W.eng w) (W.pid w) ~result:rec_.result;
    let sp = E.aspace (W.eng w) (W.pid w) in
    let bytes =
      List.fold_left
        (fun n { R.addr; data } ->
          ignore (Mem.Address_space.write_bytes sp ~addr data);
          n + Bytes.length data)
        0 rec_.effects
    in
    W.charge_answer w ~bytes;
    resume w

  let on_syscall w call =
    W.note_syscall w call;
    let name = Sim_os.Syscall.name call in
    match W.next_interaction w with
    | None ->
      if not (W.await_log w) then
        mismatch w (Detection.Extra_interaction { got = name })
    | Some (R.Nondet _) ->
      mismatch w
        (Detection.Syscall_mismatch
           { expected = "nondeterministic instruction"; got = name })
    | Some (R.Ext_signal _) -> assert false (* never yielded *)
    | Some (R.Sys rec_) ->
      let data_matches () =
        match rec_.in_data with
        | None -> true
        | Some expected -> (
          match syscall_in_data (E.aspace (W.eng w) (W.pid w)) call with
          | Some got -> Bytes.equal got expected
          | None -> false)
      in
      if rec_.call <> call then
        mismatch w
          (Detection.Syscall_mismatch
             { expected = Sim_os.Syscall.name rec_.call; got = name })
      else if not (data_matches ()) then
        mismatch w (Detection.Syscall_data_mismatch { syscall = name })
      else (
        match Sim_os.Syscall.categorize call with
        | Sim_os.Syscall.Process_local -> replay_process_local w rec_ call
        | Sim_os.Syscall.Globally_effectful | Sim_os.Syscall.Non_effectful ->
          answer w rec_)

  let on_nondet w insn =
    match W.next_interaction w with
    | Some (R.Nondet { insn = recorded_insn; value }) when recorded_insn = insn ->
      let c = cpu w in
      (match Isa.Insn.writes_reg insn with
      | Some reg -> Machine.Cpu.set_reg c reg value
      | None -> ());
      Machine.Cpu.set_pc c (Machine.Cpu.get_pc c + 1);
      resume w
    | Some (R.Sys r) ->
      mismatch w
        (Detection.Syscall_mismatch
           { expected = Sim_os.Syscall.name r.call; got = "nondet instruction" })
    | Some (R.Nondet _ | R.Ext_signal _) ->
      mismatch w (Detection.Extra_interaction { got = "nondet instruction" })
    | None ->
      if not (W.await_log w) then
        mismatch w (Detection.Extra_interaction { got = "nondet instruction" })

  let reached_end w =
    Machine.Cpu.disarm_insn_overflow (cpu w);
    match W.next_interaction w with
    | Some _ ->
      mismatch w
        (Detection.Syscall_mismatch
           { expected = "further recorded interactions"; got = "segment end" })
    | None -> W.at_end w

  let rec advance w (adv : Exec_point.advance) =
    match adv with
    | Exec_point.Keep_running -> resume w
    | Exec_point.Reached pt -> (
      match W.pending_signals w with
      | (spt, signum) :: rest when Exec_point.compare spt pt = 0 -> (
        W.set_pending_signals w rest;
        E.deliver_signal_now (W.eng w) (W.pid w) signum;
        match E.state (W.eng w) (W.pid w) with
        | E.Exited _ ->
          (* The signal's default action killed the process; the recorded
             main survived it. *)
          W.fail w (Detection.Exception_detected "killed by replayed signal")
        | E.Runnable | E.Stopped ->
          Exec_point.next_target (W.replay w);
          advance w (Exec_point.poll (W.replay w)))
      | _ -> reached_end w)

  let handle_event w (ev : E.event) =
    if not (W.settled w) then
      match ev with
      | E.Syscall_entry call -> on_syscall w call
      | E.Nondet insn -> on_nondet w insn
      | E.Branch_overflow -> advance w (Exec_point.on_branch_overflow (W.replay w))
      | E.Breakpoint -> advance w (Exec_point.on_breakpoint (W.replay w))
      | E.Insn_overflow -> W.fail w Detection.Timeout_detected
      | E.Fault f -> W.fail w (Detection.Exception_detected (fault_to_string f))
      | E.Halted ->
        W.fail w (Detection.Exception_detected "checker ran past the segment end")
      | E.Cycle_overflow -> resume w
      | E.Signal _ ->
        (* External signals target the main process; they are recorded
           there and replayed by execution point, never delivered here. *)
        resume w
end
