(* Offline replay of a persisted segment log: one traced process
   re-executes the recorded history in a fresh simulation, running the
   live checker's replay kernel (Replay_kernel) segment after segment,
   and every segment boundary is re-checked against the recorded
   registers and dirty-page payloads. *)

module E = Sim_os.Engine
module R = Seglog.Record

type reg_diff = {
  reg : int;
  expected : int;
  got : int;
}

type page_diff = {
  vpn : int;
  offset : int;
  expected : int;
  got : int;
}

type divergence = {
  segment : int;
  point : Exec_point.t;
  reason : string;
  reg_diffs : reg_diff list;
  page_diff : page_diff option;
}

type verdict =
  | Verified of {
      segments : int;
      final_hash : int64 option;
      final_hash_matches : bool option;
    }
  | Diverged of divergence

type state = {
  eng : E.t;
  mutable pid : E.pid;
  segs : R.segment array;
  plan : Fault.plan option;  (* re-armed checker-side injections *)
  attempt : int;  (* the live run's final attempt at each check *)
  timeout_scale : float;
  final_hash : int64 option;
  mutable idx : int;  (* current segment index into [segs] *)
  mutable events : R.event list;  (* remaining interactions, record order *)
  mutable preamble : R.sys_record list;  (* boundary syscalls still pending *)
  mutable pending_signals : (Exec_point.t * Sim_os.Sig_num.t) list;
  mutable replay : Exec_point.replay option;  (* [Some] once armed *)
  mutable seg_start_branches : int;
  mutable outcome : verdict option;
}

let cpu st = E.cpu st.eng st.pid
let page_table st = Mem.Address_space.page_table (E.aspace st.eng st.pid)
let cur_seg st = st.segs.(st.idx)

(* The point is segment-relative: the coordinate system the recorded
   execution points use. *)
let diverge st ?(reg_diffs = []) ?page_diff reason =
  (if st.outcome = None then
     let c = cpu st in
     let point =
       {
         Exec_point.branches = Machine.Cpu.branches c - st.seg_start_branches;
         pc = Machine.Cpu.get_pc c;
       }
     in
     let segment = (cur_seg st).R.id in
     st.outcome <- Some (Diverged { segment; point; reason; reg_diffs; page_diff }));
  E.kill st.eng st.pid

(* Inject recorded bytes without going through the store path: the
   content of a boundary file mapping is not a program store, so it
   must not set soft-dirty bits (the live main's equivalent writes
   happened before the segment's dirty window opened). The offline
   process never forks, so no frame is COW-shared, but a chunk can be
   (the zero chunk at least): [Frame.blit_in] copies those. *)
let inject_bytes st ~addr data =
  let sp = E.aspace st.eng st.pid in
  let pt = page_table st in
  let alloc = Mem.Page_table.allocator pt in
  let ps = Mem.Address_space.page_size sp in
  let len = Bytes.length data in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let vpn = Mem.Address_space.vpn_of_addr sp a in
    let off = a - (vpn * ps) in
    let n = min (ps - off) (len - !pos) in
    if Mem.Page_table.is_mapped pt ~vpn then
      Mem.Frame.blit_in alloc data ~pos:!pos (Mem.Page_table.read_frame pt ~vpn) ~off
        ~len:n;
    pos := !pos + n
  done

(* ------------------------------------------------------------------ *)
(* Segment lifecycle                                                    *)

let arm_segment st =
  let seg = cur_seg st in
  let c = cpu st in
  st.seg_start_branches <- Machine.Cpu.branches c;
  st.events <- seg.R.events;
  st.preamble <- seg.R.preamble;
  (* Boundary mmaps execute before the segment's first instruction;
     their fresh mappings must not pollute the dirty window, so the
     soft-dirty clear waits until the preamble has been consumed
     (mirroring the live ordering: mmap_split runs do_syscall before
     start_segment clears the bits). *)
  if st.preamble = [] then Mem.Page_table.clear_soft_dirty (page_table st);
  (* Main-side plans are never armed: their corruption is baked into the
     recorded payloads, which the fault-free re-execution then fails to
     match. *)
  let replay, pending =
    Replay_kernel.arm c ~origin_branches:st.seg_start_branches
      ~origin_insns:(Machine.Cpu.instructions c)
      ~signals:(Rr_log.signals seg.R.events) ~end_point:seg.R.end_point
      ~insn_delta:seg.R.insn_delta ~timeout_scale:st.timeout_scale ~fault:st.plan
      ~segment:seg.R.id ~attempt:st.attempt
  in
  st.replay <- Some replay;
  st.pending_signals <- pending

let finish_run st =
  let verified final_hash_matches =
    let segments = Array.length st.segs in
    st.outcome <-
      Some (Verified { segments; final_hash = st.final_hash; final_hash_matches });
    E.kill st.eng st.pid
  in
  match st.final_hash with
  | None -> verified None
  | Some recorded ->
    let got =
      Stats.state_hash
        ~regs:(Machine.Cpu.snapshot_regs (cpu st))
        ~mem:(Stats.mem_hash (page_table st))
    in
    if got <> recorded then
      diverge st
        (Printf.sprintf "final state hash mismatch (recorded %Lx, got %Lx)" recorded
           got)
    else verified (Some true)

(* The first recorded dirty page the re-execution does not reproduce:
   the reason, plus its first differing byte when the page is there. *)
let page_divergence pt pages =
  Array.find_map
    (fun (vpn, expected) ->
      if not (Mem.Page_table.is_mapped pt ~vpn) then
        Some (Printf.sprintf "recorded dirty page %d is not mapped" vpn, None)
      else
        let got = Mem.Page_table.copy_page_at pt ~vpn in
        if Bytes.equal got expected then None
        else
          let n = min (Bytes.length got) (Bytes.length expected) in
          let rec first off =
            if off = n then None
            else if Bytes.get got off <> Bytes.get expected off then Some off
            else first (off + 1)
          in
          match first 0 with
          | Some offset ->
            let byte b = Char.code (Bytes.get b offset) in
            Some
              ( Printf.sprintf "memory state mismatch in page %d" vpn,
                Some { vpn; offset; expected = byte expected; got = byte got } )
          | None ->
            Some
              ( Printf.sprintf "page %d size mismatch (recorded %d, got %d)" vpn
                  (Bytes.length expected) (Bytes.length got),
                None ))
    pages

(* A page the re-execution dirtied outside the recorded set. Recorded
   sets are supersets of the store-dirtied pages under every backend, so
   such a page means the replay wrote somewhere the main did not. *)
let extra_dirty pt pages =
  let recorded = Hashtbl.create (Array.length pages) in
  Array.iter (fun (vpn, _) -> Hashtbl.replace recorded vpn ()) pages;
  Array.find_opt
    (fun vpn -> not (Hashtbl.mem recorded vpn))
    (Mem.Page_table.soft_dirty_pages pt)

(* The end point, reached by the kernel with the log consumed: compare
   against the recorded payloads instead of a live snapshot fork. *)
let end_of_segment st =
  let seg = cur_seg st in
  let c = cpu st in
  Machine.Cpu.disarm_fault_injection c;
  (* Retire the end target: with the queue empty this clears the
     breakpoint and the branch-overflow arming. *)
  Option.iter Exec_point.next_target st.replay;
  let got_regs = Machine.Cpu.snapshot_regs c in
  let reg_diffs =
    List.filter_map
      (fun reg ->
        let expected = seg.R.end_regs.(reg) in
        let got = if reg < Array.length got_regs then got_regs.(reg) else 0 in
        if got <> expected then Some { reg; expected; got } else None)
      (List.init (Array.length seg.R.end_regs) Fun.id)
  in
  let n = List.length reg_diffs in
  if n > 0 then
    diverge st ~reg_diffs
      (Printf.sprintf "register state mismatch (%d register%s)" n
         (if n = 1 then "" else "s"))
  else
    let pt = page_table st in
    match page_divergence pt seg.R.pages with
    | Some (reason, page_diff) -> diverge st ?page_diff reason
    | None -> (
      match extra_dirty pt seg.R.pages with
      | Some vpn ->
        diverge st
          (Printf.sprintf
             "page %d dirtied by replay but absent from the recorded dirty set" vpn)
      | None when st.idx = Array.length st.segs - 1 -> finish_run st
      | None ->
        st.idx <- st.idx + 1;
        arm_segment st;
        E.resume st.eng st.pid)

(* ------------------------------------------------------------------ *)
(* Event handling                                                       *)

(* The offline world: one process replays every segment in turn. A
   divergence ends the run with its reason; an exhausted log never
   grows. *)
module Kernel = Replay_kernel.Make (struct
  type t = state

  let eng st = st.eng
  let pid st = st.pid

  let rec next_interaction st =
    match st.events with
    | [] -> None
    | ev :: rest -> (
      st.events <- rest;
      match ev with
      | R.Ext_signal _ -> next_interaction st
      | R.Sys _ | R.Nondet _ -> Some ev)

  let replay st = Option.get st.replay
  let pending_signals st = st.pending_signals
  let set_pending_signals st signals = st.pending_signals <- signals
  let fail st outcome = diverge st (Detection.outcome_to_string outcome)
  let at_end = end_of_segment
  let await_log _ = false
  let settled st = st.outcome <> None
  let note_syscall _ _ = ()
  let charge_answer _ ~bytes:_ = ()
end)

(* A boundary syscall from the preamble: re-establish the recorded
   file-backed mapping. The replayer has no filesystem state, so the
   kernel maps fresh zero pages at the pinned address and the content
   travels in the record's [in_data] snapshot. *)
let replay_preamble st (rec_ : R.sys_record) rest call =
  let name = Sim_os.Syscall.name in
  if rec_.R.call <> call then
    diverge st
      (Printf.sprintf "boundary syscall mismatch: recorded %s, got %s"
         (name rec_.R.call) (name call))
  else begin
    st.preamble <- rest;
    Replay_kernel.reexecute st.eng st.pid ~pin_to:(Some rec_.R.result) call;
    let got = Machine.Cpu.get_reg (cpu st) 0 in
    if got <> rec_.R.result then
      diverge st
        (Printf.sprintf "boundary syscall result mismatch: recorded %s = %d, got %d"
           (name call) rec_.R.result got)
    else begin
      (match rec_.R.in_data with
      | Some data when rec_.R.result >= 0 -> inject_bytes st ~addr:rec_.R.result data
      | Some _ | None -> ());
      (* The preamble is consumed: open the segment's dirty window, as
         the live start_segment did right after the boundary call. *)
      if st.preamble = [] then Mem.Page_table.clear_soft_dirty (page_table st);
      E.resume st.eng st.pid
    end
  end

let handle_event st (ev : E.event) =
  match (ev, st.preamble) with
  | E.Syscall_entry call, rec_ :: rest when st.outcome = None ->
    replay_preamble st rec_ rest call
  | _ -> Kernel.handle_event st ev

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)

let replay ~(manifest : R.manifest) ~(segments : R.segment list) =
  let ( let* ) = Result.bind in
  let header = manifest.R.header and config = manifest.R.config in
  let ids = List.map (fun (s : R.segment) -> s.R.id) segments in
  let* () =
    if ids = manifest.R.segments then Ok ()
    else Error "segment list does not match the manifest's replay order"
  in
  let* platform =
    Option.to_result ~none:("unknown platform " ^ header.R.platform)
      (Platform.of_name header.R.platform)
  in
  let* () =
    if platform.Platform.page_size = header.R.page_size then Ok ()
    else
      Error
        (Printf.sprintf "page size mismatch: manifest %d, platform %s has %d"
           header.R.page_size platform.Platform.name platform.Platform.page_size)
  in
  if segments = [] then
    let final_hash = manifest.R.final_state_hash in
    Ok (Verified { segments = 0; final_hash; final_hash_matches = None })
  else begin
    (* Same seed, and the spawn below is the first consumer of the
       engine's entropy stream in the live run too — the initial
       address-space layout reproduces exactly; every later mmap is
       pinned from the record. *)
    let eng = E.create ~platform ~seed:config.R.seed () in
    let st =
      {
        eng;
        pid = -1;
        segs = Array.of_list segments;
        plan = config.R.fault;
        (* With the re-check on, a failed check was retried on a fresh
           checker (attempt 1), where a one-shot plan is never re-armed. *)
        attempt = (if config.R.recheck then 1 else 0);
        timeout_scale = config.R.timeout_scale;
        (* After a rollback the final state is the re-executed run's. *)
        final_hash =
          (if manifest.R.truncated_at = None then manifest.R.final_state_hash
           else None);
        idx = 0;
        events = [];
        preamble = [];
        pending_signals = [];
        replay = None;
        seg_start_branches = 0;
        outcome = None;
      }
    in
    let tracer _eng _pid ev = handle_event st ev in
    st.pid <- E.spawn eng ~tracer ~program:manifest.R.program ~core:0 ();
    E.suspend eng st.pid;
    arm_segment st;
    E.resume eng st.pid;
    E.run ~max_ns:Config.max_sim_ns eng;
    Option.to_result ~none:"offline replay stalled before reaching a verdict" st.outcome
  end

let divergence_report d =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "divergence in segment %d at %s\n" d.segment
       (Exec_point.to_string d.point));
  Buffer.add_string b (Printf.sprintf "  reason: %s\n" d.reason);
  List.iter
    (fun { reg; expected; got } ->
      Buffer.add_string b
        (Printf.sprintf "  register r%d: recorded %d, got %d\n" reg expected got))
    d.reg_diffs;
  (match d.page_diff with
  | Some { vpn; offset; expected; got } ->
    Buffer.add_string b
      (Printf.sprintf
         "  first differing page: vpn %d, byte offset %d: recorded 0x%02x, got 0x%02x\n"
         vpn offset expected got)
  | None -> ());
  Buffer.contents b
