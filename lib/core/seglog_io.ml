(* Bridge between the runtime's Config/Fault types and the persisted
   seglog: config fingerprinting, conversion to the Record shapes, and
   the per-run output state behind --record-log. *)

module R = Seglog.Record

let mode_raft cfg = cfg.Config.mode = Config.Raft

let dirty_backend_string cfg =
  match cfg.Config.dirty_backend with
  | Config.Soft_dirty -> "soft_dirty"
  | Config.Map_count -> "map_count"
  | Config.Full_compare -> "full_compare"

let fault_spec (p : Fault.plan) =
  let arg_a, arg_b =
    match p.target with
    | Fault.Checker_register { reg; bit } | Fault.Main_register { reg; bit } -> (reg, bit)
    | Fault.Checker_memory_page { page_index; bit } | Fault.Main_memory_page { page_index; bit }
      ->
      (page_index, bit)
    | Fault.Runtime_fault _ -> (0, 0)
  in
  { R.kind = Fault.target_kind_to_string p.target;
    fault_segment = p.segment;
    delay = p.delay_instructions;
    arg_a;
    arg_b;
    repeat = p.repeat
  }

let plan_of_spec (f : R.fault_spec) =
  match Fault.target_kind_of_string f.kind with
  | Error e -> Error e
  | Ok build ->
    Ok
      { Fault.segment = f.fault_segment;
        delay_instructions = f.delay;
        target = build f.arg_a f.arg_b;
        repeat = f.repeat
      }

let run_config (cfg : Config.t) ~seed =
  { R.mode_raft = mode_raft cfg;
    slice_period = cfg.slice_period;
    timeout_scale = Config.timeout_scale;
    compare_states = Config.compare_states cfg;
    dirty_backend = dirty_backend_string cfg;
    hasher = "xxh64";
    seed;
    fault = Option.map fault_spec cfg.fault_plan;
    recheck = cfg.recheck_on_mismatch
  }

let header (cfg : Config.t) ~(platform : Platform.t) ~workload ~seed =
  let rc = run_config cfg ~seed in
  { R.config_digest =
      R.config_digest ~platform:platform.Platform.name ~page_size:platform.Platform.page_size
        ~workload rc;
    platform = platform.Platform.name;
    page_size = platform.Platform.page_size;
    workload
  }

(* @raise Failure if an instruction has no binary encoding. *)
let program_record (p : Isa.Program.t) =
  let code =
    Array.map
      (fun insn ->
        match Isa.Insn.encode insn with
        | Some w -> w
        | None ->
          failwith
            (Printf.sprintf "seglog: instruction %s has no binary encoding"
               (Isa.Insn.to_string insn)))
      p.Isa.Program.code
  in
  { R.pname = p.Isa.Program.name;
    entry = p.Isa.Program.entry;
    initial_brk = p.Isa.Program.initial_brk;
    code;
    data =
      List.map
        (fun (d : Isa.Program.data_segment) -> (d.Isa.Program.base, d.Isa.Program.bytes))
        p.Isa.Program.data
  }

let program_of_record (p : R.program) =
  let missing = ref None in
  let code =
    Array.map
      (fun word ->
        match Isa.Insn.decode word with
        | Some insn -> insn
        | None ->
          if !missing = None then missing := Some word;
          Isa.Insn.Nop)
      p.R.code
  in
  match !missing with
  | Some w -> Error (Printf.sprintf "undecodable instruction word %#x in program image" w)
  | None ->
    Ok
      (Isa.Program.create ~name:p.R.pname ~entry:p.R.entry ~initial_brk:p.R.initial_brk
         ~data:
           (List.map (fun (base, bytes) -> { Isa.Program.base; bytes }) p.R.data)
         code)

(* ---------- the per-run output behind --record-log ---------- *)

type out = {
  dir : string;
  hdr : R.header;
  writer : Seglog.Writer.t;
  cfg_record : R.run_config;
  prog : R.program;
  mutable pending_preamble : R.sys_record list;  (** reversed *)
  mutable seg_ids : int list;  (** reversed *)
  mutable truncated_at : int option;
  mutable manifest_bytes : int;
}

let write_file path bytes =
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc

let create ~dir ~cfg ~platform ~program ~seed =
  match
    if Sys.file_exists dir then
      if Sys.is_directory dir then Ok () else Error (dir ^ " exists and is not a directory")
    else begin
      Sys.mkdir dir 0o755;
      Ok ()
    end
  with
  | exception Sys_error e -> Error e
  | Error e -> Error e
  | Ok () ->
    let workload = program.Isa.Program.name in
    let hdr = header cfg ~platform ~workload ~seed in
    Ok
      { dir;
        hdr;
        writer = Seglog.Writer.create ~header:hdr;
        cfg_record = run_config cfg ~seed;
        prog = program_record program;
        pending_preamble = [];
        seg_ids = [];
        truncated_at = None;
        manifest_bytes = 0
      }

let note_preamble o r = o.pending_preamble <- r :: o.pending_preamble

let segment_file_name id = Printf.sprintf "seg-%06d.plog" id

(* After a rollback the run re-executes from a checkpoint, so later
   segments no longer extend the recorded linear history: latch the
   truncation point, drop already-persisted segments past it, and stop
   persisting. The prefix — up to and including the last segment whose
   check actually ran ([last_checked], the failing segment on a
   detection) — is exactly what offline replay can verify. Segments
   recorded beyond it (queued behind a deferred batch or a remote
   dispatch when the rollback landed) were never checked against the
   state the rollback discarded, so they must not stay in the
   manifest. Their files may remain on disk; offline replay reads only
   manifest-listed files. *)
let note_rollback o ~last_checked =
  if o.truncated_at = None then begin
    o.seg_ids <- List.filter (fun id -> id <= last_checked) o.seg_ids;
    o.truncated_at <- Some (match o.seg_ids with [] -> -1 | id :: _ -> id)
  end

let write_segment o ~id ~events ~end_point ~insn_delta ~end_regs ~pages =
  match o.truncated_at with
  | Some _ -> 0
  | None ->
    let preamble = List.rev o.pending_preamble in
    o.pending_preamble <- [];
    let seg = { R.id; preamble; events; end_point; insn_delta; end_regs; pages } in
    let bytes = Seglog.Writer.segment o.writer seg in
    write_file (Filename.concat o.dir (segment_file_name id)) bytes;
    o.seg_ids <- id :: o.seg_ids;
    Bytes.length bytes

let finalize o ~final_state_hash =
  let manifest =
    { R.header = o.hdr;
      program = o.prog;
      config = o.cfg_record;
      segments = List.rev o.seg_ids;
      truncated_at = o.truncated_at;
      final_state_hash
    }
  in
  let bytes = Seglog.Writer.manifest manifest in
  write_file (Filename.concat o.dir "manifest.plog") bytes;
  o.manifest_bytes <- Bytes.length bytes

let stats o = Seglog.Writer.stats o.writer
let manifest_bytes o = o.manifest_bytes
