(* The runtime's side of the persisted seglog (DESIGN.md §17): the run
   config and its fingerprint, the per-run output behind --record-log,
   and [read]. This is the one module that knows a log directory's
   layout: a manifest plus one file per segment. *)

module R = Seglog.Record

let manifest_file = "manifest.plog"
let segment_file_name id = Printf.sprintf "seg-%06d.plog" id

let dirty_backend_string cfg =
  match cfg.Config.dirty_backend with
  | Config.Soft_dirty -> "soft_dirty"
  | Config.Map_count -> "map_count"
  | Config.Full_compare -> "full_compare"

let run_config (cfg : Config.t) ~seed =
  { R.mode_raft = cfg.mode = Config.Raft;
    slice_period = cfg.slice_period;
    timeout_scale = Config.timeout_scale;
    compare_states = Config.compare_states cfg;
    dirty_backend = dirty_backend_string cfg;
    hasher = "xxh64";
    seed;
    fault = cfg.fault_plan;
    recheck = cfg.recheck_on_mismatch
  }

(* ---------- the per-run output behind --record-log ---------- *)

type out = {
  dir : string;
  writer : Seglog.Writer.t;
  mutable manifest : R.manifest;  (** [segments] reversed until [finalize] *)
  mutable pending_preamble : R.sys_record list;  (** reversed *)
  mutable manifest_bytes : int;
}

let write_file path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes)

let validate ~dir ~(program : Isa.Program.t) =
  match
    Array.find_index (fun insn -> Option.is_none (Isa.Insn.encode insn)) program.code
  with
  | Some i ->
    Error
      (Printf.sprintf "instruction %d (%s) has no binary encoding" i
         (Isa.Insn.to_string program.code.(i)))
  | None ->
    let parent = Filename.dirname dir in
    if Sys.file_exists dir && not (Sys.is_directory dir) then
      Error (dir ^ " exists and is not a directory")
    else if Sys.file_exists dir || (Sys.file_exists parent && Sys.is_directory parent) then
      Ok ()
    else Error (Printf.sprintf "cannot create %s: %s is not a directory" dir parent)

let create ~dir ~cfg ~(platform : Platform.t) ~(program : Isa.Program.t) ~seed =
  match validate ~dir ~program with
  | Error _ as e -> e
  | Ok () -> (
    match if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with
    | exception Sys_error e -> Error e
    | () ->
      let config = run_config cfg ~seed in
      let header =
        { R.config_digest =
            R.config_digest ~platform:platform.name ~page_size:platform.page_size
              ~workload:program.name config;
          platform = platform.name;
          page_size = platform.page_size;
          workload = program.name
        }
      in
      Ok
        { dir;
          writer = Seglog.Writer.create ~header;
          manifest =
            { R.header; program; config; segments = []; truncated_at = None;
              final_state_hash = None };
          pending_preamble = [];
          manifest_bytes = 0
        })

let note_preamble o r = o.pending_preamble <- r :: o.pending_preamble

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
  if o.manifest.truncated_at = None then begin
    let segments = List.filter (fun id -> id <= last_checked) o.manifest.segments in
    let truncated_at = Some (match segments with [] -> -1 | id :: _ -> id) in
    o.manifest <- { o.manifest with segments; truncated_at }
  end

let write_segment o ~id ~events ~end_point ~insn_delta ~end_regs ~pages =
  match o.manifest.truncated_at with
  | Some _ -> 0
  | None ->
    let preamble = List.rev o.pending_preamble in
    o.pending_preamble <- [];
    let seg = { R.id; preamble; events; end_point; insn_delta; end_regs; pages } in
    let bytes = Seglog.Writer.segment o.writer seg in
    write_file (Filename.concat o.dir (segment_file_name id)) bytes;
    o.manifest <- { o.manifest with segments = id :: o.manifest.segments };
    Bytes.length bytes

let finalize o ~final_state_hash =
  let manifest =
    { o.manifest with segments = List.rev o.manifest.segments; final_state_hash }
  in
  let bytes = Seglog.Writer.manifest manifest in
  write_file (Filename.concat o.dir manifest_file) bytes;
  o.manifest_bytes <- Bytes.length bytes

let stats o = Seglog.Writer.stats o.writer
let manifest_bytes o = o.manifest_bytes

(* ---------- reading a log directory back ---------- *)

type read_error =
  | Unreadable of string
  | Invalid of {
      file : string;
      error : Seglog.Codec.error;
    }

let read_error_to_string = function
  | Unreadable msg -> msg
  | Invalid { file; error } -> file ^ ": " ^ Seglog.Codec.error_to_string error

let read ~dir =
  let ( let* ) = Result.bind in
  let decode name f =
    let file = Filename.concat dir name in
    match In_channel.with_open_bin file In_channel.input_all with
    | exception Sys_error msg -> Error (Unreadable msg)
    | data -> Result.map_error (fun error -> Invalid { file; error }) (f (Bytes.of_string data))
  in
  let* manifest =
    decode manifest_file (fun data ->
        let* m = Seglog.Reader.manifest data in
        let* () = Seglog.Reader.validate_fingerprint m in
        Ok m)
  in
  let reader = Seglog.Reader.create ~config_digest:manifest.header.config_digest in
  let rec segments acc = function
    | [] -> Ok (manifest, List.rev acc)
    | id :: rest ->
      let* seg =
        decode (segment_file_name id) (fun data ->
            let* (seg : R.segment) = Seglog.Reader.segment reader data in
            if seg.id = id then Ok seg
            else
              Error
                (Seglog.Codec.Malformed
                   (Printf.sprintf "contains segment %d, expected %d" seg.id id)))
      in
      segments (seg :: acc) rest
  in
  segments [] manifest.segments
