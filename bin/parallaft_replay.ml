(* Offline re-check of a --record-log directory:

     parallaft-replay DIR

   Reads DIR/manifest.plog and the segment files it names, validates
   the format (magic, versions, checksums, config fingerprint), then
   re-executes the recorded history in a fresh simulation and
   re-verifies every segment boundary against the recorded registers
   and dirty pages (see Parallaft.Offline).

   Exit codes: 0 verified clean; 1 I/O or replay-environment error;
   2 the log itself is invalid (corrupt, truncated, version or
   fingerprint mismatch); 3 the re-execution diverged from the record —
   the same exit code a live run uses when a detection fires.
   (Command-line misuse exits with cmdliner's usual 124.) *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  b

let fail_io msg =
  Printf.eprintf "parallaft-replay: %s\n" msg;
  1

let fail_log path err =
  Printf.eprintf "parallaft-replay: %s: %s\n" path
    (Seglog.Codec.error_to_string err);
  2

let run dir quiet =
  let manifest_path = Filename.concat dir "manifest.plog" in
  match read_file manifest_path with
  | exception Sys_error e -> fail_io e
  | bytes -> (
    match Seglog.Reader.manifest bytes with
    | Error err -> fail_log manifest_path err
    | Ok manifest -> (
      match Seglog.Reader.validate_fingerprint manifest with
      | Error err -> fail_log manifest_path err
      | Ok () -> (
        let reader =
          Seglog.Reader.create
            ~config_digest:manifest.Seglog.Record.header.Seglog.Record.config_digest
        in
        let rec read_segments acc = function
          | [] -> Ok (List.rev acc)
          | id :: rest -> (
            let path =
              Filename.concat dir (Parallaft.Seglog_io.segment_file_name id)
            in
            match read_file path with
            | exception Sys_error e -> Error (`Io e)
            | bytes -> (
              match Seglog.Reader.segment reader bytes with
              | Error err -> Error (`Log (path, err))
              | Ok seg ->
                if seg.Seglog.Record.id <> id then
                  Error
                    (`Io
                      (Printf.sprintf "%s: contains segment %d, expected %d"
                         path seg.Seglog.Record.id id))
                else read_segments (seg :: acc) rest))
        in
        match read_segments [] manifest.Seglog.Record.segments with
        | Error (`Io e) -> fail_io e
        | Error (`Log (path, err)) -> fail_log path err
        | Ok segments -> (
          match Parallaft.Offline.replay ~manifest ~segments with
          | Error e -> fail_io e
          | Ok
              (Parallaft.Offline.Verified
                { segments = n; final_hash = _; final_hash_matches }) ->
            if not quiet then begin
              Printf.printf "verified: %d segment%s replayed clean\n" n
                (if n = 1 then "" else "s");
              (match manifest.Seglog.Record.truncated_at with
              | Some id ->
                Printf.printf
                  "note: log truncated at segment %d by a recovery rollback\n" id
              | None -> ());
              match final_hash_matches with
              | Some true -> print_endline "final state hash: match"
              | Some false -> ()
              | None ->
                print_endline
                  "final state hash: not checked (main did not exit cleanly, \
                   or a rollback truncated the log)"
            end;
            0
          | Ok (Parallaft.Offline.Diverged d) ->
            print_string (Parallaft.Offline.divergence_report d);
            3))))

let dir_arg =
  Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR"
         ~doc:"A --record-log directory (manifest.plog + seg-*.plog).")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ]
         ~doc:"Print nothing on a clean verification (exit code only).")

let cmd =
  Cmd.v
    (Cmd.info "parallaft-replay"
       ~doc:"Re-check a persisted Parallaft segment log offline")
    Term.(const run $ dir_arg $ quiet_arg)

let () = exit (Cmd.eval' cmd)
