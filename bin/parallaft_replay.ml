(* Offline re-check of a --record-log directory:

     parallaft-replay DIR

   Reads the log in DIR with Parallaft.Seglog_io.read, which validates
   the format (magic, versions, checksums, config fingerprint, segment
   ids) and decodes the recorded program and fault plan, then
   re-executes the recorded history in a fresh simulation and
   re-verifies every segment boundary against the recorded registers
   and dirty pages (see Parallaft.Offline).

   Exit codes: 0 verified clean; 1 I/O or replay-environment error;
   2 the log itself is invalid (corrupt, truncated, version or
   fingerprint mismatch, a segment file holding another segment, an
   undecodable program or fault plan); 3 the re-execution diverged
   from the record — the same exit code a live run uses when a
   detection fires. (Command-line misuse exits with cmdliner's usual
   124.) *)

open Cmdliner

let run dir quiet =
  match Parallaft.Seglog_io.read ~dir with
  | Error e ->
    Printf.eprintf "parallaft-replay: %s\n" (Parallaft.Seglog_io.read_error_to_string e);
    (match e with Parallaft.Seglog_io.Unreadable _ -> 1 | Parallaft.Seglog_io.Invalid _ -> 2)
  | Ok (manifest, segments) -> (
    match Parallaft.Offline.replay ~manifest ~segments with
    | Error e ->
      Printf.eprintf "parallaft-replay: %s\n" e;
      1
    | Ok (Parallaft.Offline.Verified { segments = n; final_hash = _; final_hash_matches }) ->
      if not quiet then begin
        Printf.printf "verified: %d segment%s replayed clean\n" n (if n = 1 then "" else "s");
        (match manifest.Seglog.Record.truncated_at with
        | Some id ->
          Printf.printf "note: log truncated at segment %d by a recovery rollback\n" id
        | None -> ());
        match final_hash_matches with
        | Some true -> print_endline "final state hash: match"
        | Some false -> ()
        | None ->
          print_endline
            "final state hash: not checked (main did not exit cleanly, or a rollback \
             truncated the log)"
      end;
      0
    | Ok (Parallaft.Offline.Diverged d) ->
      print_string (Parallaft.Offline.divergence_report d);
      3)

let dir_arg =
  Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR"
         ~doc:"A --record-log directory.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ]
         ~doc:"Print nothing on a clean verification (exit code only).")

let cmd =
  Cmd.v
    (Cmd.info "parallaft-replay"
       ~doc:"Re-check a persisted Parallaft segment log offline")
    Term.(const run $ dir_arg $ quiet_arg)

let () = exit (Cmd.eval' cmd)
