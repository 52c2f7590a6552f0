(* Fixtures shared by the test executables: dune links this non-entry
   module into every test of the stanza. *)

module Oracle = Experiments.Oracle

(* The run oracle's verdict on [run] against [reference]. *)
let check_verdict what want ~reference run =
  Alcotest.(check string) what (Oracle.to_string want)
    (Oracle.to_string (Oracle.judge ~reference run))

(* Strict Begin/End stack discipline per trace track, with nothing left
   open at the end. *)
let assert_spans_balanced sink =
  let stacks : (Obs.Trace.track, string list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let stack =
        Option.value (Hashtbl.find_opt stacks e.Obs.Trace.track) ~default:[]
      in
      match e.Obs.Trace.phase with
      | Obs.Trace.Begin ->
        Hashtbl.replace stacks e.Obs.Trace.track (e.Obs.Trace.name :: stack)
      | Obs.Trace.End -> (
        match stack with
        | top :: rest when top = e.Obs.Trace.name ->
          Hashtbl.replace stacks e.Obs.Trace.track rest
        | _ -> Alcotest.fail ("unmatched End event: " ^ e.Obs.Trace.name))
      | Obs.Trace.Instant | Obs.Trace.Counter -> ())
    (Obs.Trace.events sink.Obs.Sink.trace);
  Hashtbl.iter
    (fun _ stack ->
      match stack with
      | [] -> ()
      | name :: _ -> Alcotest.fail ("dangling Begin span: " ^ name))
    stacks

(* Under the dune sandbox cwd is scratch, but the suites can also be run
   directly from the repo root — keep the recorded logs out of the tree. *)
let e2e_dir leg =
  Filename.concat (Filename.get_temp_dir_name ()) ("parallaft_test_" ^ leg)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  b

(* A recorded segment log's manifest and segments, decoded and
   validated; any decode error fails the test. *)
let load_log dir =
  let ok what = function
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" what (Seglog.Codec.error_to_string e)
  in
  let manifest =
    ok "manifest"
      (Seglog.Reader.manifest (read_file (Filename.concat dir "manifest.plog")))
  in
  ok "fingerprint" (Seglog.Reader.validate_fingerprint manifest);
  let reader =
    Seglog.Reader.create
      ~config_digest:manifest.Seglog.Record.header.Seglog.Record.config_digest
  in
  let segments =
    List.map
      (fun id ->
        ok
          (Printf.sprintf "segment %d" id)
          (Seglog.Reader.segment reader
             (read_file
                (Filename.concat dir (Parallaft.Seglog_io.segment_file_name id)))))
      manifest.Seglog.Record.segments
  in
  (manifest, segments)
