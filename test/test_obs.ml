(* Tests for the observability library: ring-buffer semantics, histogram
   percentile math, zero-cost-when-disabled, byte-determinism of the
   Chrome trace export across equal-seed runs, presence of the key event
   kinds (segment/fork/check/compare/detection), JSON well-formedness of
   the exporter output, and the detection-report ordering contract. *)

let platform = Platform.testing

let busy_program ?(outer = 12) () =
  Workloads.Codegen.generate ~name:"busy" ~seed:11L
    ~page_size:platform.Platform.page_size
    {
      Workloads.Codegen.pattern =
        Workloads.Codegen.Chase { pages = 12; hot_pages = 4; cold_every = 2 };
      alu_per_mem = 3;
      store_every = 2;
      outer_iters = outer;
      inner_iters = 40;
      io_every = 3;
      gettime_every = 5;
      rdtsc_every = 0;
      mmap_churn = false;
    }

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let run_with_sink ?fault_plan ?(recovery = false) ?(recheck = false)
    ?(profile = false) ?(seed = 42L) () =
  let sink = Obs.Sink.create () in
  if profile then Obs.Profile.set_enabled sink.Obs.Sink.profile true;
  let config =
    {
      (Parallaft.Config.parallaft ~platform ~slice_period:20_000 ()) with
      Parallaft.Config.obs = Some sink;
      fault_plan;
      recovery;
      recheck_on_mismatch = recheck;
    }
  in
  let program = busy_program () in
  let r = Parallaft.Runtime.run_protected ~seed ~platform ~config ~program () in
  (r, sink)

(* {2 Trace ring buffer} *)

let test_ring_overwrites_oldest () =
  let t = Obs.Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Obs.Trace.emit t ~ts_ns:(i * 10) ~track:Obs.Trace.Run
      ~phase:Obs.Trace.Instant
      (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "length capped" 4 (Obs.Trace.length t);
  Alcotest.(check int) "two dropped" 2 (Obs.Trace.dropped t);
  let names = List.map (fun e -> e.Obs.Trace.name) (Obs.Trace.events t) in
  Alcotest.(check (list string)) "oldest first, oldest two gone"
    [ "e3"; "e4"; "e5"; "e6" ] names

let test_disabled_trace_records_nothing () =
  let t = Obs.Trace.create ~capacity:8 () in
  Obs.Trace.set_enabled t false;
  Obs.Trace.emit t ~ts_ns:1 ~track:Obs.Trace.Run ~phase:Obs.Trace.Instant "x";
  Alcotest.(check int) "no events" 0 (Obs.Trace.length t);
  Obs.Trace.set_enabled t true;
  Obs.Trace.emit t ~ts_ns:2 ~track:Obs.Trace.Run ~phase:Obs.Trace.Instant "y";
  Alcotest.(check int) "re-enabled records" 1 (Obs.Trace.length t)

(* {2 Histogram percentiles} *)

let test_hist_percentiles () =
  let h = Obs.Metrics.Hist.create () in
  for i = 1 to 100 do
    Obs.Metrics.Hist.add h (float_of_int i)
  done;
  let check name expected got =
    Alcotest.(check (float 1e-9)) name expected got
  in
  check "p50 interpolates" 50.5 (Obs.Metrics.Hist.percentile h 50.);
  check "p90 interpolates" 90.1 (Obs.Metrics.Hist.percentile h 90.);
  check "p99 interpolates" 99.01 (Obs.Metrics.Hist.percentile h 99.);
  check "p0 is min" 1. (Obs.Metrics.Hist.percentile h 0.);
  check "p100 is max" 100. (Obs.Metrics.Hist.percentile h 100.);
  check "mean" 50.5 (Obs.Metrics.Hist.mean h);
  check "min" 1. (Obs.Metrics.Hist.min h);
  check "max" 100. (Obs.Metrics.Hist.max h);
  Alcotest.(check int) "count" 100 (Obs.Metrics.Hist.count h)

let test_hist_edge_cases () =
  let empty = Obs.Metrics.Hist.create () in
  Alcotest.(check (float 0.)) "empty percentile" 0.
    (Obs.Metrics.Hist.percentile empty 50.);
  let one = Obs.Metrics.Hist.create () in
  Obs.Metrics.Hist.add one 7.;
  Alcotest.(check (float 0.)) "singleton p50" 7.
    (Obs.Metrics.Hist.percentile one 50.);
  Alcotest.(check (float 0.)) "singleton p99" 7.
    (Obs.Metrics.Hist.percentile one 99.)

let test_metrics_text_names_quantiles () =
  let s = Obs.Sink.create () in
  for i = 1 to 1000 do
    Obs.Sink.observe s "lat" (float_of_int i)
  done;
  let text = Obs.Metrics.to_text s.Obs.Sink.metrics in
  List.iter
    (fun q ->
      Alcotest.(check bool) (q ^ " column present") true (contains ~needle:q text))
    [ "count="; "min="; "mean="; "p50="; "p90="; "p99="; "p99.9="; "max=" ];
  (* the tail quantiles are ordered: p99 <= p99.9 <= max *)
  match Obs.Metrics.hist s.Obs.Sink.metrics "lat" with
  | None -> Alcotest.fail "lat histogram missing"
  | Some h ->
    let p99 = Obs.Metrics.Hist.percentile h 99. in
    let p999 = Obs.Metrics.Hist.percentile h 99.9 in
    Alcotest.(check bool) "p99 <= p99.9" true (p99 <= p999);
    Alcotest.(check bool) "p99.9 <= max" true (p999 <= Obs.Metrics.Hist.max h)

(* {2 Trace-off sink through a full run}

   The sink a host-time benchmark attaches: a one-event ring with the
   trace disabled and the profiler off. It records no events while the
   histograms the latency metrics read are still kept. *)

let test_trace_off_sink () =
  let sink = Obs.Sink.create ~trace_capacity:1 () in
  Obs.Trace.set_enabled sink.Obs.Sink.trace false;
  let config =
    {
      (Parallaft.Config.parallaft ~platform ~slice_period:20_000 ()) with
      Parallaft.Config.obs = Some sink;
    }
  in
  let program = busy_program () in
  let r = Parallaft.Runtime.run_protected ~platform ~config ~program () in
  Alcotest.(check int) "no trace events" 0
    (Obs.Trace.length sink.Obs.Sink.trace);
  Alcotest.(check int) "nothing dropped either" 0
    (Obs.Trace.dropped sink.Obs.Sink.trace);
  Alcotest.(check int) "no phases profiled" 0
    (List.length (Obs.Profile.phases sink.Obs.Sink.profile));
  match Obs.Metrics.hist sink.Obs.Sink.metrics "checker.latency_ns" with
  | Some h ->
    Alcotest.(check int) "one latency sample per compared segment"
      r.Parallaft.Runtime.stats.Parallaft.Stats.segments_compared
      (Obs.Metrics.Hist.count h)
  | None -> Alcotest.fail "checker.latency_ns histogram missing"

(* {2 Determinism and content} *)

let test_trace_deterministic () =
  let _, s1 = run_with_sink ~seed:7L () in
  let _, s2 = run_with_sink ~seed:7L () in
  let j1 = Obs.Export.chrome_json s1.Obs.Sink.trace in
  let j2 = Obs.Export.chrome_json s2.Obs.Sink.trace in
  Alcotest.(check bool) "trace is non-trivial"
    true
    (Obs.Trace.length s1.Obs.Sink.trace > 10);
  Alcotest.(check string) "equal seeds give byte-identical JSON" j1 j2;
  let t1 = Obs.Export.summary s1.Obs.Sink.trace in
  let t2 = Obs.Export.summary s2.Obs.Sink.trace in
  Alcotest.(check string) "summaries identical too" t1 t2

let event_names sink =
  List.map (fun e -> e.Obs.Trace.name) (Obs.Trace.events sink.Obs.Sink.trace)

(* The [events:] count of [name] in the --metrics digest
   ([Export.summary]): the one line of form "  NAME  xN" (span rows put
   a duration before their count); 0 when the name is absent. *)
let summary_count sink name =
  List.fold_left
    (fun acc line ->
      match Scanf.sscanf_opt line " %s x%d%!" (fun n c -> (n, c)) with
      | Some (n, c) when n = name -> c
      | Some _ | None -> acc)
    0
    (String.split_on_char '\n' (Obs.Export.summary sink.Obs.Sink.trace))

let test_trace_contains_lifecycle_events () =
  let r, sink = run_with_sink () in
  Alcotest.(check int) "clean run" 0
    (List.length r.Parallaft.Runtime.detections);
  let names = event_names sink in
  let has n = List.mem n names in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " event present") true (has n))
    [ "segment"; "fork"; "check"; "replay.start"; "compare"; "slice";
      "sys.record"; "sys.replay"; "exit" ];
  (* the same names must survive export *)
  let json = Obs.Export.chrome_json sink.Obs.Sink.trace in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " in JSON") true
        (contains ~needle:("\"name\":\"" ^ n ^ "\"") json))
    [ "segment"; "fork"; "compare" ];
  (* per-segment metrics accumulated *)
  (match Obs.Metrics.hist sink.Obs.Sink.metrics "checker.latency_ns" with
  | Some h -> Alcotest.(check bool) "latency observed" true
                (Obs.Metrics.Hist.count h > 0)
  | None -> Alcotest.fail "checker.latency_ns histogram missing")

let test_trace_contains_detection () =
  let fault_plan =
    Fault.checker_register ~segment:0 ~delay_instructions:50 ~reg:13 ~bit:7
  in
  let r, sink = run_with_sink ~fault_plan () in
  let names = event_names sink in
  Alcotest.(check bool) "detection event present" true
    (List.mem "detection" names);
  Alcotest.(check int) "one digest detection per reported detection"
    (List.length r.Parallaft.Runtime.detections)
    (summary_count sink "detection")

(* {2 JSON well-formedness}

   No JSON library in the test environment, so validate the exporter's
   output with a minimal recursive-descent parser: good enough to catch
   unbalanced brackets, bad escapes, trailing commas and garbage. *)

let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = failwith (Printf.sprintf "%s at byte %d" msg !pos) in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let fin = ref false in
    while not !fin do
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance (); fin := true
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            (match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> ()
            | _ -> fail "bad \\u escape");
            advance ()
          done
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some _ -> advance ()
    done
  in
  let parse_number () =
    let digits () =
      let saw = ref false in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        saw := true;
        advance ()
      done;
      if not !saw then fail "expected digit"
    in
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then (advance (); digits ());
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ())
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> parse_string ()
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let fin = ref false in
        while not !fin do
          skip_ws ();
          parse_string ();
          skip_ws ();
          expect ':';
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' -> advance ()
          | Some '}' -> advance (); fin := true
          | _ -> fail "expected , or }"
        done
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let fin = ref false in
        while not !fin do
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' -> advance ()
          | Some ']' -> advance (); fin := true
          | _ -> fail "expected , or ]"
        done
      end
    | Some 't' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "true" then pos := !pos + 4
      else fail "bad literal"
    | Some 'f' ->
      if !pos + 5 <= n && String.sub s !pos 5 = "false" then pos := !pos + 5
      else fail "bad literal"
    | Some 'n' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "null" then pos := !pos + 4
      else fail "bad literal"
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "expected value"
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let test_chrome_json_is_valid_json () =
  let _, sink = run_with_sink () in
  let json = Obs.Export.chrome_json sink.Obs.Sink.trace in
  (match validate_json json with
  | () -> ()
  | exception Failure msg -> Alcotest.fail ("invalid JSON: " ^ msg));
  Alcotest.(check bool) "has traceEvents key" true
    (contains ~needle:"\"traceEvents\"" json)

(* Pin the exporter's exact bytes for one event of every phase kind,
   with sub-microsecond timestamps: the trace_event "ts" field is
   microseconds, so 5 ns must render as "0.005" (three-digit fraction),
   never "0.5". Any formatting drift — field order, padding, separators
   — breaks the committed trace goldens, so catch it here with a
   readable diff first. *)
let test_export_bytes_pinned () =
  let t = Obs.Trace.create ~capacity:16 () in
  Obs.Trace.emit t ~ts_ns:5 ~track:(Obs.Trace.Core 0) ~phase:Obs.Trace.Begin
    "record";
  Obs.Trace.emit t ~ts_ns:42 ~track:Obs.Trace.Run ~phase:Obs.Trace.Counter
    ~args:[ ("self_ns", Obs.Trace.Int 7) ]
    "profile.record";
  Obs.Trace.emit t ~ts_ns:999 ~track:(Obs.Trace.Core 0) ~phase:Obs.Trace.Instant
    "mark";
  Obs.Trace.emit t ~ts_ns:1005 ~track:(Obs.Trace.Core 0) ~phase:Obs.Trace.End
    "record";
  let expected =
    String.concat "\n"
      [
        "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"cores\"}},";
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\"args\":{\"name\":\"runtime\"}},";
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"core 0\"}},";
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\"args\":{\"name\":\"run\"}},";
        "{\"name\":\"record\",\"ph\":\"B\",\"ts\":0.005,\"pid\":0,\"tid\":0},";
        "{\"name\":\"profile.record\",\"ph\":\"C\",\"ts\":0.042,\"pid\":2,\"tid\":0,\"args\":{\"self_ns\":7}},";
        "{\"name\":\"mark\",\"ph\":\"i\",\"ts\":0.999,\"pid\":0,\"tid\":0,\"s\":\"t\"},";
        "{\"name\":\"record\",\"ph\":\"E\",\"ts\":1.005,\"pid\":0,\"tid\":0}";
        "]}";
        "";
      ]
  in
  Alcotest.(check string) "exporter bytes pinned" expected
    (Obs.Export.chrome_json t)

(* {2 Span balance under abort and rollback}

   Checkers torn down by recover/abort_run never reach finish_checker;
   the coordinator must still close their "check" (and the in-flight
   "segment") Begin spans, or Perfetto renders dangling spans:
   [Fixtures.assert_spans_balanced] walks the event stream per track. *)

let has_torn_down sink =
  List.exists
    (fun e ->
      List.exists
        (fun (k, v) -> k = "outcome" && v = Obs.Trace.Str "torn-down")
        e.Obs.Trace.args)
    (Obs.Trace.events sink.Obs.Sink.trace)

let teardown_fault_plan =
  Fault.checker_register ~segment:1 ~delay_instructions:60 ~reg:13 ~bit:6

let test_abort_closes_spans () =
  let r, sink = run_with_sink ~fault_plan:teardown_fault_plan () in
  Alcotest.(check bool) "run aborted" true r.Parallaft.Runtime.aborted;
  Fixtures.assert_spans_balanced sink;
  Alcotest.(check bool) "torn-down close emitted" true (has_torn_down sink)

let test_recovery_closes_spans () =
  let r, sink =
    run_with_sink ~fault_plan:teardown_fault_plan ~recovery:true ()
  in
  Alcotest.(check bool) "rolled back" true
    (r.Parallaft.Runtime.stats.Parallaft.Stats.recoveries >= 1);
  Alcotest.(check bool) "run not aborted" false r.Parallaft.Runtime.aborted;
  Fixtures.assert_spans_balanced sink;
  Alcotest.(check bool) "torn-down close emitted" true (has_torn_down sink)

let test_recheck_spans_balanced () =
  (* A re-dispatched check moves the segment onto the spare checker's
     track mid-flight: the dying checker's "check" Begin must close
     (outcome "re-dispatched: ...") before the spare opens its own, or
     the trace ends with a dangling span on the old track. *)
  let r, sink = run_with_sink ~fault_plan:teardown_fault_plan ~recheck:true () in
  Alcotest.(check bool) "re-check dispatched" true
    (r.Parallaft.Runtime.stats.Parallaft.Stats.rechecks >= 1);
  Alcotest.(check bool) "resolved transient, run completed" true
    (r.Parallaft.Runtime.stats.Parallaft.Stats.transient_faults >= 1
    && r.Parallaft.Runtime.exit_status = Some 0);
  Fixtures.assert_spans_balanced sink;
  let names = event_names sink in
  Alcotest.(check bool) "recheck event present" true (List.mem "recheck" names);
  Alcotest.(check bool) "transient resolution event present" true
    (List.mem "recheck.transient" names);
  Alcotest.(check bool) "re-dispatch closed the old span" true
    (List.exists
       (fun e ->
         e.Obs.Trace.name = "check"
         && e.Obs.Trace.phase = Obs.Trace.End
         && List.exists
              (fun (k, v) ->
                k = "outcome"
                &&
                match v with
                | Obs.Trace.Str s -> contains ~needle:"re-dispatched" s
                | _ -> false)
              e.Obs.Trace.args)
       (Obs.Trace.events sink.Obs.Sink.trace))

(* {2 One record per run fact}

   A count of run events lives in the stats rows or the fleet report,
   and nowhere else. The --metrics digest's [events:] counts must agree
   with those records, and the fleet dump's per-tenant page-hash rows
   must carry what the comparator counted (the [compare] instants'
   hash arguments). *)

let compare_arg_sum sink key =
  List.fold_left
    (fun acc e ->
      match (e.Obs.Trace.name, List.assoc_opt key e.Obs.Trace.args) with
      | "compare", Some (Obs.Trace.Int n) -> acc + n
      | _ -> acc)
    0 (Obs.Trace.events sink.Obs.Sink.trace)

let test_event_counts_match_records () =
  let module S = Parallaft.Stats in
  let counts label sink expected =
    Alcotest.(check int) (label ^ ": ring kept every event") 0
      (Obs.Trace.dropped sink.Obs.Sink.trace);
    List.iter
      (fun (name, n) ->
        Alcotest.(check int) (Printf.sprintf "%s: %s events" label name) n
          (summary_count sink name))
      expected
  in
  (* A --recheck run whose one checker fault the re-check resolves. *)
  let r, sink =
    run_with_sink ~fault_plan:teardown_fault_plan ~recheck:true ()
  in
  let st = r.Parallaft.Runtime.stats in
  Alcotest.(check bool) "recheck run re-checked" true (st.S.rechecks >= 1);
  counts "recheck run" sink
    [
      ("detection", List.length st.S.detections);
      ("recheck", st.S.rechecks);
      ("recheck.transient", st.S.transient_faults);
      ("migrate", st.S.migrations);
    ];
  Alcotest.(check int) "recheck run: page-hash hits" st.S.page_hash_hits
    (compare_arg_sum sink "hash_hits");
  Alcotest.(check int) "recheck run: page-hash misses" st.S.page_hash_misses
    (compare_arg_sum sink "hash_misses");
  (* Four tenants, a main-memory fault rolled back in tenant 0. *)
  let sink = Obs.Sink.create () in
  let fault =
    {
      Fault.segment = 1;
      delay_instructions = 100;
      target = Fault.Main_memory_page { page_index = 3; bit = 9 };
      repeat = false;
    }
  in
  let f =
    Fleet.run ~platform
      ~config:
        {
          (Parallaft.Config.parallaft ~platform ~slice_period:20_000 ()) with
          Parallaft.Config.obs = Some sink;
          recovery = true;
        }
      ~configure:(fun tid cfg ->
        if tid = 0 then { cfg with Parallaft.Config.fault_plan = Some fault }
        else cfg)
      ~programs:(List.init 4 (fun _ -> busy_program ()))
      ()
  in
  let stats = List.filter_map (fun t -> t.Fleet.stats) f.Fleet.tenants in
  let sum g = List.fold_left (fun acc st -> acc + g st) 0 stats in
  Alcotest.(check bool) "fleet: tenant 0 detected" true
    (sum (fun st -> List.length st.S.detections) >= 1);
  counts "fleet" sink
    [
      ("detection", sum (fun st -> List.length st.S.detections));
      ("migrate", f.Fleet.migrations);
      ("steal", f.Fleet.steals);
      ("tenant.admit", f.Fleet.admitted);
    ];
  let rows = Fleet.to_assoc f in
  List.iter
    (fun t ->
      match t.Fleet.stats with
      | None -> Alcotest.fail "fleet: a tenant never admitted"
      | Some st ->
        List.iter
          (fun (name, v) ->
            let key = Printf.sprintf "fleet.tenant%d.%s" t.Fleet.tid name in
            Alcotest.(check (option string)) key (Some (string_of_int v))
              (List.assoc_opt key rows))
          [ ("page_hash_hits", st.S.page_hash_hits);
            ("page_hash_misses", st.S.page_hash_misses) ])
    f.Fleet.tenants;
  Alcotest.(check int) "fleet: page-hash hits"
    (sum (fun st -> st.S.page_hash_hits))
    (compare_arg_sum sink "hash_hits");
  Alcotest.(check int) "fleet: page-hash misses"
    (sum (fun st -> st.S.page_hash_misses))
    (compare_arg_sum sink "hash_misses")

(* {2 Detection ordering contract} *)

let test_detections_oldest_first () =
  let st = Parallaft.Stats.create () in
  let o1 = Parallaft.Detection.Timeout_detected in
  let o2 = Parallaft.Detection.Exception_detected "boom" in
  Parallaft.Stats.record_detection st ~segment:1 o1;
  Parallaft.Stats.record_detection st ~segment:2 o2;
  (* storage is newest first... *)
  (match st.Parallaft.Stats.detections with
  | [ (2, _); (1, _) ] -> ()
  | _ -> Alcotest.fail "storage should be newest first");
  (* ...and the report accessor flips it exactly once *)
  match Parallaft.Stats.detections_oldest_first st with
  | [ (1, _); (2, _) ] -> ()
  | _ -> Alcotest.fail "detections_oldest_first should be chronological"

(* {2 Phase-attribution profiler} *)

let test_profile_disabled_is_noop () =
  let p = Obs.Profile.create () in
  Obs.Profile.enter p ~ts_ns:0 ~track:(Obs.Trace.Core 0) "record";
  Alcotest.(check bool) "leave returns None" true
    (Obs.Profile.leave p ~ts_ns:10 ~track:(Obs.Trace.Core 0) "record" = None);
  Alcotest.(check bool) "add_ns returns None" true
    (Obs.Profile.add_ns p ~tracks:[ Obs.Trace.Run ] "compare" 5 = None);
  Alcotest.(check int) "no phases recorded" 0
    (List.length (Obs.Profile.phases p))

let test_profile_self_time_nesting () =
  let p = Obs.Profile.create () in
  Obs.Profile.set_enabled p true;
  let core = Obs.Trace.Core 0 in
  Obs.Profile.enter p ~ts_ns:0 ~track:core ~segment:0 "record";
  Obs.Profile.enter p ~ts_ns:10 ~track:core "main_held";
  Alcotest.(check (option int)) "nested scope self" (Some 20)
    (Obs.Profile.leave p ~ts_ns:30 ~track:core "main_held");
  Alcotest.(check (option int)) "zero-width charge" (Some 5)
    (Obs.Profile.add_ns p ~tracks:[ core ] ~segment:0 "compare" 5);
  (* record's self excludes both the nested scope and the charge *)
  Alcotest.(check (option int)) "outer self = elapsed - children" (Some 75)
    (Obs.Profile.leave p ~ts_ns:100 ~track:core "record");
  let phases = Obs.Profile.phases p in
  let get n =
    match List.assoc_opt n phases with
    | Some s -> s
    | None -> Alcotest.fail ("missing phase " ^ n)
  in
  Alcotest.(check int) "record total is inclusive" 100 (get "record").Obs.Profile.total_ns;
  Alcotest.(check bool) "core scopes are wall phases" true
    ((get "record").Obs.Profile.wall && (get "main_held").Obs.Profile.wall);
  Alcotest.(check bool) "charges are work phases" false
    (get "compare").Obs.Profile.wall;
  Alcotest.(check int) "wall partition sums scope selves" 95
    (Obs.Profile.wall_attributed_ns p);
  Alcotest.(check bool) "segment attribution" true
    (Obs.Profile.per_segment p = [ (0, [ ("compare", 5); ("record", 75) ]) ])

let test_profile_close_all () =
  let p = Obs.Profile.create () in
  Obs.Profile.set_enabled p true;
  Obs.Profile.enter p ~ts_ns:0 ~track:(Obs.Trace.Core 0) "record";
  Obs.Profile.enter p ~ts_ns:5 ~track:(Obs.Trace.Proc 1) "replay";
  Obs.Profile.add_units p
    ~tracks:[ Obs.Trace.Proc 1; Obs.Trace.Core 0 ]
    ~decoded:3 ~insns:100 ~blocks:7;
  Obs.Profile.close_all p ~ts_ns:50;
  let phases = Obs.Profile.phases p in
  let self n =
    match List.assoc_opt n phases with
    | Some s -> s.Obs.Profile.self_ns
    | None -> -1
  in
  Alcotest.(check int) "record closed at teardown" 50 (self "record");
  Alcotest.(check int) "replay closed at teardown" 45 (self "replay");
  (match List.assoc_opt "replay" phases with
  | Some s ->
    Alcotest.(check int) "units credited to innermost scope" 100
      s.Obs.Profile.insns;
    Alcotest.(check int) "blocks too" 7 s.Obs.Profile.blocks;
    Alcotest.(check int) "decoded too" 3 s.Obs.Profile.decoded
  | None -> Alcotest.fail "replay phase missing");
  (* idempotent: nothing left open *)
  Obs.Profile.close_all p ~ts_ns:99;
  Alcotest.(check int) "second close_all changes nothing" 50 (self "record")

let charges_gen =
  QCheck.Gen.(
    list_size (0 -- 20)
      (triple
         (oneofl [ "record"; "replay"; "compare"; "fork" ])
         (0 -- 1000)
         (opt (0 -- 3))))

let profiler_of charges =
  let p = Obs.Profile.create () in
  Obs.Profile.set_enabled p true;
  List.iter
    (fun (name, ns, seg) ->
      ignore (Obs.Profile.add_ns p ~tracks:[ Obs.Trace.Run ] ?segment:seg name ns))
    charges;
  p

let profile_fingerprint p = (Obs.Profile.phases p, Obs.Profile.per_segment p)

let qcheck_profile_merge =
  QCheck.Test.make ~name:"profile merge is order-independent and associative"
    ~count:200
    (QCheck.make QCheck.Gen.(triple charges_gen charges_gen charges_gen))
    (fun (ca, cb, cc) ->
      let pa = profiler_of ca and pb = profiler_of cb and pc = profiler_of cc in
      let merged srcs =
        let d = Obs.Profile.create () in
        Obs.Profile.merge_into d srcs;
        d
      in
      let direct = merged [ pa; pb; pc ] in
      let permuted = merged [ pc; pa; pb ] in
      let nested = merged [ merged [ pa; pb ]; pc ] in
      profile_fingerprint direct = profile_fingerprint permuted
      && profile_fingerprint direct = profile_fingerprint nested)

(* {2 Profiler through a full run} *)

let test_profiled_run_attribution () =
  let r, sink = run_with_sink ~profile:true () in
  let p = sink.Obs.Sink.profile in
  let phases = Obs.Profile.phases p in
  Alcotest.(check bool) "phases recorded" true (phases <> []);
  let wall = r.Parallaft.Runtime.wall_ns in
  let attributed = Obs.Profile.wall_attributed_ns p in
  Alcotest.(check bool) "wall partition within run wall-time" true
    (attributed > 0 && attributed <= wall);
  (* per-segment attribution sums back to the aggregate for the phases
     whose every scope carries a segment *)
  let seg_sum name =
    List.fold_left
      (fun acc (_, rows) ->
        acc + (match List.assoc_opt name rows with Some n -> n | None -> 0))
      0 (Obs.Profile.per_segment p)
  in
  let agg name =
    match List.assoc_opt name phases with
    | Some s -> s.Obs.Profile.self_ns
    | None -> Alcotest.fail ("missing phase " ^ name)
  in
  List.iter
    (fun n ->
      Alcotest.(check int) (n ^ " per-segment sums to aggregate") (agg n)
        (seg_sum n))
    [ "record"; "replay" ];
  (* the hot-path unit counters attributed work to the record phase *)
  (match List.assoc_opt "record" phases with
  | Some s ->
    Alcotest.(check bool) "record retired instructions" true
      (s.Obs.Profile.insns > 0 && s.Obs.Profile.blocks > 0)
  | None -> Alcotest.fail "record phase missing");
  (* counter tracks land in the export and it stays valid JSON *)
  let json = Obs.Export.chrome_json sink.Obs.Sink.trace in
  (match validate_json json with
  | () -> ()
  | exception Failure m -> Alcotest.fail ("invalid JSON with profiling: " ^ m));
  Alcotest.(check bool) "profile counter track present" true
    (contains ~needle:"\"name\":\"profile.record\",\"ph\":\"C\"" json)

let test_profiled_run_deterministic () =
  let r1, s1 = run_with_sink ~profile:true ~seed:7L () in
  let r2, s2 = run_with_sink ~profile:true ~seed:7L () in
  Alcotest.(check string) "equal seeds give identical breakdowns"
    (Obs.Profile.to_table s1.Obs.Sink.profile
       ~wall_ns:r1.Parallaft.Runtime.wall_ns)
    (Obs.Profile.to_table s2.Obs.Sink.profile
       ~wall_ns:r2.Parallaft.Runtime.wall_ns)

(* The rollback scope is the only one on the Run track, and the pacer's
   scheduler_idle charge (pool-wide idle core time) debits no scope, so
   a rollback's self-time is its whole elapsed time. *)
let test_rollback_self_time () =
  let platform = Platform.apple_m2 in
  let program =
    match Workloads.Spec.find "429.mcf" with
    | Some b ->
      List.hd
        (Workloads.Spec.programs b ~page_size:platform.Platform.page_size
           ~scale:0.3)
    | None -> Alcotest.fail "429.mcf missing from the suite"
  in
  let sink = Obs.Sink.create () in
  Obs.Profile.set_enabled sink.Obs.Sink.profile true;
  let config =
    {
      (Parallaft.Config.parallaft ~platform ()) with
      Parallaft.Config.obs = Some sink;
      recovery = true;
      fault_plan =
        Some
          {
            Fault.segment = 2;
            delay_instructions = 500;
            target = Fault.Main_memory_page { page_index = 3; bit = 9 };
            repeat = false;
          };
    }
  in
  let r = Parallaft.Runtime.run_protected ~platform ~config ~program () in
  Alcotest.(check int) "one rollback" 1
    r.Parallaft.Runtime.stats.Parallaft.Stats.recoveries;
  match List.assoc_opt "rollback" (Obs.Profile.phases sink.Obs.Sink.profile) with
  | None -> Alcotest.fail "no rollback phase"
  | Some s ->
    Alcotest.(check bool) "rollback self-time > 0" true (s.Obs.Profile.self_ns > 0);
    Alcotest.(check int) "rollback self-time = total" s.Obs.Profile.total_ns
      s.Obs.Profile.self_ns

let test_profile_off_leaves_run_untouched () =
  let _, sink = run_with_sink () in
  Alcotest.(check bool) "no profile.* events in trace" false
    (contains ~needle:"profile." (Obs.Export.chrome_json sink.Obs.Sink.trace));
  Alcotest.(check int) "no phases recorded" 0
    (List.length (Obs.Profile.phases sink.Obs.Sink.profile))

(* {2 Sink merging (parallel fan-out support)} *)

let task_sink i =
  let s = Obs.Sink.create () in
  Obs.Sink.observe s "latency_ns" (float_of_int (100 * (i + 1)));
  Obs.Sink.emit s ~ts_ns:(10 * i) ~track:(Obs.Trace.Proc i)
    ~phase:Obs.Trace.Instant
    (Printf.sprintf "task%d" i);
  s

let test_sink_merge_deterministic () =
  (* Merging per-task sinks in task order must be reproducible: two
     merges of equal task sinks give byte-identical traces and metric
     dumps, regardless of how the tasks themselves were scheduled. *)
  let merged () =
    let dst = Obs.Sink.create () in
    Obs.Sink.merge_into dst (List.init 3 task_sink);
    dst
  in
  let a = merged () and b = merged () in
  Alcotest.(check string) "traces identical"
    (Obs.Export.chrome_json a.Obs.Sink.trace)
    (Obs.Export.chrome_json b.Obs.Sink.trace);
  Alcotest.(check string) "metrics identical"
    (Obs.Metrics.to_text a.Obs.Sink.metrics)
    (Obs.Metrics.to_text b.Obs.Sink.metrics);
  (* Events append in task order; histogram observations re-add. *)
  let names =
    List.map (fun e -> e.Obs.Trace.name) (Obs.Trace.events a.Obs.Sink.trace)
  in
  Alcotest.(check (list string)) "events in task order"
    [ "task0"; "task1"; "task2" ] names;
  match Obs.Metrics.hist a.Obs.Sink.metrics "latency_ns" with
  | Some h ->
    Alcotest.(check int) "histogram observations re-added" 3
      (Obs.Metrics.Hist.count h);
    Alcotest.(check (float 1e-9)) "histogram sum" 600.0
      (Obs.Metrics.Hist.sum h)
  | None -> Alcotest.fail "merged histogram missing"

(* {2 Log quiet flag} *)

let test_log_quiet_flag () =
  let saved = Obs.Log.quiet () in
  Obs.Log.set_quiet true;
  Alcotest.(check bool) "quiet set" true (Obs.Log.quiet ());
  (* must not raise (and must not print, but that we can't observe here) *)
  Obs.Log.progress "suppressed %d" 42;
  Obs.Log.set_quiet false;
  Alcotest.(check bool) "quiet cleared" false (Obs.Log.quiet ());
  Obs.Log.set_quiet saved

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "ring overwrites oldest" `Quick
            test_ring_overwrites_oldest;
          Alcotest.test_case "disabled trace records nothing" `Quick
            test_disabled_trace_records_nothing;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "percentile math" `Quick test_hist_percentiles;
          Alcotest.test_case "percentile edge cases" `Quick
            test_hist_edge_cases;
          Alcotest.test_case "text dump names its quantiles" `Quick
            test_metrics_text_names_quantiles;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "trace-off sink records no events" `Quick
            test_trace_off_sink;
          Alcotest.test_case "equal seeds give identical traces" `Quick
            test_trace_deterministic;
          Alcotest.test_case "lifecycle events present" `Quick
            test_trace_contains_lifecycle_events;
          Alcotest.test_case "fault injection yields detection event" `Quick
            test_trace_contains_detection;
          Alcotest.test_case "chrome export is valid JSON" `Quick
            test_chrome_json_is_valid_json;
          Alcotest.test_case "exporter bytes pinned" `Quick
            test_export_bytes_pinned;
        ] );
      ( "profile",
        [
          Alcotest.test_case "disabled profiler is a no-op" `Quick
            test_profile_disabled_is_noop;
          Alcotest.test_case "self-time excludes children" `Quick
            test_profile_self_time_nesting;
          Alcotest.test_case "close_all retires open scopes" `Quick
            test_profile_close_all;
          QCheck_alcotest.to_alcotest qcheck_profile_merge;
          Alcotest.test_case "full-run attribution adds up" `Quick
            test_profiled_run_attribution;
          Alcotest.test_case "profiled runs are deterministic" `Quick
            test_profiled_run_deterministic;
          Alcotest.test_case "rollback self-time is its total" `Quick
            test_rollback_self_time;
          Alcotest.test_case "profiling off leaves the run untouched" `Quick
            test_profile_off_leaves_run_untouched;
        ] );
      ( "teardown",
        [
          Alcotest.test_case "abort closes open spans" `Quick
            test_abort_closes_spans;
          Alcotest.test_case "recovery closes open spans" `Quick
            test_recovery_closes_spans;
          Alcotest.test_case "re-dispatched check keeps spans balanced" `Quick
            test_recheck_spans_balanced;
        ] );
      ( "stats",
        [
          Alcotest.test_case "detections reported oldest first" `Quick
            test_detections_oldest_first;
          Alcotest.test_case "event counts match stats and fleet rows" `Quick
            test_event_counts_match_records;
        ] );
      ( "merge",
        [
          Alcotest.test_case "deterministic sink merge" `Quick
            test_sink_merge_deterministic;
        ] );
      ( "log",
        [ Alcotest.test_case "quiet flag" `Quick test_log_quiet_flag ] );
    ]
