(* Unit tests for the fault model (lib/fault): target taxonomy, CLI
   keyword parsing, the arming rule, plan validation and printing. The runtime-facing
   behavior of each target class is exercised end-to-end in
   test_parallaft; this file pins the pure description layer. *)

let plan_with target =
  { Fault.segment = 1; delay_instructions = 50; target; repeat = false }

let test_kind_roundtrip () =
  (* Every CLI keyword parses, and the built target prints back to the
     same keyword. *)
  List.iter
    (fun kw ->
      match Fault.target_kind_of_string kw with
      | Error k -> Alcotest.failf "keyword %s rejected (%s)" kw k
      | Ok build ->
        Alcotest.(check string)
          (kw ^ " roundtrips")
          kw
          (Fault.target_kind_to_string (build 3 4)))
    Fault.all_target_kinds

let test_unknown_kind_rejected () =
  match Fault.target_kind_of_string "cosmic-ray" with
  | Ok _ -> Alcotest.fail "unknown keyword accepted"
  | Error k -> Alcotest.(check string) "names the keyword" "cosmic-ray" k

let test_checker_register_constructor () =
  let p =
    Fault.checker_register ~segment:2 ~delay_instructions:70 ~reg:13 ~bit:6
  in
  Alcotest.(check int) "segment" 2 p.Fault.segment;
  Alcotest.(check int) "delay" 70 p.Fault.delay_instructions;
  Alcotest.(check bool) "transient" false p.Fault.repeat;
  match p.Fault.target with
  | Fault.Checker_register { reg = 13; bit = 6 } -> ()
  | _ -> Alcotest.fail "wrong target"

let test_side_classification () =
  let checker_side =
    [
      Fault.Checker_register { reg = 1; bit = 0 };
      Fault.Checker_memory_page { page_index = 0; bit = 0 };
      Fault.Runtime_fault Fault.Kill;
      Fault.Runtime_fault Fault.Stall;
    ]
  and main_side =
    [
      Fault.Main_register { reg = 1; bit = 0 };
      Fault.Main_memory_page { page_index = 0; bit = 0 };
    ]
  in
  List.iter
    (fun tg ->
      let p = plan_with tg in
      Alcotest.(check bool) "checker side" true (Fault.targets_checker p);
      Alcotest.(check bool) "not main side" false (Fault.targets_main p))
    checker_side;
  List.iter
    (fun tg ->
      let p = plan_with tg in
      Alcotest.(check bool) "main side" true (Fault.targets_main p);
      Alcotest.(check bool) "not checker side" false (Fault.targets_checker p))
    main_side

(* The arming rule over its whole domain (plan_with's segment is 1): a
   one-shot plan arms only at its own segment on the first attempt; a
   repeat plan at its segment and every later one, on every attempt. *)
let test_arming_table () =
  List.iter
    (fun (repeat, segment, attempt, covers, arms) ->
      let p = { (plan_with (Fault.Checker_register { reg = 3; bit = 4 })) with repeat } in
      let name =
        Printf.sprintf "%s, segment %d, attempt %d"
          (if repeat then "repeat" else "one-shot")
          segment attempt
      in
      Alcotest.(check bool) (name ^ ": covers") covers (Fault.covers p ~segment);
      Alcotest.(check bool) (name ^ ": arms") arms (Fault.arms p ~segment ~attempt))
    [
      (false, 0, 0, false, false);
      (false, 0, 1, false, false);
      (false, 1, 0, true, true);
      (false, 1, 1, true, false);
      (false, 2, 0, false, false);
      (false, 2, 1, false, false);
      (true, 0, 0, false, false);
      (true, 0, 1, false, false);
      (true, 1, 0, true, true);
      (true, 1, 1, true, true);
      (true, 2, 0, true, true);
      (true, 2, 1, true, true);
    ]

let check_invalid name p =
  match Fault.validate p with
  | Ok () -> Alcotest.fail (name ^ " accepted")
  | Error _ -> ()

let test_validate () =
  (match Fault.validate (plan_with (Fault.Checker_register { reg = 0; bit = 63 })) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "bit 63 rejected: %s" m);
  check_invalid "bit 64"
    (plan_with (Fault.Checker_register { reg = 0; bit = 64 }));
  check_invalid "negative bit"
    (plan_with (Fault.Main_register { reg = 0; bit = -1 }));
  check_invalid "bad register"
    (plan_with (Fault.Main_register { reg = Isa.Insn.num_regs; bit = 0 }));
  check_invalid "negative page"
    (plan_with (Fault.Checker_memory_page { page_index = -1; bit = 0 }));
  check_invalid "negative delay"
    {
      Fault.segment = 0;
      delay_instructions = -1;
      target = Fault.Runtime_fault Fault.Kill;
      repeat = false;
    };
  check_invalid "negative segment"
    {
      Fault.segment = -1;
      delay_instructions = 0;
      target = Fault.Runtime_fault Fault.Kill;
      repeat = false;
    }

let test_to_string_mentions_fields () =
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    nl = 0 || go 0
  in
  let s =
    Fault.to_string
      {
        Fault.segment = 3;
        delay_instructions = 99;
        target = Fault.Main_memory_page { page_index = 7; bit = 5 };
        repeat = true;
      }
  in
  Alcotest.(check bool) ("mentions target kind: " ^ s) true
    (contains ~needle:"main-mem" s)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "fault"
    [
      ( "model",
        [
          tc "kind keywords roundtrip" `Quick test_kind_roundtrip;
          tc "unknown keyword rejected" `Quick test_unknown_kind_rejected;
          tc "checker_register constructor" `Quick
            test_checker_register_constructor;
          tc "checker/main side classification" `Quick test_side_classification;
          tc "arming: one-shot/repeat x segment x attempt" `Quick test_arming_table;
          tc "validation ranges" `Quick test_validate;
          tc "to_string names the target" `Quick test_to_string_mentions_fields;
        ] );
    ]
