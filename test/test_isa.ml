let test_insn_classify () =
  Alcotest.(check bool) "branch is branch" true
    (Isa.Insn.is_branch (Isa.Insn.Jump 0));
  Alcotest.(check bool) "cond branch is branch" true
    (Isa.Insn.is_branch (Isa.Insn.Branch (Isa.Insn.Eq, 0, 1, 0)));
  Alcotest.(check bool) "jr is branch" true
    (Isa.Insn.is_branch (Isa.Insn.Jump_reg 3));
  Alcotest.(check bool) "alu is not branch" false
    (Isa.Insn.is_branch (Isa.Insn.Li (0, 1)));
  Alcotest.(check bool) "load is memory" true
    (Isa.Insn.is_memory (Isa.Insn.Load (0, 1, 0)));
  Alcotest.(check bool) "rdtsc is nondet" true
    (Isa.Insn.is_nondet (Isa.Insn.Rdtsc 0));
  Alcotest.(check bool) "rdcoreid is nondet" true
    (Isa.Insn.is_nondet (Isa.Insn.Rdcoreid 0))

let test_insn_writes_reg () =
  Alcotest.(check (option int)) "load writes rd" (Some 5)
    (Isa.Insn.writes_reg (Isa.Insn.Load (5, 1, 0)));
  Alcotest.(check (option int)) "store writes none" None
    (Isa.Insn.writes_reg (Isa.Insn.Store (5, 1, 0)))

let test_insn_check () =
  (match Isa.Insn.check (Isa.Insn.Li (99, 0)) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad register accepted");
  match Isa.Insn.check (Isa.Insn.Alu (Isa.Insn.Shl, 0, 0, Isa.Insn.Imm 70)) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad shift accepted"

let test_program_validation () =
  (try
     ignore (Isa.Program.create ~name:"bad" [| Isa.Insn.Jump 5 |]);
     Alcotest.fail "out-of-range target accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Isa.Program.create ~name:"empty" [||]);
     Alcotest.fail "empty program accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Isa.Program.create ~name:"bad-entry" ~entry:7 [| Isa.Insn.Halt |]);
    Alcotest.fail "bad entry accepted"
  with Invalid_argument _ -> ()

let test_program_initial_brk_default () =
  let data = [ { Isa.Program.base = 0x2000; bytes = Bytes.create 100 } ] in
  let p = Isa.Program.create ~name:"p" ~data [| Isa.Insn.Halt |] in
  Alcotest.(check bool) "brk above data" true
    (p.Isa.Program.initial_brk >= 0x2000 + 100)

let test_builder_backpatch () =
  let b = Isa.Builder.create () in
  let l = Isa.Builder.fresh_label b in
  Isa.Builder.jump b l;
  Isa.Builder.nop b;
  Isa.Builder.place b l;
  Isa.Builder.halt b;
  let p = Isa.Builder.build ~name:"t" b in
  (match p.Isa.Program.code.(0) with
  | Isa.Insn.Jump 2 -> ()
  | i -> Alcotest.failf "expected jmp 2, got %s" (Isa.Insn.to_string i))

let test_builder_unplaced_label () =
  let b = Isa.Builder.create () in
  let l = Isa.Builder.fresh_label b in
  Isa.Builder.jump b l;
  try
    ignore (Isa.Builder.build ~name:"t" b);
    Alcotest.fail "unplaced label accepted"
  with Invalid_argument _ -> ()

let test_builder_double_place () =
  let b = Isa.Builder.create () in
  let l = Isa.Builder.here b in
  try
    Isa.Builder.place b l;
    Alcotest.fail "double place accepted"
  with Invalid_argument _ -> ()

let test_builder_loop_structure () =
  let b = Isa.Builder.create () in
  let body_count = ref 0 in
  Isa.Builder.loop b ~count_reg:5 ~times:3 (fun () ->
      incr body_count;
      Isa.Builder.nop b);
  Isa.Builder.halt b;
  let p = Isa.Builder.build ~name:"loop" b in
  Alcotest.(check int) "body emitted once" 1 !body_count;
  Alcotest.(check bool) "program has instructions" true (Isa.Program.length p > 5)

let test_asm_roundtrip () =
  let src = {|
    .name demo
    start:
      li r1, 10
      add r2, r1, 5
      beq r1, r2, start
      store r2, r1, 8
      halt
  |} in
  let p = Isa.Asm.assemble_exn src in
  Alcotest.(check string) "name from directive" "demo" p.Isa.Program.name;
  Alcotest.(check int) "5 instructions" 5 (Isa.Program.length p);
  (* Disassemble and re-assemble: same instruction sequence. *)
  let listing = Isa.Program.disassemble p in
  let stripped =
    String.split_on_char '\n' listing
    |> List.filter_map (fun line ->
           match String.index_opt line ':' with
           | Some i -> Some (String.sub line (i + 1) (String.length line - i - 1))
           | None -> None)
    |> String.concat "\n"
  in
  (* Branch targets in disassembly are absolute indices; they parse as
     labels only if defined, so compare instruction-by-instruction via a
     second program assembled from builder-equivalent source instead. *)
  Alcotest.(check bool) "disassembly nonempty" true (String.length stripped > 0)

let test_asm_errors () =
  let expect_error src =
    match Isa.Asm.assemble src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted bad source: %s" src
  in
  expect_error "bogus r1, r2";
  expect_error "li r99, 1";
  expect_error "jmp nowhere";
  expect_error "li r1";
  expect_error "start:\nstart:\nhalt";
  expect_error ".data 0x0 \"unterminated";
  expect_error ".frobnicate 3"

let test_asm_comments_and_data () =
  let src =
    ".data 0x1000 \"ab\" ; trailing comment\n# full-line comment\nhalt\n"
  in
  let p = Isa.Asm.assemble_exn src in
  (match p.Isa.Program.data with
  | [ { Isa.Program.base = 0x1000; bytes } ] ->
    Alcotest.(check string) "data bytes" "ab" (Bytes.to_string bytes)
  | _ -> Alcotest.fail "data segment wrong");
  Alcotest.(check int) "one instruction" 1 (Isa.Program.length p)

let test_asm_negative_immediates () =
  let p = Isa.Asm.assemble_exn "li r1, -42\nadd r1, r1, -1\nhalt" in
  match p.Isa.Program.code.(0) with
  | Isa.Insn.Li (1, -42) -> ()
  | i -> Alcotest.failf "got %s" (Isa.Insn.to_string i)

(* Random programs assembled from their own disassembly where possible:
   generate via builder, check Program.create accepts, and spot-check
   to_string is parseable for non-branch instructions. *)
let gen_simple_insn =
  QCheck.Gen.(
    oneof
      [
        map2 (fun rd imm -> Isa.Insn.Li (rd, imm)) (0 -- 15) (0 -- 1000);
        map2 (fun rd rs -> Isa.Insn.Mov (rd, rs)) (0 -- 15) (0 -- 15);
        map3
          (fun rd rs imm -> Isa.Insn.Alu (Isa.Insn.Add, rd, rs, Isa.Insn.Imm imm))
          (0 -- 15) (0 -- 15) (0 -- 100);
        map2 (fun rd rb -> Isa.Insn.Load (rd, rb, 0)) (0 -- 15) (0 -- 15);
        return Isa.Insn.Nop;
      ])

(* encode/decode: every valid instruction round-trips through its word
   form (the patch_code syscall's wire format), and junk words decode to
   None rather than to a malformed instruction. *)
let gen_any_insn = Fixtures.gen_insn ~target:QCheck.Gen.(0 -- 100_000)

let qcheck_encode_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trips valid instructions"
    ~count:2000
    (QCheck.make ~print:Isa.Insn.to_string gen_any_insn)
    (fun insn ->
      match Isa.Insn.encode insn with
      | None -> false (* every generated instruction passes check *)
      | Some w -> Isa.Insn.decode w = Some insn)

let qcheck_decode_never_malformed =
  QCheck.Test.make ~name:"decode of arbitrary words is valid or None"
    ~count:2000 QCheck.int (fun w ->
      match Isa.Insn.decode w with
      | None -> true
      | Some insn -> Isa.Insn.check insn = Ok ())

let test_encode_rejects_invalid () =
  Alcotest.(check (option int)) "bad register refuses to encode" None
    (Isa.Insn.encode (Isa.Insn.Li (99, 0)));
  Alcotest.(check (option int)) "bad shift amount refuses to encode" None
    (Isa.Insn.encode (Isa.Insn.Alu (Isa.Insn.Shl, 0, 0, Isa.Insn.Imm 70)));
  Alcotest.(check (option int)) "all-ones word decodes to nothing" None
    (Option.map (fun _ -> 0) (Isa.Insn.decode (-1)))

let qcheck_disasm_reparse =
  QCheck.Test.make ~name:"disassembly of simple insns reparses" ~count:300
    (QCheck.make gen_simple_insn) (fun insn ->
      let src = Isa.Insn.to_string insn ^ "\nhalt" in
      match Isa.Asm.assemble src with
      | Ok p -> p.Isa.Program.code.(0) = insn
      | Error _ -> false)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "isa"
    [
      ( "insn",
        [
          tc "classification" `Quick test_insn_classify;
          tc "writes_reg" `Quick test_insn_writes_reg;
          tc "check rejects invalid" `Quick test_insn_check;
        ] );
      ( "program",
        [
          tc "validation" `Quick test_program_validation;
          tc "initial brk default" `Quick test_program_initial_brk_default;
        ] );
      ( "builder",
        [
          tc "backpatching" `Quick test_builder_backpatch;
          tc "unplaced label" `Quick test_builder_unplaced_label;
          tc "double place" `Quick test_builder_double_place;
          tc "loop" `Quick test_builder_loop_structure;
        ] );
      ( "asm",
        [
          tc "roundtrip" `Quick test_asm_roundtrip;
          tc "errors" `Quick test_asm_errors;
          tc "comments and data" `Quick test_asm_comments_and_data;
          tc "negative immediates" `Quick test_asm_negative_immediates;
          QCheck_alcotest.to_alcotest qcheck_disasm_reparse;
        ] );
      ( "encoding",
        [
          tc "encode rejects invalid" `Quick test_encode_rejects_invalid;
          QCheck_alcotest.to_alcotest qcheck_encode_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_decode_never_malformed;
        ] );
    ]
