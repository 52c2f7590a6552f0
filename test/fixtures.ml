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

(* A recorded segment log's manifest and segments, decoded and
   validated; any read error fails the test. *)
let load_log dir =
  match Parallaft.Seglog_io.read ~dir with
  | Ok log -> log
  | Error e -> Alcotest.fail (Parallaft.Seglog_io.read_error_to_string e)

(* Every instruction form of the ISA, valid and encodable: branch
   targets drawn from [target], immediates out to the narrowest
   field's edge (the ALU immediate's 46 bits). *)
let gen_insn ~target =
  QCheck.Gen.(
    let reg = 0 -- (Isa.Insn.num_regs - 1) in
    let imm =
      frequency [ (4, -100_000 -- 100_000); (1, oneofl [ -(1 lsl 45); (1 lsl 45) - 1 ]) ]
    in
    let alu_op = oneofl Isa.Insn.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ] in
    oneof
      [ (let* op = alu_op and* rd = reg and* rs1 = reg and* rs2 = reg in
         return (Isa.Insn.Alu (op, rd, rs1, Isa.Insn.Reg rs2)));
        (* shift immediates are encodable only in 0..62 (a register
           operand can still name 63 at runtime) *)
        (let* op = alu_op and* rd = reg and* rs1 = reg and* i = imm in
         let i = match op with Isa.Insn.Shl | Isa.Insn.Shr -> abs i mod 63 | _ -> i in
         return (Isa.Insn.Alu (op, rd, rs1, Isa.Insn.Imm i)));
        map2 (fun rd i -> Isa.Insn.Li (rd, i)) reg imm;
        map2 (fun rd rs -> Isa.Insn.Mov (rd, rs)) reg reg;
        map3 (fun rd rb off -> Isa.Insn.Load (rd, rb, off)) reg reg imm;
        map3 (fun rs rb off -> Isa.Insn.Store (rs, rb, off)) reg reg imm;
        map3 (fun rd rb off -> Isa.Insn.Load8 (rd, rb, off)) reg reg imm;
        map3 (fun rs rb off -> Isa.Insn.Store8 (rs, rb, off)) reg reg imm;
        (let* c = oneofl Isa.Insn.[ Eq; Ne; Lt; Ge ] and* rs1 = reg and* rs2 = reg
         and* t = target in
         return (Isa.Insn.Branch (c, rs1, rs2, t)));
        map (fun t -> Isa.Insn.Jump t) target;
        map (fun rs -> Isa.Insn.Jump_reg rs) reg;
        return Isa.Insn.Syscall;
        map (fun r -> Isa.Insn.Rdtsc r) reg;
        map (fun r -> Isa.Insn.Rdcoreid r) reg;
        map (fun r -> Isa.Insn.Rdrand r) reg;
        return Isa.Insn.Nop;
        return Isa.Insn.Halt ])
