type data_segment = {
  base : int;
  bytes : Bytes.t;
}

type t = {
  name : string;
  code : Insn.t array;
  entry : int;
  data : data_segment list;
  initial_brk : int;
}

let validate_target code target =
  if target < 0 || target >= Array.length code then
    invalid_arg
      (Printf.sprintf "Program.create: branch target %d outside code [0, %d)"
         target (Array.length code))

let create ~name ?(entry = 0) ?(data = []) ?initial_brk code =
  if Array.length code = 0 then invalid_arg "Program.create: empty code";
  if entry < 0 || entry >= Array.length code then
    invalid_arg "Program.create: entry outside code";
  Array.iteri
    (fun i insn ->
      (match Insn.check insn with
      | Ok () -> ()
      | Error msg ->
        invalid_arg (Printf.sprintf "Program.create: insn %d: %s" i msg));
      match insn with
      | Insn.Branch (_, _, _, target) | Insn.Jump target ->
        validate_target code target
      | Insn.Alu _ | Insn.Li _ | Insn.Mov _ | Insn.Load _ | Insn.Store _
      | Insn.Load8 _ | Insn.Store8 _ | Insn.Jump_reg _ | Insn.Syscall
      | Insn.Rdtsc _ | Insn.Rdcoreid _ | Insn.Rdrand _ | Insn.Nop | Insn.Halt
        ->
        ())
    code;
  List.iter
    (fun { base; bytes = _ } ->
      if base < 0 then invalid_arg "Program.create: negative data base")
    data;
  let initial_brk =
    match initial_brk with
    | Some b -> b
    | None ->
      let top =
        List.fold_left
          (fun acc { base; bytes } -> Int.max acc (base + Bytes.length bytes))
          0x1000 data
      in
      (* Round up to a generous boundary so the heap never collides with
         static data regardless of the platform page size. *)
      (top + 0xFFFF) land lnot 0xFFFF
  in
  { name; code; entry; data; initial_brk }

let length t = Array.length t.code

let disassemble t =
  let buf = Buffer.create (Array.length t.code * 24) in
  Array.iteri
    (fun i insn ->
      Buffer.add_string buf (Printf.sprintf "%5d: %s\n" i (Insn.to_string insn)))
    t.code;
  Buffer.contents buf
