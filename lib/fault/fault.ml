type target =
  | Checker_register of { reg : int; bit : int }
  | Checker_memory_page of { page_index : int; bit : int }
  | Main_register of { reg : int; bit : int }
  | Main_memory_page of { page_index : int; bit : int }
  | Runtime_fault of runtime_kind

and runtime_kind =
  | Kill
  | Stall

type plan = {
  segment : int;
  delay_instructions : int;
  target : target;
  repeat : bool;
}

let checker_register ~segment ~delay_instructions ~reg ~bit =
  { segment; delay_instructions; target = Checker_register { reg; bit };
    repeat = false }

let targets_checker p =
  match p.target with
  | Checker_register _ | Checker_memory_page _ | Runtime_fault _ -> true
  | Main_register _ | Main_memory_page _ -> false

let targets_main p = not (targets_checker p)

let covers p ~segment =
  segment = p.segment || (p.repeat && segment > p.segment)

let arms p ~segment ~attempt = covers p ~segment && (p.repeat || attempt = 0)

let arm_on_cpu cpu p =
  match p.target with
  | Checker_register { reg; bit } | Main_register { reg; bit } ->
    Machine.Cpu.arm_fault_injection cpu ~after_instructions:p.delay_instructions
      ~reg ~bit
  | Checker_memory_page { page_index; bit } | Main_memory_page { page_index; bit } ->
    Machine.Cpu.arm_memory_fault_injection cpu
      ~after_instructions:p.delay_instructions ~page_index ~bit
  | Runtime_fault _ -> ()

let target_kind_to_string = function
  | Checker_register _ -> "checker-reg"
  | Checker_memory_page _ -> "checker-mem"
  | Main_register _ -> "main-reg"
  | Main_memory_page _ -> "main-mem"
  | Runtime_fault Kill -> "runtime-kill"
  | Runtime_fault Stall -> "runtime-stall"

let target_kind_of_string = function
  | "checker-reg" -> Ok (fun reg bit -> Checker_register { reg; bit })
  | "checker-mem" ->
    Ok (fun page_index bit -> Checker_memory_page { page_index; bit })
  | "main-reg" -> Ok (fun reg bit -> Main_register { reg; bit })
  | "main-mem" ->
    Ok (fun page_index bit -> Main_memory_page { page_index; bit })
  | "runtime-kill" -> Ok (fun _ _ -> Runtime_fault Kill)
  | "runtime-stall" -> Ok (fun _ _ -> Runtime_fault Stall)
  | s -> Error s

let all_target_kinds =
  [ "checker-reg"; "checker-mem"; "main-reg"; "main-mem";
    "runtime-kill"; "runtime-stall" ]

let target_to_string = function
  | Checker_register { reg; bit } | Main_register { reg; bit } ->
    Printf.sprintf "r%d bit %d" reg bit
  | Checker_memory_page { page_index; bit }
  | Main_memory_page { page_index; bit } ->
    Printf.sprintf "page %d bit %d" page_index bit
  | Runtime_fault Kill -> "kill checker"
  | Runtime_fault Stall -> "stall checker"

let to_string p =
  Printf.sprintf "%s@seg%d+%d (%s%s)"
    (target_kind_to_string p.target)
    p.segment p.delay_instructions (target_to_string p.target)
    (if p.repeat then ", persistent" else "")

let validate p =
  let check_bit bit =
    if bit < 0 || bit > 63 then Error (Printf.sprintf "bit %d out of [0, 63]" bit)
    else Ok ()
  in
  let check_reg reg =
    if reg < 0 || reg >= Isa.Insn.num_regs then
      Error (Printf.sprintf "register %d out of [0, %d)" reg Isa.Insn.num_regs)
    else Ok ()
  in
  if p.segment < 0 then Error "negative segment index"
  else if p.delay_instructions < 0 then Error "negative instruction delay"
  else
    match p.target with
    | Checker_register { reg; bit } | Main_register { reg; bit } -> (
      match check_reg reg with Ok () -> check_bit bit | e -> e)
    | Checker_memory_page { page_index; bit }
    | Main_memory_page { page_index; bit } ->
      if page_index < 0 then Error "negative page index" else check_bit bit
    | Runtime_fault (Kill | Stall) -> Ok ()
