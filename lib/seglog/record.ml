(* The parallaft-seglog v2 record types and their field codecs.

   These are the canonical shapes of everything a checker needs
   (DESIGN.md §17), in the runtime's own types: Rr_log stores these
   events, Exec_point re-exports exec_point, and a manifest holds the
   run's Isa.Program.t and Fault.plan, so the live replay path and the
   on-disk format cannot drift apart. Field codecs raise Codec.Error
   on any malformed input; framing, checksums and version checks live
   in Writer/Reader. *)

let format_version = 2

(* Bumped whenever Isa.Insn encodings or Sim_os.Syscall numbers change
   meaning: logs carry instruction words and syscall tags verbatim. *)
let isa_version = 1

let manifest_magic = "PSEGLOGM"
let segment_magic = "PSEGLOGS"

type exec_point = {
  branches : int;
  pc : int;
}

type mem_effect = {
  addr : int;
  data : Bytes.t;
}

type sys_record = {
  call : Sim_os.Syscall.call;
  in_data : Bytes.t option;
  result : int;
  effects : mem_effect list;
}

type event =
  | Sys of sys_record
  | Nondet of {
      insn : Isa.Insn.t;
      value : int;
    }
  | Ext_signal of {
      at : exec_point;
      signum : Sim_os.Sig_num.t;
    }

type segment = {
  id : int;
  preamble : sys_record list;
  events : event list;
  end_point : exec_point;
  insn_delta : int;
  end_regs : int array;
  pages : (int * Bytes.t) array;
}

type run_config = {
  mode_raft : bool;
  slice_period : int;
  timeout_scale : float;
  compare_states : bool;
  dirty_backend : string;
  hasher : string;
  seed : int64;
  fault : Fault.plan option;
  recheck : bool;
}

type header = {
  config_digest : int64;
  platform : string;
  page_size : int;
  workload : string;
}

type manifest = {
  header : header;
  program : Isa.Program.t;
  config : run_config;
  segments : int list;
  truncated_at : int option;
  final_state_hash : int64 option;
}

(* ---------- config fingerprint ---------- *)

(* The two numbers Fault.target_kind_of_string's builder takes back
   (runtime targets take none). *)
let fault_args = function
  | Fault.Checker_register { reg; bit } | Fault.Main_register { reg; bit } -> (reg, bit)
  | Fault.Checker_memory_page { page_index; bit } | Fault.Main_memory_page { page_index; bit }
    ->
    (page_index, bit)
  | Fault.Runtime_fault _ -> (0, 0)

let fault_to_string = function
  | None -> "none"
  | Some (p : Fault.plan) ->
    let a, b = fault_args p.target in
    Printf.sprintf "%s@%d+%d(%d,%d)%s"
      (Fault.target_kind_to_string p.target)
      p.segment p.delay_instructions a b
      (if p.repeat then "*" else "")

(* Everything that shapes the recorded byte stream or its
   interpretation, hashed over a canonical rendering. A replayer built
   from a different config would produce bogus divergences, so the
   reader refuses mismatches up front (Fingerprint_mismatch). *)
let config_digest ~platform ~page_size ~workload (c : run_config) =
  let canon =
    Printf.sprintf "parallaft-seglog:%d:%d|%s|%d|%s|%s|%d|%h|%b|%s|%s|%Ld|%s|%b"
      format_version isa_version platform page_size workload
      (if c.mode_raft then "raft" else "parallaft")
      c.slice_period c.timeout_scale c.compare_states c.dirty_backend c.hasher c.seed
      (fault_to_string c.fault) c.recheck
  in
  Ftr_hash.Xxh64.hash (Bytes.unsafe_of_string canon)

(* ---------- field codecs ---------- *)

let put_call w (c : Sim_os.Syscall.call) =
  let u8 = Codec.u8 w and v = Codec.varint w in
  match c with
  | Exit code ->
    u8 0;
    v code
  | Write { fd; addr; len } ->
    u8 1;
    v fd;
    v addr;
    v len
  | Read { fd; addr; len } ->
    u8 2;
    v fd;
    v addr;
    v len
  | Open { path_addr; path_len; flags } ->
    u8 3;
    v path_addr;
    v path_len;
    v flags
  | Close { fd } ->
    u8 4;
    v fd
  | Brk { addr } ->
    u8 5;
    v addr
  | Mmap { addr; len; prot; flags; fd; off } ->
    u8 6;
    v addr;
    v len;
    v prot;
    v flags;
    v fd;
    v off
  | Munmap { addr; len } ->
    u8 7;
    v addr;
    v len
  | Mprotect { addr; len; prot } ->
    u8 8;
    v addr;
    v len;
    v prot
  | Getpid -> u8 9
  | Gettime -> u8 10
  | Sigaction { signum; handler_pc } ->
    u8 11;
    v signum;
    v handler_pc
  | Sigreturn -> u8 12
  | Getrandom { addr; len } ->
    u8 13;
    v addr;
    v len
  | Patch_code { pc; word } ->
    u8 14;
    v pc;
    v word
  | Unknown n ->
    u8 15;
    v n

let get_call r : Sim_os.Syscall.call =
  let v () = Codec.r_varint r in
  match Codec.r_u8 r with
  | 0 -> Exit (v ())
  | 1 ->
    let fd = v () in
    let addr = v () in
    let len = v () in
    Write { fd; addr; len }
  | 2 ->
    let fd = v () in
    let addr = v () in
    let len = v () in
    Read { fd; addr; len }
  | 3 ->
    let path_addr = v () in
    let path_len = v () in
    let flags = v () in
    Open { path_addr; path_len; flags }
  | 4 -> Close { fd = v () }
  | 5 -> Brk { addr = v () }
  | 6 ->
    let addr = v () in
    let len = v () in
    let prot = v () in
    let flags = v () in
    let fd = v () in
    let off = v () in
    Mmap { addr; len; prot; flags; fd; off }
  | 7 ->
    let addr = v () in
    let len = v () in
    Munmap { addr; len }
  | 8 ->
    let addr = v () in
    let len = v () in
    let prot = v () in
    Mprotect { addr; len; prot }
  | 9 -> Getpid
  | 10 -> Gettime
  | 11 ->
    let signum = v () in
    let handler_pc = v () in
    Sigaction { signum; handler_pc }
  | 12 -> Sigreturn
  | 13 ->
    let addr = v () in
    let len = v () in
    Getrandom { addr; len }
  | 14 ->
    let pc = v () in
    let word = v () in
    Patch_code { pc; word }
  | 15 -> Unknown (v ())
  | t -> Codec.malformed "unknown syscall tag %d" t

let put_opt_bytes w = function
  | None -> Codec.u8 w 0
  | Some b ->
    Codec.u8 w 1;
    Codec.bytes_ w b

let get_opt_bytes r =
  match Codec.r_u8 r with
  | 0 -> None
  | 1 -> Some (Codec.r_bytes r)
  | t -> Codec.malformed "bad option tag %d" t

let put_sys w s =
  put_call w s.call;
  put_opt_bytes w s.in_data;
  Codec.varint w s.result;
  Codec.uvarint w (List.length s.effects);
  List.iter
    (fun e ->
      Codec.varint w e.addr;
      Codec.bytes_ w e.data)
    s.effects

let get_sys r =
  let call = get_call r in
  let in_data = get_opt_bytes r in
  let result = Codec.r_varint r in
  let n = Codec.r_uvarint r in
  let effects =
    List.init n (fun _ ->
        let addr = Codec.r_varint r in
        let data = Codec.r_bytes r in
        { addr; data })
  in
  { call; in_data; result; effects }

let put_point w p =
  Codec.varint w p.branches;
  Codec.varint w p.pc

let get_point r =
  let branches = Codec.r_varint r in
  let pc = Codec.r_varint r in
  { branches; pc }

let put_event w = function
  | Sys s ->
    Codec.u8 w 0;
    put_sys w s
  | Nondet { insn; value } -> (
    match Isa.Insn.encode insn with
    | None ->
      (* Only trapped nondet instructions reach a log and they all
         encode; hitting this means the ISA grew an unencodable one and
         isa_version needs a bump. *)
      Codec.malformed "nondet instruction has no binary encoding"
    | Some word ->
      Codec.u8 w 1;
      Codec.varint w word;
      Codec.varint w value)
  | Ext_signal { at; signum } ->
    Codec.u8 w 2;
    put_point w at;
    Codec.varint w signum

let get_event r =
  match Codec.r_u8 r with
  | 0 -> Sys (get_sys r)
  | 1 -> (
    let word = Codec.r_varint r in
    let value = Codec.r_varint r in
    match Isa.Insn.decode word with
    | Some insn -> Nondet { insn; value }
    | None -> Codec.malformed "undecodable nondet instruction word %#x" word)
  | 2 ->
    let at = get_point r in
    let signum = Codec.r_varint r in
    Ext_signal { at; signum }
  | t -> Codec.malformed "unknown event tag %d" t

let put_program w (p : Isa.Program.t) =
  Codec.str w p.name;
  Codec.varint w p.entry;
  Codec.varint w p.initial_brk;
  Codec.uvarint w (Array.length p.code);
  Array.iter
    (fun insn ->
      match Isa.Insn.encode insn with
      | Some word -> Codec.varint w word
      | None ->
        Codec.malformed "instruction %s has no binary encoding" (Isa.Insn.to_string insn))
    p.code;
  Codec.uvarint w (List.length p.data);
  List.iter
    (fun (d : Isa.Program.data_segment) ->
      Codec.varint w d.base;
      Codec.bytes_ w d.bytes)
    p.data

let get_program r =
  let name = Codec.r_str r in
  let entry = Codec.r_varint r in
  let initial_brk = Codec.r_varint r in
  let ncode = Codec.r_uvarint r in
  if ncode > Codec.remaining r then Codec.malformed "code section longer than the file";
  let code =
    Array.init ncode (fun _ ->
        let word = Codec.r_varint r in
        match Isa.Insn.decode word with
        | Some insn -> insn
        | None -> Codec.malformed "undecodable instruction word %#x in program image" word)
  in
  let ndata = Codec.r_uvarint r in
  let data =
    List.init ndata (fun _ ->
        let base = Codec.r_varint r in
        let bytes = Codec.r_bytes r in
        { Isa.Program.base; bytes })
  in
  match Isa.Program.create ~name ~entry ~data ~initial_brk code with
  | p -> p
  | exception Invalid_argument m -> Codec.malformed "%s" m

let put_config w c =
  Codec.u8 w (if c.mode_raft then 1 else 0);
  Codec.varint w c.slice_period;
  Codec.i64 w (Int64.bits_of_float c.timeout_scale);
  Codec.u8 w (if c.compare_states then 1 else 0);
  Codec.str w c.dirty_backend;
  Codec.str w c.hasher;
  Codec.i64 w c.seed;
  (match c.fault with
  | None -> Codec.u8 w 0
  | Some (p : Fault.plan) ->
    let a, b = fault_args p.target in
    Codec.u8 w 1;
    Codec.str w (Fault.target_kind_to_string p.target);
    Codec.varint w p.segment;
    Codec.varint w p.delay_instructions;
    Codec.varint w a;
    Codec.varint w b;
    Codec.u8 w (if p.repeat then 1 else 0));
  Codec.u8 w (if c.recheck then 1 else 0)

let get_bool r =
  match Codec.r_u8 r with
  | 0 -> false
  | 1 -> true
  | t -> Codec.malformed "bad bool tag %d" t

let get_config r =
  let mode_raft = get_bool r in
  let slice_period = Codec.r_varint r in
  let timeout_scale = Int64.float_of_bits (Codec.r_i64 r) in
  let compare_states = get_bool r in
  let dirty_backend = Codec.r_str r in
  let hasher = Codec.r_str r in
  let seed = Codec.r_i64 r in
  let fault =
    match Codec.r_u8 r with
    | 0 -> None
    | 1 ->
      let kind = Codec.r_str r in
      let segment = Codec.r_varint r in
      let delay_instructions = Codec.r_varint r in
      let a = Codec.r_varint r in
      let b = Codec.r_varint r in
      let repeat = get_bool r in
      let build =
        match Fault.target_kind_of_string kind with
        | Ok build -> build
        | Error k -> Codec.malformed "unknown fault target %S" k
      in
      Some { Fault.segment; delay_instructions; target = build a b; repeat }
    | t -> Codec.malformed "bad option tag %d" t
  in
  let recheck = get_bool r in
  { mode_raft; slice_period; timeout_scale; compare_states; dirty_backend; hasher; seed;
    fault; recheck }
