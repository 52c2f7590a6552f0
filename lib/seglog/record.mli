(** The parallaft-seglog v2 record types (DESIGN.md §17).

    The one definition of what a log holds, in the runtime's own types:
    the recorder appends these events to the in-memory {e Rr_log}, the
    checker replays them, and a manifest carries the run's
    {!Isa.Program.t} and {!Fault.plan} as they are. The core runtime's
    [Exec_point.t] is a type-equal re-export of {!exec_point}. So the
    live replay path and the persisted format share one definition and
    cannot drift apart.

    All structures are plain immutable data; OCaml structural equality
    ([=]) is the round-trip criterion used by the property tests. *)

val format_version : int
val isa_version : int
val manifest_magic : string
val segment_magic : string

type exec_point = {
  branches : int;  (** retired-branch count (segment-relative) *)
  pc : int;
}

(** Bytes the kernel wrote into main memory at [addr]. *)
type mem_effect = {
  addr : int;
  data : Bytes.t;
}

(** One syscall as the main process made it. A checker's matching call
    is compared against [call] and [in_data], and answered from
    [result] and [effects] instead of being re-executed, so its
    externally visible effects happen exactly once. *)
type sys_record = {
  call : Sim_os.Syscall.call;
  in_data : Bytes.t option;
      (** bytes the kernel read from main memory (write payloads, open
          paths), compared against the checker's buffer; for a boundary
          file-backed mmap, the mapped file content *)
  result : int;
  effects : mem_effect list;
      (** bytes the kernel wrote into main memory (read/getrandom data),
          injected into the checker instead of re-executing *)
}

type event =
  | Sys of sys_record
  | Nondet of {
      insn : Isa.Insn.t;  (** a trapped nondeterministic instruction *)
      value : int;  (** the value the main was given *)
    }
  | Ext_signal of {
      at : exec_point;  (** segment-relative delivery point *)
      signum : Sim_os.Sig_num.t;
    }

(** One fully recorded segment: everything the live checker consumes,
    plus the end-of-segment register snapshot and raw dirty-page
    payloads the comparison needs. [preamble] holds the boundary
    syscalls (file-backed mmaps) that split segments and execute
    between the previous segment's end and this one's first
    instruction. *)
type segment = {
  id : int;
  preamble : sys_record list;
  events : event list;
  end_point : exec_point;
  insn_delta : int;
  end_regs : int array;
  pages : (int * Bytes.t) array;  (** (vpn, raw page bytes), vpn-sorted *)
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
      (** written as its target keyword ({!Fault.target_kind_to_string})
          plus the two numbers {!Fault.target_kind_of_string}'s builder
          takes back *)
  recheck : bool;
      (** the transient re-check was on: a failed check was retried on a
          fresh checker, so a one-shot checker fault never decided the
          live verdict *)
}

type header = {
  config_digest : int64;
  platform : string;
  page_size : int;
  workload : string;
}

type manifest = {
  header : header;
  program : Isa.Program.t;  (** code written as {!Isa.Insn.encode} words *)
  config : run_config;
  segments : int list;  (** segment ids in replay order *)
  truncated_at : int option;
      (** last replayable segment id if a rollback cut the linear
          history short (recovery re-executes from a checkpoint, so
          post-rollback segments are not a continuation) *)
  final_state_hash : int64 option;
      (** the live run's {!Stats.final_state_hash}, when main exited *)
}

val config_digest :
  platform:string -> page_size:int -> workload:string -> run_config -> int64
(** Fingerprint over everything that shapes the recorded byte stream:
    format/ISA versions, platform identity, workload name and the
    {!run_config} fields. Stored in every file header; readers refuse
    mismatches ([Fingerprint_mismatch]) instead of producing bogus
    divergences. *)

(** Field codecs (framing/checksums live in {!Writer}/{!Reader}; the
    in-memory [Rr_log] uses the event codec directly). Readers raise
    {!Codec.Error} on malformed input: an undecodable instruction word,
    an unknown fault keyword or a program image {!Isa.Program.create}
    refuses is [Malformed]. Writers raise [Malformed] on an instruction
    with no binary encoding. *)

val put_sys : Codec.wbuf -> sys_record -> unit
val get_sys : Codec.rbuf -> sys_record
val put_event : Codec.wbuf -> event -> unit
val get_event : Codec.rbuf -> event
val put_point : Codec.wbuf -> exec_point -> unit
val get_point : Codec.rbuf -> exec_point
val put_program : Codec.wbuf -> Isa.Program.t -> unit
val get_program : Codec.rbuf -> Isa.Program.t
val put_config : Codec.wbuf -> run_config -> unit
val get_config : Codec.rbuf -> run_config
