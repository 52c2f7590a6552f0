(** The simulated kernel's file layer.

    A deliberately small surface: the byte sinks and sources the paper's
    workloads and stress tests need — stdout/stderr capture, [/dev/zero]
    (the §5.7 read stress), [/dev/urandom] (a nondeterministic input the
    runtime must record/replay), and an in-memory filesystem of regular
    files (inputs, outputs, and the backing store for file-backed private
    mmaps, §4.3.2). *)

type kind =
  | Stdout
  | Stderr
  | Dev_zero
  | Dev_urandom
  | Regular of string  (** path in the in-memory filesystem *)

type open_file = {
  kind : kind;
  mutable offset : int;
}

type fs
(** The system-wide filesystem and captured output streams. *)

val create_fs : rng:Util.Rng.t -> fs

val add_file : fs -> path:string -> Bytes.t -> unit
(** Create or replace a regular file. *)

val file_exists : fs -> path:string -> bool

val lookup : fs -> path:string -> create:bool -> kind option
(** Resolve a path to a file kind; [/dev/zero] and [/dev/urandom] are
    built in. With [create], a missing regular file is created empty. *)

val read : fs -> open_file -> len:int -> Bytes.t
(** Read up to [len] bytes at the file's offset, advancing it. Device
    files always return exactly [len] bytes. *)

val write : fs -> open_file -> Bytes.t -> int
(** Write at the file's offset, advancing it; returns bytes written.
    Writes to [Stdout]/[Stderr] append to the capture buffers. *)

val captured_stdout : fs -> string
