(** The runtime's side of the persisted segment log (DESIGN.md §17):
    the run's config fingerprint, the per-run output directory behind
    [--record-log], and {!read}, which reads such a directory back.
    This is the one module that knows a log directory's layout: a
    manifest plus one file per segment. *)

val validate : dir:string -> program:Isa.Program.t -> (unit, string) result
(** Whether [program] can be recorded into [dir]: every instruction has
    a binary encoding (checked first), and [dir] is a directory or can
    be created as one (its parent is a directory). [Error] is the
    reason. The CLI refuses a run on it before the simulation starts;
    {!create} calls it before creating anything. *)

(** Output state of one recorded run: the directory, the stateful
    {!Seglog.Writer}, boundary-syscall preambles pending for the next
    segment, and the id list for the final manifest. *)
type out

val create :
  dir:string ->
  cfg:Config.t ->
  platform:Platform.t ->
  program:Isa.Program.t ->
  seed:int64 ->
  (out, string) result
(** {!validate}, then creates [dir] if needed (one level). The header
    carries the {!Seglog.Record.config_digest} fingerprint. *)

val note_preamble : out -> Seglog.Record.sys_record -> unit
(** A boundary syscall (file-backed mmap splitting two segments)
    executed before the next segment's first instruction; attached to
    that segment's preamble. [in_data] carries the mapped file content
    so {!Offline} replay can reproduce the mapping without the live
    run's filesystem state. *)

val write_segment :
  out ->
  id:int ->
  events:Seglog.Record.event list ->
  end_point:Seglog.Record.exec_point ->
  insn_delta:int ->
  end_regs:int array ->
  pages:(int * Bytes.t) array ->
  int
(** Persist one recorded segment ({!segment_file_name}); returns the
    bytes written (0 after a rollback truncated the log). *)

val note_rollback : out -> last_checked:int -> unit
(** A recovery rollback happened: the linear recorded history ends at
    the last segment whose check actually ran ([last_checked] — the
    failing segment on a detection). Persisted segments past it (queued
    behind a deferred batch or remote dispatch) are dropped from the
    manifest: they were never verified against the discarded state.
    Latches the manifest's [truncated_at] and makes further
    {!write_segment} calls no-ops. *)

val finalize : out -> final_state_hash:int64 option -> unit
(** Write the manifest. *)

val stats : out -> Seglog.Writer.stats
val manifest_bytes : out -> int

val segment_file_name : int -> string
(** The file, under a log directory, that holds segment [id]. *)

type read_error =
  | Unreadable of string  (** a file could not be read: the message names it *)
  | Invalid of {
      file : string;
      error : Seglog.Codec.error;
    }  (** [file] is not a valid part of the log *)

val read_error_to_string : read_error -> string

val read :
  dir:string -> (Seglog.Record.manifest * Seglog.Record.segment list, read_error) result
(** The log in [dir]: its manifest, with the config fingerprint checked,
    then the segment files it lists, decoded in order with each file's
    segment id checked against the list. *)
