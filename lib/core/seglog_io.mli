(** Bridge between the runtime and the persisted segment log
    (DESIGN.md §17): config fingerprinting, conversion between the
    runtime's {!Config}/{!Fault}/{!Isa.Program} types and the
    {!Seglog.Record} shapes, and the per-run output directory behind
    [--record-log]. *)

val run_config : Config.t -> seed:int64 -> Seglog.Record.run_config

val header :
  Config.t -> platform:Platform.t -> workload:string -> seed:int64 -> Seglog.Record.header
(** Includes the {!Seglog.Record.config_digest} fingerprint. *)

val fault_spec : Fault.plan -> Seglog.Record.fault_spec
val plan_of_spec : Seglog.Record.fault_spec -> (Fault.plan, string) result

val program_of_record : Seglog.Record.program -> (Isa.Program.t, string) result

(** Output state of one recorded run: the open directory, the stateful
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
(** Creates [dir] if needed (one level). *)

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
(** Persist one recorded segment ([seg-NNNNNN.plog]); returns the bytes
    written (0 after a rollback truncated the log). *)

val note_rollback : out -> last_checked:int -> unit
(** A recovery rollback happened: the linear recorded history ends at
    the last segment whose check actually ran ([last_checked] — the
    failing segment on a detection). Persisted segments past it (queued
    behind a deferred batch or remote dispatch) are dropped from the
    manifest: they were never verified against the discarded state.
    Latches the manifest's [truncated_at] and makes further
    {!write_segment} calls no-ops. *)

val finalize : out -> final_state_hash:int64 option -> unit
(** Write [manifest.plog]. *)

val stats : out -> Seglog.Writer.stats
val manifest_bytes : out -> int
val segment_file_name : int -> string
