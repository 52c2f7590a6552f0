(** Offline replay of a persisted segment log (DESIGN.md §17).

    [parallaft_replay] re-checks a [--record-log] directory without the
    original run: a fresh simulation is built from the manifest's
    platform, seed and program, and one traced process re-executes the
    whole recorded history segment by segment under the live checker's
    own {!Replay_kernel}. Checker-side fault plans are armed as the live
    run's final attempt at each check armed them, and a kernel
    divergence is reported as {!Detection.outcome_to_string} of the live
    checker's outcome. This module adds only the offline-specific part:
    boundary file-backed mmaps re-established from the preamble records;
    at every segment end a byte-for-byte compare of the registers and
    recorded dirty pages, plus a check that replay dirtied nothing
    outside the recorded set; and after the last segment the final-state
    digest, recomputed and checked against the manifest.

    Known limitation (documented in DESIGN.md §17): externally
    effectful syscalls are answered from the record, never re-executed,
    so the replayer's filesystem stays empty — file-backed mappings are
    reproduced from the content snapshot the recorder embeds in the
    preamble, not from a real file. *)

type reg_diff = {
  reg : int;
  expected : int;  (** the recorded (live main) value *)
  got : int;  (** the offline re-execution's value *)
}

(** First differing byte of the first differing recorded dirty page. *)
type page_diff = {
  vpn : int;
  offset : int;  (** byte offset within the page *)
  expected : int;  (** recorded byte value *)
  got : int;
}

type divergence = {
  segment : int;
  point : Exec_point.t;
      (** segment-relative execution point where the divergence was
          established (the first diverging point the replay can name) *)
  reason : string;
  reg_diffs : reg_diff list;  (** non-empty for register-state mismatches *)
  page_diff : page_diff option;
}

type verdict =
  | Verified of {
      segments : int;  (** segments replayed and compared clean *)
      final_hash : int64 option;  (** manifest's final-state hash, if checked *)
      final_hash_matches : bool option;
          (** recomputed-vs-recorded digest comparison; [None] when the
              live main never exited or a rollback truncated the log *)
    }
  | Diverged of divergence

val replay :
  manifest:Seglog.Record.manifest ->
  segments:Seglog.Record.segment list ->
  (verdict, string) result
(** Re-execute and re-check the whole recorded history. [segments]
    must be the decoded segment files in manifest order
    ({!Seglog_io.read} checks the fingerprint; this function re-checks
    the id order). [Error] is an environment problem (unknown platform,
    page-size mismatch, replay stall) as opposed to a verified
    divergence; an undecodable program or fault plan is a
    {!Seglog.Codec.Malformed} log, refused before replay. *)

val divergence_report : divergence -> string
(** Multi-line human-readable report: diverging segment + execution
    point, the register diffs, and the first differing page byte. *)
