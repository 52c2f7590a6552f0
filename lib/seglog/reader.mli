(** Validating deserialization of parallaft-seglog v2 files.

    Every entry point returns [Error] with a typed {!Codec.error} on
    any invalid input — flipping any single byte of a valid file yields
    a typed rejection, never a crash or a silently different decode
    (the corruption property in [test_seglog] pins this).

    Validation order: magic, then format/ISA version (so an honest
    version mismatch is reported as such, not masked as corruption),
    then the whole-file checksum, then the config fingerprint, then the
    structural parse with per-record checksums. *)

val manifest : Bytes.t -> (Record.manifest, Codec.error) result

val validate_fingerprint : Record.manifest -> (unit, Codec.error) result
(** Recompute {!Record.config_digest} from the manifest's own fields
    and compare with the stored digest — catches a manifest whose
    config was edited after recording. *)

(** Segment-file reader for one run; mirrors the {!Writer}'s
    parent-frame state, so segments must be read in write order. *)
type t

val create : config_digest:int64 -> t
(** [config_digest] is the manifest's digest; segment files recorded
    under any other config are refused ([Fingerprint_mismatch]). *)

val segment : t -> Bytes.t -> (Record.segment, Codec.error) result
