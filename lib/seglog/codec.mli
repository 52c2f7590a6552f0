(** Byte-level primitives for the parallaft-seglog format.

    A growable little-endian write buffer and a bounds-checked reader.
    Every decoding failure raises {!Error} with a typed {!error} — the
    single-byte-corruption property relies on this: no input can crash
    the reader or silently decode to something else. *)

type error =
  | Truncated of string  (** ran off the end of the file/section *)
  | Bad_magic of {
      found : string;
      expected : string;
    }
  | Bad_version of {
      found : int;
      expected : int;
    }
  | Bad_isa_version of {
      found : int;
      expected : int;
    }
  | Checksum_mismatch of { what : string }
  | Fingerprint_mismatch of {
      found : int64;
      expected : int64;
    }
  | Malformed of string

exception Error of error

val error_to_string : error -> string
val fail : error -> 'a
val malformed : ('a, unit, string, 'b) format4 -> 'a

(** Growable write buffer. *)
type wbuf

val wbuf : unit -> wbuf
val wlen : wbuf -> int

val wdata : wbuf -> Bytes.t
(** The live backing store (capacity [>= wlen]); valid bytes are
    [0, wlen). Lets a reader decode in place without copying. *)

val contents : wbuf -> Bytes.t
(** Copy of the valid prefix. *)

val u8 : wbuf -> int -> unit

val u32 : wbuf -> int -> unit
(** Fixed-width LE (version fields). *)

val i64 : wbuf -> int64 -> unit
(** Fixed-width LE (checksums, seeds). *)

val uvarint : wbuf -> int -> unit
(** LEB128; argument must be [>= 0]. *)

val varint : wbuf -> int -> unit
(** Zigzag LEB128, any native int. *)

val raw : wbuf -> Bytes.t -> pos:int -> len:int -> unit

val raw_xor : wbuf -> Bytes.t -> Bytes.t -> pos:int -> len:int -> unit
(** [raw_xor w a b ~pos ~len] appends [a] xor [b] over
    [[pos, pos + len)]. *)

val bytes_ : wbuf -> Bytes.t -> unit
(** Length-prefixed. *)

val str : wbuf -> string -> unit

val xxh64_sub : wbuf -> pos:int -> int64
(** Hash of the written bytes from [pos] to the current length. *)

(** Bounds-checked reader over an immutable byte range. *)
type rbuf

val rbuf : ?pos:int -> ?limit:int -> Bytes.t -> rbuf
val rpos : rbuf -> int
val remaining : rbuf -> int
val r_u8 : rbuf -> int
val r_u32 : rbuf -> int
val r_i64 : rbuf -> int64
val r_uvarint : rbuf -> int
val r_varint : rbuf -> int

val r_bytes : rbuf -> Bytes.t
(** Length is validated against the remaining range before allocating. *)

val r_str : rbuf -> string

(** [r_blit r ~len dst ~dst_pos] copies the next [len] bytes into [dst]
    at [dst_pos]. *)
val r_blit : rbuf -> len:int -> Bytes.t -> dst_pos:int -> unit

val r_xor : rbuf -> len:int -> Bytes.t -> dst_pos:int -> unit
(** [r_xor r ~len dst ~dst_pos] xors the next [len] bytes into [dst] at
    [dst_pos]. *)

val r_xxh64_sub : rbuf -> pos:int -> len:int -> int64
