(* Byte-level primitives for the parallaft-seglog format: a growable
   write buffer and a bounds-checked reader, plus the typed validation
   error every decoding failure maps to. No external deps. *)

type error =
  | Truncated of string
  | Bad_magic of { found : string; expected : string }
  | Bad_version of { found : int; expected : int }
  | Bad_isa_version of { found : int; expected : int }
  | Checksum_mismatch of { what : string }
  | Fingerprint_mismatch of { found : int64; expected : int64 }
  | Malformed of string

exception Error of error

let error_to_string = function
  | Truncated what -> Printf.sprintf "truncated file: %s" what
  | Bad_magic { found; expected } ->
    Printf.sprintf "bad magic %S (expected %S): not a seglog file" found expected
  | Bad_version { found; expected } ->
    Printf.sprintf "unsupported format version %d (this build reads version %d)" found
      expected
  | Bad_isa_version { found; expected } ->
    Printf.sprintf "log was recorded under ISA version %d, this build is version %d" found
      expected
  | Checksum_mismatch { what } -> Printf.sprintf "checksum mismatch over %s" what
  | Fingerprint_mismatch { found; expected } ->
    Printf.sprintf "config fingerprint mismatch: log has %016Lx, expected %016Lx" found
      expected
  | Malformed what -> Printf.sprintf "malformed record: %s" what

let fail e = raise (Error e)
let malformed fmt = Printf.ksprintf (fun s -> fail (Malformed s)) fmt

(* ---------- write buffer ---------- *)

type wbuf = {
  mutable data : Bytes.t;
  mutable len : int;
}

let wbuf () = { data = Bytes.create 256; len = 0 }
let wlen w = w.len
let wdata w = w.data

let reserve w n =
  let need = w.len + n in
  if need > Bytes.length w.data then begin
    let cap = ref (Bytes.length w.data * 2) in
    while !cap < need do
      cap := !cap * 2
    done;
    let d = Bytes.create !cap in
    Bytes.blit w.data 0 d 0 w.len;
    w.data <- d
  end

let contents w = Bytes.sub w.data 0 w.len

let u8 w v =
  reserve w 1;
  Bytes.unsafe_set w.data w.len (Char.unsafe_chr (v land 0xff));
  w.len <- w.len + 1

(* Fixed-width little-endian 32-bit: used for the version fields so a
   corrupted version byte is still recognizably a version field. *)
let u32 w v =
  reserve w 4;
  Bytes.set_int32_le w.data w.len (Int32.of_int v);
  w.len <- w.len + 4

let i64 w v =
  reserve w 8;
  Bytes.set_int64_le w.data w.len v;
  w.len <- w.len + 8

(* LEB128 over the raw 63-bit pattern. Logical shifts, so it terminates
   (and round-trips) even when the pattern has the native sign bit set —
   zigzagging a magnitude >= 2^61 produces exactly such patterns. *)
let rec uvarint_bits w v =
  if v >= 0 && v < 0x80 then u8 w v
  else begin
    u8 w (0x80 lor (v land 0x7f));
    uvarint_bits w (v lsr 7)
  end

(* Unsigned LEB128. The argument must be non-negative (lengths, counts,
   tags); signed quantities go through the zigzag [varint]. *)
let uvarint w v =
  if v < 0 then invalid_arg "Codec.uvarint: negative";
  uvarint_bits w v

(* Zigzag-encoded signed varint (63-bit native int). *)
let varint w v = uvarint_bits w ((v lsl 1) lxor (v asr 62))

let raw w b ~pos ~len =
  reserve w len;
  Bytes.blit b pos w.data w.len len;
  w.len <- w.len + len

(* [dst] xor= [src] over [len] bytes, a word at a time. Bounds-checked
   per access; callers check [len >= 0]. *)
let xor_into src ~src_pos dst ~dst_pos ~len =
  let i = ref 0 in
  while !i <= len - 8 do
    Bytes.set_int64_ne dst (dst_pos + !i)
      (Int64.logxor (Bytes.get_int64_ne dst (dst_pos + !i))
         (Bytes.get_int64_ne src (src_pos + !i)));
    i := !i + 8
  done;
  for k = !i to len - 1 do
    Bytes.set_uint8 dst (dst_pos + k)
      (Bytes.get_uint8 dst (dst_pos + k) lxor Bytes.get_uint8 src (src_pos + k))
  done

let raw_xor w a b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Codec.raw_xor";
  raw w a ~pos ~len;
  xor_into b ~src_pos:pos w.data ~dst_pos:(w.len - len) ~len

let bytes_ w b =
  uvarint w (Bytes.length b);
  raw w b ~pos:0 ~len:(Bytes.length b)

let str w s = bytes_ w (Bytes.unsafe_of_string s)

let xxh64_sub w ~pos = Ftr_hash.Xxh64.hash_sub w.data ~pos ~len:(w.len - pos)

(* ---------- bounds-checked reader ---------- *)

type rbuf = {
  rdata : Bytes.t;
  limit : int;
  mutable pos : int;
}

let rbuf ?(pos = 0) ?limit data =
  let limit = match limit with Some l -> l | None -> Bytes.length data in
  { rdata = data; limit; pos }

let rpos r = r.pos
let remaining r = r.limit - r.pos

let need r n what = if r.limit - r.pos < n then fail (Truncated what)

let r_u8 r =
  need r 1 "u8";
  let v = Char.code (Bytes.unsafe_get r.rdata r.pos) in
  r.pos <- r.pos + 1;
  v

let r_u32 r =
  need r 4 "u32";
  let v = Int32.to_int (Bytes.get_int32_le r.rdata r.pos) land 0xffffffff in
  r.pos <- r.pos + 4;
  v

let r_i64 r =
  need r 8 "i64";
  let v = Bytes.get_int64_le r.rdata r.pos in
  r.pos <- r.pos + 8;
  v

let r_uvarint r =
  let rec go shift acc =
    if shift > 63 then malformed "varint too long";
    let b = r_u8 r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let r_varint r =
  let v = r_uvarint r in
  (v lsr 1) lxor (-(v land 1))

let r_bytes r =
  let len = r_uvarint r in
  need r len "bytes payload";
  let b = Bytes.sub r.rdata r.pos len in
  r.pos <- r.pos + len;
  b

let r_str r = Bytes.unsafe_to_string (r_bytes r)

let r_blit r ~len dst ~dst_pos =
  need r len "raw payload";
  Bytes.blit r.rdata r.pos dst dst_pos len;
  r.pos <- r.pos + len

let r_xor r ~len dst ~dst_pos =
  need r len "raw payload";
  if len < 0 then invalid_arg "Codec.r_xor";
  xor_into r.rdata ~src_pos:r.pos dst ~dst_pos ~len;
  r.pos <- r.pos + len

let r_xxh64_sub r ~pos ~len = Ftr_hash.Xxh64.hash_sub r.rdata ~pos ~len
