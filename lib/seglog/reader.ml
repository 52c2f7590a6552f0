(* Validating deserialization of parallaft-seglog v2 files.

   Validation order is part of the format contract (and what the
   single-byte-corruption property pins down):

     1. magic            -> Bad_magic
     2. format version   -> Bad_version
     3. ISA version      -> Bad_isa_version
     4. whole-file xxh64 -> Checksum_mismatch "whole file"
     5. config digest    -> Fingerprint_mismatch (segment files, vs the
                            manifest's digest)
     6. structural parse with per-record checksums

   Steps 2-3 run before the checksum on purpose: a version mismatch is
   an honest, explainable condition and must not be masked as
   corruption. Everything after the header is covered by the file
   checksum, so a flipped body byte is always caught at step 4 even if
   it would still parse. *)

let header_len = 8 + 4 + 4 + 8
let trailer_len = 8

let wrap f =
  match f () with
  | v -> Ok v
  | exception Codec.Error e -> Error e
  | exception Invalid_argument m -> Error (Codec.Malformed m)
  | exception Failure m -> Error (Codec.Malformed m)

(* Checks steps 1-4 and returns the stored config digest plus a reader
   over the body (the trailer is outside its bounds). *)
let check_preamble ~magic data =
  let n = Bytes.length data in
  if n < header_len + trailer_len then
    Codec.fail (Codec.Truncated "file shorter than header + trailer");
  let found = Bytes.sub_string data 0 8 in
  if not (String.equal found magic) then
    Codec.fail (Codec.Bad_magic { found; expected = magic });
  let r = Codec.rbuf ~pos:8 data in
  let fv = Codec.r_u32 r in
  if fv <> Record.format_version then
    Codec.fail (Codec.Bad_version { found = fv; expected = Record.format_version });
  let iv = Codec.r_u32 r in
  if iv <> Record.isa_version then
    Codec.fail (Codec.Bad_isa_version { found = iv; expected = Record.isa_version });
  let stored = Bytes.get_int64_le data (n - trailer_len) in
  let actual = Ftr_hash.Xxh64.hash_sub data ~pos:0 ~len:(n - trailer_len) in
  if not (Int64.equal stored actual) then
    Codec.fail (Codec.Checksum_mismatch { what = "whole file" });
  let digest = Codec.r_i64 r in
  (digest, Codec.rbuf ~pos:header_len ~limit:(n - trailer_len) data)

let checksummed r ~what f =
  let pos = Codec.rpos r in
  let v = f r in
  let actual = Codec.r_xxh64_sub r ~pos ~len:(Codec.rpos r - pos) in
  let stored = Codec.r_i64 r in
  if not (Int64.equal stored actual) then Codec.fail (Codec.Checksum_mismatch { what });
  v

let expect_end r what = if Codec.remaining r <> 0 then Codec.malformed "%s" what

let manifest data =
  wrap @@ fun () ->
  let config_digest, r = check_preamble ~magic:Record.manifest_magic data in
  let platform = Codec.r_str r in
  let page_size = Codec.r_uvarint r in
  let workload = Codec.r_str r in
  let program = checksummed r ~what:"program section" Record.get_program in
  let config = checksummed r ~what:"config section" Record.get_config in
  let nseg = Codec.r_uvarint r in
  if nseg > Codec.remaining r then Codec.malformed "segment list longer than the file";
  let segments = List.init nseg (fun _ -> Codec.r_varint r) in
  let truncated_at =
    match Codec.r_u8 r with
    | 0 -> None
    | 1 -> Some (Codec.r_varint r)
    | t -> Codec.malformed "bad option tag %d" t
  in
  let final_state_hash =
    match Codec.r_u8 r with
    | 0 -> None
    | 1 -> Some (Codec.r_i64 r)
    | t -> Codec.malformed "bad option tag %d" t
  in
  expect_end r "trailing bytes after the manifest";
  { Record.header = { Record.config_digest; platform; page_size; workload };
    program;
    config;
    segments;
    truncated_at;
    final_state_hash
  }

let validate_fingerprint (m : Record.manifest) =
  let expected =
    Record.config_digest ~platform:m.header.platform ~page_size:m.header.page_size
      ~workload:m.header.workload m.config
  in
  if Int64.equal m.header.config_digest expected then Ok ()
  else
    Error
      (Codec.Fingerprint_mismatch { found = m.header.config_digest; expected })

type t = {
  expected_digest : int64;
  parents : (int, Bytes.t) Hashtbl.t;
}

let create ~config_digest = { expected_digest = config_digest; parents = Hashtbl.create 64 }

let segment t data =
  wrap @@ fun () ->
  let digest, r = check_preamble ~magic:Record.segment_magic data in
  if not (Int64.equal digest t.expected_digest) then
    Codec.fail (Codec.Fingerprint_mismatch { found = digest; expected = t.expected_digest });
  let id = Codec.r_uvarint r in
  let np = Codec.r_uvarint r in
  if np > Codec.remaining r then Codec.malformed "preamble list longer than the file";
  let preamble = List.init np (fun _ -> checksummed r ~what:"preamble record" Record.get_sys) in
  let ne = Codec.r_uvarint r in
  if ne > Codec.remaining r then Codec.malformed "event list longer than the file";
  let events = List.init ne (fun _ -> checksummed r ~what:"event record" Record.get_event) in
  let end_point = Record.get_point r in
  let insn_delta = Codec.r_varint r in
  let nregs = Codec.r_uvarint r in
  if nregs > Codec.remaining r then Codec.malformed "register file longer than the file";
  let end_regs = Array.init nregs (fun _ -> Codec.r_varint r) in
  let npages = Codec.r_uvarint r in
  if npages > Codec.remaining r then Codec.malformed "page list longer than the file";
  let pages =
    Array.init npages (fun _ ->
        checksummed r ~what:"page record" (fun r ->
            let vpn = Codec.r_uvarint r in
            let tag = Codec.r_u8 r in
            let raw_len = Codec.r_uvarint r in
            if raw_len > Codec.remaining r + (1 lsl 20) then
              Codec.malformed "implausible page length %d" raw_len;
            let payload = Codec.r_bytes r in
            let parent = Hashtbl.find_opt t.parents vpn in
            let page = Page_codec.decode ~parent ~tag ~raw_len payload in
            Hashtbl.replace t.parents vpn page;
            (vpn, page)))
  in
  expect_end r "trailing bytes after the segment";
  { Record.id; preamble; events; end_point; insn_delta; end_regs; pages }
