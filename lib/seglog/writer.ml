(* Serialization of the parallaft-seglog v2 files.

   File framing (shared by manifest and segment files):

     magic (8 raw bytes) | u32 format_version | u32 isa_version
     | i64 config_digest | body ... | i64 xxh64(whole file up to here)

   Inside the body, every variable-size record (preamble syscall,
   event, page, program/config section) is followed by an i64 xxh64
   over its own bytes, so a reader can name what was corrupted. *)

type stats = {
  mutable segments : int;
  mutable bytes_written : int;
  mutable raw_page_bytes : int;
  mutable stored_page_bytes : int;
}

type t = {
  header : Record.header;
  parents : (int, Bytes.t) Hashtbl.t;
  stats : stats;
}

let create ~header =
  { header;
    parents = Hashtbl.create 64;
    stats = { segments = 0; bytes_written = 0; raw_page_bytes = 0; stored_page_bytes = 0 }
  }

let stats t = t.stats

let put_preamble w ~magic ~digest =
  Codec.raw w (Bytes.unsafe_of_string magic) ~pos:0 ~len:(String.length magic);
  Codec.u32 w Record.format_version;
  Codec.u32 w Record.isa_version;
  Codec.i64 w digest

let checksummed w f =
  let pos = Codec.wlen w in
  f ();
  Codec.i64 w (Codec.xxh64_sub w ~pos)

let seal w =
  Codec.i64 w (Codec.xxh64_sub w ~pos:0);
  Codec.contents w

let segment t (s : Record.segment) =
  let w = Codec.wbuf () in
  put_preamble w ~magic:Record.segment_magic ~digest:t.header.config_digest;
  Codec.uvarint w s.id;
  Codec.uvarint w (List.length s.preamble);
  List.iter (fun r -> checksummed w (fun () -> Record.put_sys w r)) s.preamble;
  Codec.uvarint w (List.length s.events);
  List.iter (fun e -> checksummed w (fun () -> Record.put_event w e)) s.events;
  Record.put_point w s.end_point;
  Codec.varint w s.insn_delta;
  Codec.uvarint w (Array.length s.end_regs);
  Array.iter (Codec.varint w) s.end_regs;
  Codec.uvarint w (Array.length s.pages);
  Array.iter
    (fun (vpn, page) ->
      let parent = Hashtbl.find_opt t.parents vpn in
      let tag, payload = Page_codec.encode ~parent page in
      checksummed w (fun () ->
          Codec.uvarint w vpn;
          Codec.u8 w tag;
          Codec.uvarint w (Bytes.length page);
          Codec.bytes_ w payload);
      Hashtbl.replace t.parents vpn page;
      t.stats.raw_page_bytes <- t.stats.raw_page_bytes + Bytes.length page;
      t.stats.stored_page_bytes <- t.stats.stored_page_bytes + Bytes.length payload)
    s.pages;
  let file = seal w in
  t.stats.segments <- t.stats.segments + 1;
  t.stats.bytes_written <- t.stats.bytes_written + Bytes.length file;
  file

let manifest (m : Record.manifest) =
  let w = Codec.wbuf () in
  put_preamble w ~magic:Record.manifest_magic ~digest:m.header.config_digest;
  Codec.str w m.header.platform;
  Codec.uvarint w m.header.page_size;
  Codec.str w m.header.workload;
  checksummed w (fun () -> Record.put_program w m.program);
  checksummed w (fun () -> Record.put_config w m.config);
  Codec.uvarint w (List.length m.segments);
  List.iter (Codec.varint w) m.segments;
  (match m.truncated_at with
  | None -> Codec.u8 w 0
  | Some a ->
    Codec.u8 w 1;
    Codec.varint w a);
  (match m.final_state_hash with
  | None -> Codec.u8 w 0
  | Some h ->
    Codec.u8 w 1;
    Codec.i64 w h);
  seal w
