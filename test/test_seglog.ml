(* The parallaft-seglog v2 contract (DESIGN.md §17):

   - round-trip: any segment/manifest written by Seglog.Writer decodes
     via Seglog.Reader to a structurally equal value, including the
     degenerate page shapes (all-zero, all-0xff, sparse), extreme
     varint magnitudes, real programs and fault plans of every target
     kind;
   - corruption: flipping ANY single byte of a valid file makes the
     reader return a typed [Error] — never an exception, never a
     silently different decode;
   - fingerprinting: version fields and the config digest are checked
     before anything is trusted, with the specific typed errors;
   - offline replay: a log recorded by a live run re-verifies offline
     with the same verdict the live run produced, for both fault-free
     and injected-fault runs. *)

let platform = Platform.testing
let page_size = 256 (* log payload pages; independent of the platform *)

(* ---------- generators ---------- *)

let gen_page =
  QCheck.Gen.(
    frequency
      [ (2, return (Bytes.make page_size '\x00'));
        (2, return (Bytes.make page_size '\xff'));
        ( 3,
          (* sparse: a few hot bytes in a zero page — the shape zero-run
             RLE exists for *)
          list_size (1 -- 6) (pair (0 -- (page_size - 1)) (0 -- 255))
          >|= fun hits ->
          let b = Bytes.make page_size '\x00' in
          List.iter (fun (i, v) -> Bytes.set b i (Char.chr v)) hits;
          b );
        ( 3,
          list_size (return page_size) (0 -- 255) >|= fun l ->
          Bytes.init page_size (fun i -> Char.chr (List.nth l i)) ) ])

(* Any native int, biased toward the varint edge cases: the zigzag
   encoding historically broke for |v| >= 2^61. *)
let gen_any_int =
  QCheck.Gen.(
    frequency
      [ (4, (-200) -- 10_000);
        (2, map Int64.to_int int64);
        (1, oneofl [ 0; -1; max_int; min_int; 1 lsl 61; -(1 lsl 61) ]) ])

let gen_small_bytes =
  QCheck.Gen.(
    list_size (0 -- 24) (0 -- 255) >|= fun l ->
    Bytes.init (List.length l) (fun i -> Char.chr (List.nth l i)))

let gen_call =
  QCheck.Gen.(
    let v = gen_any_int in
    oneof
      [ (v >|= fun n -> Sim_os.Syscall.Exit n);
        ( triple v v v >|= fun (fd, addr, len) ->
          Sim_os.Syscall.Write { fd; addr; len } );
        ( triple v v v >|= fun (fd, addr, len) ->
          Sim_os.Syscall.Read { fd; addr; len } );
        ( triple v v v >|= fun (path_addr, path_len, flags) ->
          Sim_os.Syscall.Open { path_addr; path_len; flags } );
        (v >|= fun fd -> Sim_os.Syscall.Close { fd });
        (v >|= fun addr -> Sim_os.Syscall.Brk { addr });
        ( pair (triple v v v) (triple v v v)
        >|= fun ((addr, len, prot), (flags, fd, off)) ->
          Sim_os.Syscall.Mmap { addr; len; prot; flags; fd; off } );
        (pair v v >|= fun (addr, len) -> Sim_os.Syscall.Munmap { addr; len });
        ( triple v v v >|= fun (addr, len, prot) ->
          Sim_os.Syscall.Mprotect { addr; len; prot } );
        return Sim_os.Syscall.Getpid;
        return Sim_os.Syscall.Gettime;
        ( pair v v >|= fun (signum, handler_pc) ->
          Sim_os.Syscall.Sigaction { signum; handler_pc } );
        return Sim_os.Syscall.Sigreturn;
        (pair v v >|= fun (addr, len) -> Sim_os.Syscall.Getrandom { addr; len });
        (pair v v >|= fun (pc, word) -> Sim_os.Syscall.Patch_code { pc; word });
        (v >|= fun n -> Sim_os.Syscall.Unknown n) ])

let gen_sys =
  QCheck.Gen.(
    let* call = gen_call in
    let* in_data = option gen_small_bytes in
    let* result = gen_any_int in
    let* effects =
      list_size (0 -- 3)
        ( pair gen_any_int gen_small_bytes >|= fun (addr, data) ->
          { Seglog.Record.addr; data } )
    in
    return { Seglog.Record.call; in_data; result; effects })

let gen_nondet_insn =
  QCheck.Gen.(
    let* reg = 0 -- (Isa.Insn.num_regs - 1) in
    oneofl [ Isa.Insn.Rdtsc reg; Isa.Insn.Rdcoreid reg; Isa.Insn.Rdrand reg ])

let gen_point =
  QCheck.Gen.(
    pair (0 -- 1_000_000) (0 -- 100_000) >|= fun (branches, pc) ->
    { Seglog.Record.branches; pc })

let gen_event =
  QCheck.Gen.(
    frequency
      [ (4, gen_sys >|= fun s -> Seglog.Record.Sys s);
        ( 2,
          pair gen_nondet_insn gen_any_int >|= fun (insn, value) ->
          Seglog.Record.Nondet { insn; value } );
        ( 1,
          pair gen_point (1 -- 30) >|= fun (at, signum) ->
          Seglog.Record.Ext_signal { at; signum } ) ])

(* vpns drawn from a small range so consecutive segments revisit pages
   and exercise the xor-vs-parent delta, not just first-write raw/RLE. *)
let gen_pages =
  QCheck.Gen.(
    let* vpns = list_size (0 -- 6) (0 -- 9) in
    let vpns = List.sort_uniq compare vpns in
    let* pages = list_size (return (List.length vpns)) gen_page in
    return (Array.of_list (List.combine vpns pages)))

let gen_segment id =
  QCheck.Gen.(
    let* preamble = list_size (0 -- 2) gen_sys in
    let* events = list_size (0 -- 8) gen_event in
    let* end_point = gen_point in
    let* insn_delta = 0 -- 1_000_000 in
    let* end_regs = list_size (return 16) gen_any_int in
    let* pages = gen_pages in
    return
      { Seglog.Record.id;
        preamble;
        events;
        end_point;
        insn_delta;
        end_regs = Array.of_list end_regs;
        pages
      })

let gen_run = QCheck.Gen.(1 -- 6 >>= fun n -> QCheck.Gen.flatten_l (List.init n gen_segment))

let gen_program =
  QCheck.Gen.(
    let* n = 1 -- 20 in
    let* code = list_size (return n) (Fixtures.gen_insn ~target:(0 -- (n - 1))) in
    let* entry = 0 -- (n - 1) in
    let* initial_brk = gen_any_int in
    let* data =
      list_size (0 -- 3)
        (pair (0 -- max_int) gen_small_bytes >|= fun (base, bytes) ->
         { Isa.Program.base; bytes })
    in
    return
      (Isa.Program.create ~name:"test" ~entry ~data ~initial_brk (Array.of_list code)))

(* A fault plan of any target kind, one-shot or repeat. *)
let gen_fault =
  QCheck.Gen.(
    let* kind = oneofl Fault.all_target_kinds in
    let* a = gen_any_int and* b = gen_any_int in
    let* segment = gen_any_int and* delay_instructions = gen_any_int and* repeat = bool in
    match Fault.target_kind_of_string kind with
    | Ok build -> return { Fault.segment; delay_instructions; target = build a b; repeat }
    | Error k -> failwith ("unknown fault target " ^ k))

let test_plan =
  { Fault.segment = 2;
    delay_instructions = 60;
    target = Fault.Checker_memory_page { page_index = 6; bit = 6 };
    repeat = false
  }

let test_config : Seglog.Record.run_config =
  { mode_raft = false;
    slice_period = 3000;
    timeout_scale = 5.0;
    compare_states = true;
    dirty_backend = "soft_dirty";
    hasher = "xxh64";
    seed = 42L;
    fault = Some test_plan;
    recheck = false
  }

let test_header ?(config = test_config) () : Seglog.Record.header =
  let config_digest =
    Seglog.Record.config_digest ~platform:platform.Platform.name
      ~page_size:platform.Platform.page_size ~workload:"test" config
  in
  { config_digest;
    platform = platform.Platform.name;
    page_size = platform.Platform.page_size;
    workload = "test"
  }

let gen_manifest =
  QCheck.Gen.(
    let* nseg = 0 -- 5 in
    let* truncated_at = option (0 -- 10) in
    let* final_state_hash = option (map Int64.of_int gen_any_int) in
    let* program = gen_program in
    let* fault = frequency [ (1, return None); (3, gen_fault >|= Option.some) ] in
    let* recheck = bool in
    let config = { test_config with Seglog.Record.fault; recheck } in
    return
      { Seglog.Record.header = test_header ~config ();
        program;
        config;
        segments = List.init nseg (fun i -> i);
        truncated_at;
        final_state_hash
      })

(* ---------- round-trip properties ---------- *)

let qcheck_segment_roundtrip =
  QCheck.Test.make ~name:"seglog segment write/read round-trip" ~count:200
    (QCheck.make gen_run) (fun segments ->
      let writer = Seglog.Writer.create ~header:(test_header ()) in
      let files = List.map (Seglog.Writer.segment writer) segments in
      let reader =
        Seglog.Reader.create ~config_digest:(test_header ()).config_digest
      in
      List.for_all2
        (fun original file ->
          match Seglog.Reader.segment reader file with
          | Ok decoded -> decoded = original
          | Error e -> QCheck.Test.fail_report (Seglog.Codec.error_to_string e))
        segments files)

let qcheck_manifest_roundtrip =
  QCheck.Test.make ~name:"seglog manifest write/read round-trip" ~count:200
    (QCheck.make gen_manifest) (fun m ->
      match Seglog.Reader.manifest (Seglog.Writer.manifest m) with
      | Ok decoded ->
        decoded = m
        && Seglog.Reader.validate_fingerprint decoded = Ok ()
      | Error e -> QCheck.Test.fail_report (Seglog.Codec.error_to_string e))

(* ---------- page codec = byte-wise reference ---------- *)

(* The byte-at-a-time page encoder the word scan replaced, kept verbatim
   as the oracle: the word scan must produce the same tag and the same
   payload bytes for every page, so every log it writes is the one this
   encoder wrote. *)
module Reference = struct
  let zero_cut = 8

  let rle_encode page =
    let w = Seglog.Codec.wbuf () in
    let n = Bytes.length page in
    let i = ref 0 in
    while !i < n do
      let z0 = !i in
      while !i < n && Bytes.get page !i = '\000' do
        incr i
      done;
      let zrun = !i - z0 in
      let l0 = !i in
      let j = ref !i and zeros = ref 0 and stop = ref false in
      while (not !stop) && !j < n do
        if Bytes.get page !j = '\000' then begin
          incr zeros;
          if !zeros >= zero_cut then stop := true
        end
        else zeros := 0;
        incr j
      done;
      let lend = if !stop then !j - zero_cut else !j in
      let litlen = lend - l0 in
      Seglog.Codec.uvarint w zrun;
      Seglog.Codec.uvarint w litlen;
      Seglog.Codec.raw w page ~pos:l0 ~len:litlen;
      i := lend
    done;
    Seglog.Codec.contents w

  let xor a b =
    let n = Bytes.length a in
    let out = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.unsafe_set out i
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get a i) lxor Char.code (Bytes.unsafe_get b i)))
    done;
    out

  let encode ~parent page =
    let raw_len = Bytes.length page in
    let rle = rle_encode page in
    let tag, best = if Bytes.length rle < raw_len then (1, rle) else (0, Bytes.copy page) in
    match parent with
    | Some p when Bytes.length p = raw_len ->
      let xr = rle_encode (xor page p) in
      if Bytes.length xr < Bytes.length best then (2, xr) else (tag, best)
    | _ -> (tag, best)
end

(* Page lengths around the word width: any remainder mod 8 up to 5000,
   and the real page sizes. *)
let gen_codec_len =
  QCheck.Gen.(
    frequency
      [ (6, pair (0 -- 624) (1 -- 7) >|= fun (k, r) -> (8 * k) + r);
        (1, 0 -- 40);
        (1, return 4096);
        (1, return 16384) ])

let nonzero_byte = QCheck.Gen.(map Char.chr (1 -- 255))

(* A page of length [n] shaped to hit the scan's edges: dense, sparse,
   all-zero or all-0xff, or nonzero bytes cut by zero gaps of 7, 8 and
   9 bytes (and others) at every offset, with the last run ending
   exactly at the page end. *)
let gen_codec_page n =
  QCheck.Gen.(
    let dense =
      let* s = nonzero_byte in
      let* dense_nonzero = bool in
      return
        (Bytes.init n (fun i ->
             let c = Char.code s + (i * 131) + (i lsr 5) in
             if dense_nonzero then Char.chr (1 + (c mod 255)) else Char.chr (c land 0xff)))
    in
    let sparse =
      let* hits = list_size (0 -- 12) (pair (0 -- (max 0 (n - 1))) nonzero_byte) in
      let b = Bytes.make n '\000' in
      List.iter (fun (i, c) -> if i < n then Bytes.set b i c) hits;
      return b
    in
    let gapped =
      let* fill = nonzero_byte in
      let* gaps =
        list_size (1 -- 40)
          (pair (0 -- (max 0 (n - 1))) (frequency [ (3, oneofl [ 7; 8; 9 ]); (1, 1 -- 24) ]))
      in
      let* tail = 0 -- 17 in
      let b = Bytes.make n fill in
      List.iter (fun (p, len) -> Bytes.fill b p (min len (n - p)) '\000') gaps;
      Bytes.fill b (n - min tail n) (min tail n) '\000';
      return b
    in
    frequency
      [ (1, return (Bytes.make n '\000'));
        (1, return (Bytes.make n '\xff'));
        (2, dense);
        (3, sparse);
        (6, gapped) ])

(* A page and its parent: none, one of unequal length, an unrelated
   page, or the page xor a shaped diff (so the xor stream carries the
   gap edges). *)
let gen_codec_case =
  QCheck.Gen.(
    let* n = gen_codec_len in
    let* page = gen_codec_page n in
    let* parent =
      frequency
        [ (1, return None);
          (1, gen_codec_len >>= fun m -> if m = n then return None else gen_codec_page m >|= Option.some);
          (1, gen_codec_page n >|= Option.some);
          (4, gen_codec_page n >|= fun d -> Some (Reference.xor page d)) ]
    in
    return (page, parent))

let print_codec_case (page, parent) =
  let zeros b = Bytes.fold_left (fun k c -> if c = '\000' then k + 1 else k) 0 b in
  Printf.sprintf "page %d bytes (%d zero), parent %s" (Bytes.length page) (zeros page)
    (match parent with
    | None -> "none"
    | Some p -> Printf.sprintf "%d bytes (%d zero)" (Bytes.length p) (zeros p))

let qcheck_page_codec_reference =
  QCheck.Test.make ~name:"page codec = byte-wise reference encoder" ~count:3000
    (QCheck.make ~print:print_codec_case gen_codec_case) (fun (page, parent) ->
      let ((tag, payload) as got) = Seglog.Page_codec.encode ~parent page in
      let raw_len = Bytes.length page in
      let decodes tag payload =
        Bytes.equal (Seglog.Page_codec.decode ~parent ~tag ~raw_len payload) page
      in
      if got <> Reference.encode ~parent page then
        QCheck.Test.fail_reportf "encode differs from the reference (tag %d)" tag;
      (* Every scheme decodes back to the page, not only the winner. *)
      decodes tag payload
      && decodes 0 page
      && decodes 1 (Reference.rle_encode page)
      &&
      match parent with
      | Some p when Bytes.length p = raw_len ->
        decodes 2 (Reference.rle_encode (Reference.xor page p))
      | _ -> true)

(* ---------- corruption property ---------- *)

(* One representative valid run: a manifest and two segment files (the
   second xor-deltas pages of the first). *)
let fixture () =
  let seg i pages events =
    { Seglog.Record.id = i;
      preamble = [];
      events;
      end_point = { Seglog.Record.branches = 100 + i; pc = 7 };
      insn_delta = 4096;
      end_regs = Array.init 16 (fun r -> (r * 257) - 8);
      pages
    }
  in
  let page f = Bytes.init page_size f in
  let events =
    [ Seglog.Record.Sys
        { call = Sim_os.Syscall.Getpid; in_data = None; result = 1; effects = [] };
      Seglog.Record.Nondet { insn = Isa.Insn.Rdtsc 3; value = 123456789 };
      Seglog.Record.Ext_signal
        { at = { Seglog.Record.branches = 5; pc = 9 }; signum = 10 }
    ]
  in
  let s0 =
    seg 0 [| (3, page (fun _ -> '\x00')); (7, page (fun i -> Char.chr (i land 0xff))) |] events
  in
  let s1 = seg 1 [| (7, page (fun i -> Char.chr ((i * 3) land 0xff))) |] [] in
  let m =
    { Seglog.Record.header = test_header ();
      program =
        Isa.Program.create ~name:"fix" ~initial_brk:0x8000
          ~data:[ { Isa.Program.base = 0x4000; bytes = Bytes.of_string "abc" } ]
          [| Isa.Insn.Li (1, 7); Isa.Insn.Branch (Isa.Insn.Ne, 1, 0, 0); Isa.Insn.Halt |];
      config = test_config;
      segments = [ 0; 1 ];
      truncated_at = None;
      final_state_hash = Some 0xdeadbeefL
    }
  in
  let writer = Seglog.Writer.create ~header:(test_header ()) in
  let f0 = Seglog.Writer.segment writer s0 in
  let f1 = Seglog.Writer.segment writer s1 in
  (Seglog.Writer.manifest m, f0, f1, m, s0, s1)

(* Decode [files] in order with a fresh reader; the reader is stateful
   (parent frames), so corrupting file k must be checked with the
   earlier files replayed intact first. *)
let decode_run files =
  let reader =
    Seglog.Reader.create ~config_digest:(test_header ()).config_digest
  in
  List.fold_left
    (fun acc f ->
      match acc with
      | Error _ as e -> e
      | Ok () -> (
        match Seglog.Reader.segment reader f with
        | Ok _ -> Ok ()
        | Error e -> Error e))
    (Ok ()) files

let flip b pos mask =
  let c = Bytes.copy b in
  Bytes.set c pos (Char.chr (Char.code (Bytes.get c pos) lxor mask));
  c

let corruption_rejected () =
  let mf, f0, f1, _, _, _ = fixture () in
  (* sanity: the pristine fixture decodes *)
  (match Seglog.Reader.manifest mf with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pristine manifest: %s" (Seglog.Codec.error_to_string e));
  (match decode_run [ f0; f1 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "pristine segments: %s" (Seglog.Codec.error_to_string e));
  (* exhaustive: every byte of every file, one single-bit flip (position
     chooses the bit) and one full-byte flip, must yield a typed error *)
  let check_all what decode file =
    for pos = 0 to Bytes.length file - 1 do
      List.iter
        (fun mask ->
          match decode (flip file pos mask) with
          | Ok () ->
            Alcotest.failf "%s: byte %d ^ %#x silently accepted" what pos mask
          | Error (_ : Seglog.Codec.error) -> ()
          | exception e ->
            Alcotest.failf "%s: byte %d ^ %#x raised %s" what pos mask
              (Printexc.to_string e))
        [ 1 lsl (pos mod 8); 0xff ]
    done
  in
  check_all "manifest"
    (fun b -> Result.map ignore (Seglog.Reader.manifest b))
    mf;
  check_all "segment 0" (fun b -> decode_run [ b; f1 ]) f0;
  check_all "segment 1" (fun b -> decode_run [ f0; b ]) f1

(* ---------- version / fingerprint guards ---------- *)

(* File framing: magic 0..7, u32 format_version at 8, u32 isa_version
   at 12, i64 config digest at 16. *)
let version_guards () =
  let mf, f0, _, _, _, _ = fixture () in
  let patch_u32 b off v =
    let c = Bytes.copy b in
    Bytes.set_int32_le c off (Int32.of_int v);
    c
  in
  List.iter
    (fun (v, what) ->
      match Seglog.Reader.manifest (patch_u32 mf 8 v) with
      | Error (Seglog.Codec.Bad_version { found; _ }) when found = v -> ()
      | r ->
        Alcotest.failf "%s format version: %s" what
          (match r with Ok _ -> "accepted" | Error e -> Seglog.Codec.error_to_string e))
    [ (99, "future"); (1, "v1 (no recheck field)") ];
  (match Seglog.Reader.manifest (patch_u32 mf 12 99) with
  | Error (Seglog.Codec.Bad_isa_version { found = 99; _ }) -> ()
  | r ->
    Alcotest.failf "future isa version: %s"
      (match r with Ok _ -> "accepted" | Error e -> Seglog.Codec.error_to_string e));
  (let bad_magic = Bytes.copy mf in
   Bytes.set bad_magic 0 'X';
   match Seglog.Reader.manifest bad_magic with
   | Error (Seglog.Codec.Bad_magic _) -> ()
   | _ -> Alcotest.fail "wrong magic accepted");
  (* a manifest is also rejected wholesale when handed to the segment
     reader (magic distinguishes the two file kinds) *)
  let reader =
    Seglog.Reader.create ~config_digest:(test_header ()).config_digest
  in
  (match Seglog.Reader.segment reader mf with
  | Error (Seglog.Codec.Bad_magic _) -> ()
  | _ -> Alcotest.fail "manifest accepted as a segment file");
  (* segment recorded under a different config: digest mismatch *)
  let other = Seglog.Reader.create ~config_digest:1L in
  match Seglog.Reader.segment other f0 with
  | Error (Seglog.Codec.Fingerprint_mismatch _) -> ()
  | Ok _ -> Alcotest.fail "foreign-config segment accepted"
  | Error e ->
    Alcotest.failf "foreign-config segment: %s" (Seglog.Codec.error_to_string e)

let fingerprint_guard () =
  let _, _, _, m, _, _ = fixture () in
  (* tamper with the recorded config but keep the stored digest: the
     file re-encodes and re-reads fine (checksums are consistent), but
     validate_fingerprint recomputes the digest from the fields and
     catches the edit *)
  let c = m.Seglog.Record.config in
  List.iter
    (fun (what, config) ->
      let tampered = { m with Seglog.Record.config } in
      match Seglog.Reader.manifest (Seglog.Writer.manifest tampered) with
      | Error e ->
        Alcotest.failf "tampered %s: %s" what (Seglog.Codec.error_to_string e)
      | Ok decoded -> (
        match Seglog.Reader.validate_fingerprint decoded with
        | Error (Seglog.Codec.Fingerprint_mismatch _) -> ()
        | Ok () -> Alcotest.failf "tampered %s passed the fingerprint check" what
        | Error e ->
          Alcotest.failf "tampered %s: %s" what (Seglog.Codec.error_to_string e)))
    [ ("slice period", { c with Seglog.Record.slice_period = 4000 });
      ("recheck", { c with Seglog.Record.recheck = not c.Seglog.Record.recheck });
      ( "fault target",
        { c with
          Seglog.Record.fault =
            Some
              { test_plan with target = Fault.Main_memory_page { page_index = 6; bit = 6 } }
        } );
      ("fault repeat", { c with Seglog.Record.fault = Some { test_plan with repeat = true } });
      ("fault removed", { c with Seglog.Record.fault = None }) ]

(* A program or fault plan the runtime cannot take back is a typed
   [Malformed] from the field codecs, not an exception: an undecodable
   instruction word, an image Program.create refuses, an unknown fault
   keyword. The program section is built by hand, after checking that
   the hand-built layout is put_program's. *)
let malformed_program_and_fault () =
  let module C = Seglog.Codec in
  let section ~entry word =
    let w = C.wbuf () in
    C.str w "p";
    C.varint w entry;
    C.varint w 0x10000;
    C.uvarint w 1;
    C.varint w word;
    C.uvarint w 0;
    C.contents w
  in
  let nop = Isa.Program.create ~name:"p" ~initial_brk:0x10000 [| Isa.Insn.Nop |] in
  let nop_word = Option.get (Isa.Insn.encode Isa.Insn.Nop) in
  let w = C.wbuf () in
  Seglog.Record.put_program w nop;
  Alcotest.(check string) "hand-built section = put_program's"
    (Bytes.to_string (C.contents w))
    (Bytes.to_string (section ~entry:0 nop_word));
  let malformed what get b =
    match get (C.rbuf b) with
    | _ -> Alcotest.failf "%s decoded" what
    | exception C.Error (C.Malformed _) -> ()
  in
  Alcotest.(check bool) "undecodable tag" true (Isa.Insn.decode 31 = None);
  malformed "undecodable word" Seglog.Record.get_program (section ~entry:0 31);
  malformed "entry outside the code" Seglog.Record.get_program (section ~entry:1 nop_word);
  (* The same word in a whole manifest file, its section and file
     checksums recomputed, is an invalid log (parallaft-replay's exit 2). *)
  let _, _, _, m, _, _ = fixture () in
  let file = Seglog.Writer.manifest { m with Seglog.Record.program = nop } in
  let good = Bytes.to_string (section ~entry:0 nop_word) in
  let len = String.length good in
  let rec find i = if Bytes.sub_string file i len = good then i else find (i + 1) in
  let at = find 0 in
  Bytes.blit (section ~entry:0 31) 0 file at len;
  let rehash ~pos ~len =
    Bytes.set_int64_le file (pos + len) (Ftr_hash.Xxh64.hash_sub file ~pos ~len)
  in
  rehash ~pos:at ~len;
  rehash ~pos:0 ~len:(Bytes.length file - 8);
  (match Seglog.Reader.manifest file with
  | Error (C.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "manifest with an undecodable word decoded"
  | Error e -> Alcotest.failf "undecodable manifest: %s" (C.error_to_string e));
  let w = C.wbuf () in
  Seglog.Record.put_config w test_config;
  let kind = Fault.target_kind_to_string test_plan.target in
  let config = Bytes.to_string (C.contents w) in
  let rec find i =
    if String.sub config i (String.length kind) = kind then i else find (i + 1)
  in
  let at = find 0 in
  let bogus = Bytes.of_string config in
  Bytes.set bogus at 'X';
  malformed "unknown fault keyword" Seglog.Record.get_config bogus

(* ---------- end-to-end: record live, re-check offline ---------- *)

let busy_program () =
  Workloads.Codegen.generate ~name:"busy" ~seed:11L
    ~page_size:platform.Platform.page_size
    {
      Workloads.Codegen.pattern =
        Workloads.Codegen.Chase { pages = 12; hot_pages = 4; cold_every = 2 };
      alu_per_mem = 3;
      store_every = 2;
      outer_iters = 30;
      inner_iters = 40;
      io_every = 3;
      gettime_every = 5;
      rdtsc_every = 7;
      mmap_churn = true;
    }

let record_run ?fault_plan ?(recheck = false) dir =
  let config =
    Parallaft.Config.parallaft ~platform ~slice_period:3000 ()
  in
  let config =
    { config with
      Parallaft.Config.record_log = Some dir;
      fault_plan;
      recheck_on_mismatch = recheck
    }
  in
  Parallaft.Runtime.run_protected ~platform ~config ~program:(busy_program ()) ()

let offline_matches_clean_run () =
  let dir = Fixtures.e2e_dir "seglog_e2e_clean" in
  let r = record_run dir in
  Alcotest.(check (list reject)) "no live detections" []
    (List.map snd r.Parallaft.Runtime.detections);
  Alcotest.(check (option int)) "main exited" (Some 0) r.Parallaft.Runtime.exit_status;
  (* The page codec must actually compress what the run persisted. *)
  (match
     List.assoc_opt "seglog.compression_ratio"
       (Parallaft.Stats.to_assoc r.Parallaft.Runtime.stats)
   with
  | Some ratio ->
    Alcotest.(check bool) ("compression ratio " ^ ratio ^ " > 1.0") true
      (float_of_string ratio > 1.0)
  | None -> Alcotest.fail "no seglog.compression_ratio row");
  let manifest, segments = Fixtures.load_log dir in
  match Parallaft.Offline.replay ~manifest ~segments with
  | Error e -> Alcotest.failf "offline replay: %s" e
  | Ok (Parallaft.Offline.Diverged d) ->
    Alcotest.failf "clean run diverged offline:\n%s"
      (Parallaft.Offline.divergence_report d)
  | Ok
      (Parallaft.Offline.Verified
        { segments = n; final_hash = _; final_hash_matches }) ->
    Alcotest.(check int) "all segments replayed"
      (List.length manifest.Seglog.Record.segments)
      n;
    Alcotest.(check (option bool)) "final state hash re-verified" (Some true)
      final_hash_matches

let offline_matches_fault_verdict () =
  let dir = Fixtures.e2e_dir "seglog_e2e_fault" in
  let fault_plan =
    Some
      { Fault.segment = 2;
        delay_instructions = 60;
        target = Fault.Checker_memory_page { page_index = 6; bit = 6 };
        repeat = false
      }
  in
  let r = record_run ?fault_plan dir in
  let live_segments = List.map fst r.Parallaft.Runtime.detections in
  Alcotest.(check bool) "live run detected the fault" true (live_segments <> []);
  let manifest, segments = Fixtures.load_log dir in
  match Parallaft.Offline.replay ~manifest ~segments with
  | Error e -> Alcotest.failf "offline replay: %s" e
  | Ok (Parallaft.Offline.Verified _) ->
    Alcotest.fail "offline replay missed the fault the live run detected"
  | Ok (Parallaft.Offline.Diverged d) ->
    Alcotest.(check int) "offline divergence names the live detection segment"
      (List.hd live_segments) d.Parallaft.Offline.segment

(* Verdict parity over checker-side faults: offline diverges exactly
   when the live run detected, and in the live run's first detection
   segment. With the re-check on, a one-shot fault is re-checked away
   live (a transient checker fault, no detection), so offline must not
   re-arm it; a repeat fault re-arms on the re-check and stays
   detected. *)
let offline_verdict_parity () =
  let detected = ref 0 in
  List.iter
    (fun (target, repeat, recheck) ->
      let plan = { Fault.segment = 2; delay_instructions = 60; target; repeat } in
      let leg =
        Printf.sprintf "%s_%s_%s"
          (Fault.target_kind_to_string target)
          (if repeat then "repeat" else "oneshot")
          (if recheck then "recheck" else "plain")
      in
      let dir = Fixtures.e2e_dir ("seglog_parity_" ^ leg) in
      let r = record_run ~fault_plan:plan ~recheck dir in
      let live = List.map fst r.Parallaft.Runtime.detections in
      if live <> [] then incr detected;
      let manifest, segments = Fixtures.load_log dir in
      match (Parallaft.Offline.replay ~manifest ~segments, live) with
      | Error e, _ -> Alcotest.failf "%s: offline replay: %s" leg e
      | Ok (Parallaft.Offline.Verified _), [] -> ()
      | Ok (Parallaft.Offline.Verified _), first :: _ ->
        Alcotest.failf "%s: live detected in segment %d, offline verified" leg first
      | Ok (Parallaft.Offline.Diverged d), [] ->
        Alcotest.failf "%s: live verified, offline diverged:\n%s" leg
          (Parallaft.Offline.divergence_report d)
      | Ok (Parallaft.Offline.Diverged d), first :: _ ->
        Alcotest.(check int) (leg ^ ": divergence segment") first
          d.Parallaft.Offline.segment)
    (List.concat_map
       (fun target ->
         List.concat_map
           (fun repeat -> [ (target, repeat, false); (target, repeat, true) ])
           [ false; true ])
       [ Fault.Checker_register { reg = 13; bit = 6 };
         Fault.Checker_memory_page { page_index = 6; bit = 6 } ]);
  Alcotest.(check bool) "some row detects live" true (!detected > 0)

(* A divergence the replay kernel finds offline is reported exactly as
   the live checker would classify it. *)
let offline_reason_from_kernel () =
  let dir = Fixtures.e2e_dir "seglog_e2e_tampered" in
  ignore (record_run dir);
  let manifest, segments = Fixtures.load_log dir in
  let first_sys (s : Seglog.Record.segment) =
    List.find_map
      (function Seglog.Record.Sys r -> Some r | _ -> None)
      s.Seglog.Record.events
  in
  let victim, real_call =
    match
      List.find_map
        (fun s ->
          match first_sys s with
          | Some r when r.Seglog.Record.call <> Sim_os.Syscall.Getpid ->
            Some (s.Seglog.Record.id, r.Seglog.Record.call)
          | _ -> None)
        segments
    with
    | Some v -> v
    | None -> Alcotest.fail "no segment with a non-getpid syscall"
  in
  let tamper (s : Seglog.Record.segment) =
    if s.Seglog.Record.id <> victim then s
    else
      let rewritten = ref false in
      let events =
        List.map
          (function
            | Seglog.Record.Sys r when not !rewritten ->
              rewritten := true;
              Seglog.Record.Sys { r with Seglog.Record.call = Sim_os.Syscall.Getpid }
            | ev -> ev)
          s.Seglog.Record.events
      in
      { s with Seglog.Record.events }
  in
  match Parallaft.Offline.replay ~manifest ~segments:(List.map tamper segments) with
  | Error e -> Alcotest.failf "offline replay: %s" e
  | Ok (Parallaft.Offline.Verified _) -> Alcotest.fail "tampered log verified"
  | Ok (Parallaft.Offline.Diverged d) ->
    Alcotest.(check int) "diverges in the tampered segment" victim
      d.Parallaft.Offline.segment;
    Alcotest.(check string) "kernel outcome as the reason"
      (Parallaft.Detection.outcome_to_string
         (Parallaft.Detection.Detected
            (Parallaft.Detection.Syscall_mismatch
               { expected = "getpid"; got = Sim_os.Syscall.name real_call })))
      d.Parallaft.Offline.reason

let () =
  Alcotest.run "seglog"
    [ ( "roundtrip",
        [ QCheck_alcotest.to_alcotest qcheck_segment_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_manifest_roundtrip ] );
      ("codec", [ QCheck_alcotest.to_alcotest qcheck_page_codec_reference ]);
      ( "validation",
        [ Alcotest.test_case "single-byte corruption is rejected" `Quick
            corruption_rejected;
          Alcotest.test_case "version guards" `Quick version_guards;
          Alcotest.test_case "config fingerprint guard" `Quick fingerprint_guard;
          Alcotest.test_case "undecodable program or fault is malformed" `Quick
            malformed_program_and_fault ] );
      ( "offline",
        [ Alcotest.test_case "clean run re-verifies offline" `Slow
            offline_matches_clean_run;
          Alcotest.test_case "fault verdict reproduced offline" `Slow
            offline_matches_fault_verdict;
          Alcotest.test_case "verdict parity: target x repeat x recheck" `Slow
            offline_verdict_parity;
          Alcotest.test_case "offline reason is the kernel's outcome" `Slow
            offline_reason_from_kernel ] )
    ]
