let hex = Printf.sprintf "%Lx"

(* Published XXH64 test vectors. *)
let test_xxh64_empty () =
  Alcotest.(check string) "xxh64(\"\")" "ef46db3751d8e999"
    (hex (Ftr_hash.Xxh64.hash (Bytes.of_string "")))

let test_xxh64_a () =
  Alcotest.(check string) "xxh64(\"a\")" "d24ec4f1a98c6e5b"
    (hex (Ftr_hash.Xxh64.hash (Bytes.of_string "a")))

let test_xxh64_abc () =
  Alcotest.(check string) "xxh64(\"abc\")" "44bc2cf5ad770999"
    (hex (Ftr_hash.Xxh64.hash (Bytes.of_string "abc")))

(* Longer than one 32-byte stripe, so they pin the stripe loop and the
   lane merge, not only the short-input tail (python-xxhash's documented
   values). *)
let test_xxh64_spammish () =
  Alcotest.(check string) "xxh64(39-byte sentence)" "fbcea83c8a378bf1"
    (hex
       (Ftr_hash.Xxh64.hash
          (Bytes.of_string "Nobody inspects the spammish repetition")))

let test_xxh64_seeded_vector () =
  Alcotest.(check string) "xxh64(\"xxhash\", 20141025)" "b559b98d844e0635"
    (hex (Ftr_hash.Xxh64.hash ~seed:20141025L (Bytes.of_string "xxhash")))

let test_xxh64_seeded_differs () =
  let b = Bytes.of_string "hello, world" in
  Alcotest.(check bool) "seed changes digest" true
    (Ftr_hash.Xxh64.hash ~seed:0L b <> Ftr_hash.Xxh64.hash ~seed:1L b)

let test_xxh64_long_input_stable () =
  (* Longer than one 32-byte stripe; pins the wide-input code path. *)
  let b = Bytes.init 1000 (fun i -> Char.chr (i land 0xFF)) in
  let h1 = Ftr_hash.Xxh64.hash b in
  let h2 = Ftr_hash.Xxh64.hash (Bytes.copy b) in
  Alcotest.(check int64) "pure function" h1 h2;
  Bytes.set b 500 'X';
  Alcotest.(check bool) "sensitive to one byte" true
    (Ftr_hash.Xxh64.hash b <> h1)

let test_xxh64_sub_matches_whole () =
  let b = Bytes.of_string "0123456789abcdef0123456789abcdef0123456789" in
  let whole = Ftr_hash.Xxh64.hash (Bytes.sub b 5 20) in
  let sub = Ftr_hash.Xxh64.hash_sub b ~pos:5 ~len:20 in
  Alcotest.(check int64) "hash_sub consistent" whole sub

(* Lanes are read without bounds checks, so the one range check must
   also reject ranges whose end overflows. *)
let test_xxh64_sub_invalid () =
  let b = Bytes.create 10 in
  let st = Ftr_hash.Xxh64.init () in
  List.iter
    (fun (pos, len) ->
      (try
         ignore (Ftr_hash.Xxh64.hash_sub b ~pos ~len);
         Alcotest.failf "hash_sub accepted pos=%d len=%d" pos len
       with Invalid_argument _ -> ());
      try
        Ftr_hash.Xxh64.update st b ~pos ~len;
        Alcotest.failf "update accepted pos=%d len=%d" pos len
      with Invalid_argument _ -> ())
    [ (5, 6); (-1, 2); (0, -1); (max_int, 8); (8, max_int) ]

let test_streaming_matches_oneshot () =
  let b = Bytes.init 777 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let st = Ftr_hash.Xxh64.init () in
  Ftr_hash.Xxh64.update st b ~pos:0 ~len:100;
  Ftr_hash.Xxh64.update st b ~pos:100 ~len:1;
  Ftr_hash.Xxh64.update st b ~pos:101 ~len:676;
  Alcotest.(check int64) "streamed = one-shot" (Ftr_hash.Xxh64.hash b)
    (Ftr_hash.Xxh64.digest st)

let test_streaming_empty () =
  let st = Ftr_hash.Xxh64.init () in
  Alcotest.(check int64) "empty stream" (Ftr_hash.Xxh64.hash Bytes.empty)
    (Ftr_hash.Xxh64.digest st)

let test_streaming_int64 () =
  let st1 = Ftr_hash.Xxh64.init () in
  Ftr_hash.Xxh64.update_int64 st1 0x0102030405060708L;
  let expect = Bytes.create 8 in
  Bytes.set_int64_le expect 0 0x0102030405060708L;
  Alcotest.(check int64) "int64 = 8 LE bytes" (Ftr_hash.Xxh64.hash expect)
    (Ftr_hash.Xxh64.digest st1)

let qcheck_streaming_split =
  QCheck.Test.make ~name:"xxh64 streaming invariant under chunking" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 200)) (int_bound 200))
    (fun (s, cut) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let cut = if n = 0 then 0 else cut mod (n + 1) in
      let st = Ftr_hash.Xxh64.init () in
      Ftr_hash.Xxh64.update st b ~pos:0 ~len:cut;
      Ftr_hash.Xxh64.update st b ~pos:cut ~len:(n - cut);
      Ftr_hash.Xxh64.digest st = Ftr_hash.Xxh64.hash b)

(* The one-shot and streaming kernels run separate stripe loops; they
   must agree at any offset (lanes are unaligned loads), any length up
   to a few 16 KiB pages, any seed and any chunking. *)
let qcheck_sub_matches_chunked_stream =
  let gen =
    QCheck.Gen.(
      quad (int_range 0 (48 * 1024)) (int_range 0 15) ui64 (int_bound 1_000_000))
  in
  QCheck.Test.make ~name:"xxh64 hash_sub = streaming over random chunks"
    ~count:150
    (QCheck.make
       ~print:(fun (len, off, seed, r) ->
         Printf.sprintf "len=%d off=%d seed=%Ld rng=%d" len off seed r)
       gen)
    (fun (len, off, seed, r) ->
      let rng = Random.State.make [| r |] in
      let b =
        Bytes.init (off + len + 7) (fun _ -> Char.chr (Random.State.int rng 256))
      in
      let st = Ftr_hash.Xxh64.init ~seed () in
      let pos = ref off in
      while !pos < off + len do
        let room = off + len - !pos in
        let want =
          if Random.State.bool rng then Random.State.int rng 40
          else Random.State.int rng 9000
        in
        let n = min room want in
        Ftr_hash.Xxh64.update st b ~pos:!pos ~len:n;
        pos := !pos + n
      done;
      Ftr_hash.Xxh64.digest st = Ftr_hash.Xxh64.hash_sub ~seed b ~pos:off ~len)

(* Allocation guard for the per-page kernel: hashing a page allocates a
   fixed handful of words (the boxed result and the streaming state's
   lane stores), never a box per 8-byte lane. Counting words, not
   nanoseconds, makes the check exact. *)
let minor_words_of f =
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_page_hash_allocation_constant () =
  let sizes = [ 4096; 16384; 65536 ] in
  let pages =
    List.map (fun n -> Bytes.init n (fun i -> Char.chr ((i * 31) land 0xFF))) sizes
  in
  let one_shot b () = ignore (Sys.opaque_identity (Ftr_hash.Xxh64.hash b)) in
  let st = Ftr_hash.Xxh64.init () in
  let streamed b () = Ftr_hash.Xxh64.update st b ~pos:0 ~len:(Bytes.length b) in
  List.iter
    (fun (name, kernel) ->
      let words = List.map (fun b -> minor_words_of (kernel b)) pages in
      List.iter2
        (fun n w ->
          if w > 32. then
            Alcotest.failf "%s of %d B allocated %.0f minor words" name n w)
        sizes words;
      Alcotest.(check (list (float 0.)))
        (name ^ ": same words at every page size")
        (List.map (fun _ -> List.hd words) words)
        words)
    [ ("hash", one_shot); ("update", streamed) ]

let qcheck_avalanche =
  QCheck.Test.make ~name:"xxh64 single-bit flips change the digest" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 100)) (pair small_nat small_nat))
    (fun (s, (byte_idx, bit)) ->
      let b = Bytes.of_string s in
      let i = byte_idx mod Bytes.length b in
      let bit = bit mod 8 in
      let h1 = Ftr_hash.Xxh64.hash b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      h1 <> Ftr_hash.Xxh64.hash b)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "hash"
    [
      ( "xxh64",
        [
          tc "vector: empty" `Quick test_xxh64_empty;
          tc "vector: a" `Quick test_xxh64_a;
          tc "vector: abc" `Quick test_xxh64_abc;
          tc "vector: 39-byte sentence" `Quick test_xxh64_spammish;
          tc "vector: seeded" `Quick test_xxh64_seeded_vector;
          tc "seeded" `Quick test_xxh64_seeded_differs;
          tc "long input" `Quick test_xxh64_long_input_stable;
          tc "hash_sub" `Quick test_xxh64_sub_matches_whole;
          tc "hash_sub invalid" `Quick test_xxh64_sub_invalid;
        ] );
      ( "streaming",
        [
          tc "matches one-shot" `Quick test_streaming_matches_oneshot;
          tc "empty" `Quick test_streaming_empty;
          tc "update_int64" `Quick test_streaming_int64;
          QCheck_alcotest.to_alcotest qcheck_streaming_split;
          QCheck_alcotest.to_alcotest qcheck_avalanche;
          QCheck_alcotest.to_alcotest qcheck_sub_matches_chunked_stream;
          tc "page hash allocates O(1) words" `Quick
            test_page_hash_allocation_constant;
        ] );
    ]
