(* Per-page payload compression (DESIGN.md §17).

   Dirty-page payloads dominate a segment log, and most dirty pages are
   sparse (stack/heap pages with a few live words) or near-identical to
   the same page in the parent frame (the previous segment that dirtied
   the same vpn). Two byte-exact schemes cover both without external
   deps:

     tag 0  raw        page bytes verbatim
     tag 1  zero-RLE   (zero-run, literal-run) pairs
     tag 2  xor-parent xor against the parent payload, then zero-RLE

   The writer encodes all applicable candidates and keeps the smallest;
   the reader is told the tag and the uncompressed length and must
   reproduce the page exactly (checksums pin it).

   The scans read the page as 64-bit words and never build a page: the
   tag-2 candidate is scanned as page xor parent on the fly, and tag-2
   decode copies the parent and xors only the literal bytes into it. *)

(* A literal run ends where [zero_cut] consecutive zeros begin: shorter
   zero gaps cost more to break out than to carry as literals (two
   varint headers vs <= 7 literal zero bytes). It equals the word
   width, which [literal_end] relies on: zero bytes between two nonzero
   bytes of one word number at most six, short of a cut. *)
let zero_cut = 8

(* Unchecked: every caller keeps [i + 8 <= Bytes.length page], and a
   parent has the page's length. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* The scans below are closed top-level functions over (page, parent,
   xor): this ocamlopt has no flambda, so a local helper capturing them
   would cost a real call per word. With [xor] they read page xor
   parent, else the page alone ([parent] is then unused). A word is
   only tested for being zero or holding a zero byte, so its byte order
   does not matter; zero bytes are located with byte reads. *)
let[@inline] word page parent xor i =
  if xor then Int64.logxor (get64 page i) (get64 parent i) else get64 page i

let[@inline] byte page parent xor i =
  if xor then Char.code (Bytes.unsafe_get page i) lxor Char.code (Bytes.unsafe_get parent i)
  else Char.code (Bytes.unsafe_get page i)

(* Whether some byte of [w] is zero. Exact as a yes/no: a borrow can
   flag a byte above a zero byte, never a word without one. *)
let[@inline] has_zero_byte w =
  Int64.logand (Int64.logand (Int64.sub w 0x0101010101010101L) (Int64.lognot w))
    0x8080808080808080L
  <> 0L

(* The first index in [i, n) holding a nonzero byte, or [n]. *)
let skip_zeros page parent xor i n =
  let i = ref i in
  while
    !i <= n - 32
    && Int64.logor
         (Int64.logor (word page parent xor !i) (word page parent xor (!i + 8)))
         (Int64.logor (word page parent xor (!i + 16)) (word page parent xor (!i + 24)))
       = 0L
  do
    i := !i + 32
  done;
  while !i <= n - 8 && word page parent xor !i = 0L do
    i := !i + 8
  done;
  while !i < n && byte page parent xor !i = 0 do
    incr i
  done;
  !i

(* Zero bytes at the start and at the end of the nonzero word at [q]. *)
let lead_zeros page parent xor q =
  let k = ref 0 in
  while byte page parent xor (q + !k) = 0 do
    incr k
  done;
  !k

let trail_zeros page parent xor q =
  let k = ref 7 in
  while byte page parent xor (q + !k) = 0 do
    decr k
  done;
  7 - !k

(* [literal_end] past the last whole word, one byte at a time. *)
let rec tail_end page parent xor n q run =
  if q >= n then n
  else if byte page parent xor q <> 0 then tail_end page parent xor n (q + 1) 0
  else if run + 1 >= zero_cut then q + 1 - zero_cut
  else tail_end page parent xor n (q + 1) (run + 1)

(* Where the literal run scanned from [q] ends: the first index at which
   [zero_cut] zeros begin, or [n]. [run] zeros end just before [q]. An
   all-zero word completes a cut where the run began; a word with no
   zero byte resets the run; a mixed word may complete it with its
   leading zeros, else its trailing zeros start the next run. *)
let rec literal_end page parent xor n q run =
  if q > n - 8 then tail_end page parent xor n q run
  else
    let w = word page parent xor q in
    if w = 0L then q - run
    else if not (has_zero_byte w) then literal_end page parent xor n (q + 8) 0
    else if run + lead_zeros page parent xor q >= zero_cut then q - run
    else literal_end page parent xor n (q + 8) (trail_zeros page parent xor q)

(* Zero-RLE of the page (of page xor parent with [xor]) as
   (zero-run, literal-run) pairs, if it is shorter than [bound] bytes;
   the scan gives up as soon as it cannot be. *)
let rle page parent xor ~bound =
  let w = Codec.wbuf () in
  let n = Bytes.length page in
  let i = ref 0 and fits = ref true in
  while !fits && !i < n do
    let l0 = skip_zeros page parent xor !i n in
    let lend = literal_end page parent xor n l0 0 in
    Codec.uvarint w (l0 - !i);
    Codec.uvarint w (lend - l0);
    if Codec.wlen w + (lend - l0) >= bound then fits := false
    else begin
      if xor then Codec.raw_xor w page parent ~pos:l0 ~len:(lend - l0)
      else Codec.raw w page ~pos:l0 ~len:(lend - l0);
      i := lend
    end
  done;
  if !fits && Codec.wlen w < bound then Some (Codec.contents w) else None

let encode ~parent page =
  let raw_len = Bytes.length page in
  let tag, best =
    match rle page page false ~bound:raw_len with
    | Some payload -> (1, payload)
    | None -> (0, Bytes.copy page)
  in
  match parent with
  | Some p when Bytes.length p = raw_len -> (
    match rle page p true ~bound:(Bytes.length best) with
    | Some payload -> (2, payload)
    | None -> (tag, best))
  | _ -> (tag, best)

(* Lays the literals of an RLE payload into [out], whose zero runs are
   already in place: blitted over zeros, or xored into the parent's
   bytes with [xor]. *)
let rle_decode payload out ~xor =
  let raw_len = Bytes.length out in
  let r = Codec.rbuf payload in
  let pos = ref 0 in
  while Codec.remaining r > 0 do
    let zrun = Codec.r_uvarint r in
    let litlen = Codec.r_uvarint r in
    if zrun < 0 || litlen < 0 || zrun > raw_len - !pos || litlen > raw_len - !pos - zrun
    then
      Codec.malformed "RLE runs overflow the page (%d+%d past %d/%d)" zrun litlen !pos
        raw_len;
    pos := !pos + zrun;
    if xor then Codec.r_xor r ~len:litlen out ~dst_pos:!pos
    else Codec.r_blit r ~len:litlen out ~dst_pos:!pos;
    pos := !pos + litlen
  done;
  out

let decode ~parent ~tag ~raw_len payload =
  match tag with
  | 0 ->
    if Bytes.length payload <> raw_len then
      Codec.malformed "raw page payload is %d bytes, page is %d" (Bytes.length payload)
        raw_len;
    Bytes.copy payload
  | 1 -> rle_decode payload (Bytes.make raw_len '\000') ~xor:false
  | 2 -> (
    match parent with
    | None -> Codec.malformed "xor-delta page without a parent frame"
    | Some p ->
      if Bytes.length p <> raw_len then
        Codec.malformed "xor-delta parent is %d bytes, page is %d" (Bytes.length p)
          raw_len;
      rle_decode payload (Bytes.copy p) ~xor:true)
  | t -> Codec.malformed "unknown page compression tag %d" t
