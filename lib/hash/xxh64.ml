(* Canonical XXH64 (https://xxhash.com). All arithmetic is modulo 2^64 on
   Int64 values; OCaml's Int64 ops already wrap.

   No allocation per lane. ocamlopt without flambda keeps an int64 unboxed
   only while it stays inside one function body: every call that returns
   an int64 boxes it, and so does every store into a [mutable int64]
   field. Hence the operators are primitives, the lane helpers are
   [@inline], lanes are read with the unchecked native load once the one
   range check has passed, and the stripe loops run on local refs
   (unboxed mutable variables) that reach the streaming state once per
   call. *)

let p1 = 0x9E3779B185EBCA87L
let p2 = 0xC2B2AE3D27D4EB4FL
let p3 = 0x165667B19E3779F9L
let p4 = 0x85EBCA77C2B2AE63L
let p5 = 0x27D4EB2F165667C5L

external ( +% ) : int64 -> int64 -> int64 = "%int64_add"
external ( *% ) : int64 -> int64 -> int64 = "%int64_mul"
external ( ^% ) : int64 -> int64 -> int64 = "%int64_xor"
external big_endian : unit -> bool = "%big_endian"
external get64_ne : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external get32_ne : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

let[@inline] rotl x r =
  Int64.logor (Int64.shift_left x r) (Int64.shift_right_logical x (64 - r))

let[@inline] round acc lane = rotl (acc +% (lane *% p2)) 31 *% p1

let[@inline] merge_round acc v = ((acc ^% round 0L v) *% p1) +% p4

let[@inline] avalanche h =
  let h = h ^% Int64.shift_right_logical h 33 in
  let h = h *% p2 in
  let h = h ^% Int64.shift_right_logical h 29 in
  let h = h *% p3 in
  h ^% Int64.shift_right_logical h 32

(* Little-endian lane reads without bounds checks: every caller has
   range-checked [pos, pos + len) against the buffer first, in a form
   that cannot overflow. *)
let[@inline] get64 b i =
  if big_endian () then Bytes.get_int64_le b i else get64_ne b i

let[@inline] get32 b i =
  let w = if big_endian () then Bytes.get_int32_le b i else get32_ne b i in
  Int64.logand (Int64.of_int32 w) 0xFFFFFFFFL

let[@inline] get8 b i = Int64.of_int (Char.code (Bytes.unsafe_get b i))

(* Fold the four stripe lanes into one accumulator. *)
let[@inline] converge v1 v2 v3 v4 =
  let acc = rotl v1 1 +% rotl v2 7 +% rotl v3 12 +% rotl v4 18 in
  let acc = merge_round acc v1 in
  let acc = merge_round acc v2 in
  let acc = merge_round acc v3 in
  merge_round acc v4

(* Finish hashing [b.(pos .. pos+len)] given the accumulator [acc] (which
   already includes the total length). *)
let finalize acc b pos len =
  let acc = ref acc in
  let i = ref pos in
  let stop = pos + len in
  while stop - !i >= 8 do
    acc := (rotl (!acc ^% round 0L (get64 b !i)) 27 *% p1) +% p4;
    i := !i + 8
  done;
  if stop - !i >= 4 then begin
    acc := (rotl (!acc ^% (get32 b !i *% p1)) 23 *% p2) +% p3;
    i := !i + 4
  end;
  while !i < stop do
    acc := rotl (!acc ^% (get8 b !i *% p5)) 11 *% p1;
    incr i
  done;
  avalanche !acc

let hash_sub ?(seed = 0L) b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Xxh64.hash_sub";
  if len >= 32 then begin
    let v1 = ref (seed +% p1 +% p2)
    and v2 = ref (seed +% p2)
    and v3 = ref seed
    and v4 = ref (Int64.sub seed p1) in
    let i = ref pos in
    let limit = pos + len - 32 in
    while !i <= limit do
      v1 := round !v1 (get64 b !i);
      v2 := round !v2 (get64 b (!i + 8));
      v3 := round !v3 (get64 b (!i + 16));
      v4 := round !v4 (get64 b (!i + 24));
      i := !i + 32
    done;
    let acc = converge !v1 !v2 !v3 !v4 +% Int64.of_int len in
    finalize acc b !i (pos + len - !i)
  end
  else
    let acc = seed +% p5 +% Int64.of_int len in
    finalize acc b pos len

let hash ?seed b = hash_sub ?seed b ~pos:0 ~len:(Bytes.length b)

type state = {
  seed : int64;
  mutable total : int;
  buf : Bytes.t; (* 32-byte stripe buffer *)
  scratch : Bytes.t; (* 8-byte staging for update_int64 *)
  mutable buf_len : int;
  mutable v1 : int64;
  mutable v2 : int64;
  mutable v3 : int64;
  mutable v4 : int64;
}

let init ?(seed = 0L) () =
  {
    seed;
    total = 0;
    buf = Bytes.create 32;
    scratch = Bytes.create 8;
    buf_len = 0;
    v1 = seed +% p1 +% p2;
    v2 = seed +% p2;
    v3 = seed;
    v4 = Int64.sub seed p1;
  }

let update st b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Xxh64.update";
  st.total <- st.total + len;
  let i = ref pos in
  let stop = pos + len in
  (* Top up a partial stripe left by the previous call. *)
  if st.buf_len > 0 then begin
    let take = Int.min (32 - st.buf_len) len in
    Bytes.blit b pos st.buf st.buf_len take;
    st.buf_len <- st.buf_len + take;
    i := pos + take
  end;
  if st.buf_len = 32 || stop - !i >= 32 then begin
    let v1 = ref st.v1 and v2 = ref st.v2 and v3 = ref st.v3 and v4 = ref st.v4 in
    if st.buf_len = 32 then begin
      let s = st.buf in
      v1 := round !v1 (get64 s 0);
      v2 := round !v2 (get64 s 8);
      v3 := round !v3 (get64 s 16);
      v4 := round !v4 (get64 s 24);
      st.buf_len <- 0
    end;
    while stop - !i >= 32 do
      v1 := round !v1 (get64 b !i);
      v2 := round !v2 (get64 b (!i + 8));
      v3 := round !v3 (get64 b (!i + 16));
      v4 := round !v4 (get64 b (!i + 24));
      i := !i + 32
    done;
    st.v1 <- !v1;
    st.v2 <- !v2;
    st.v3 <- !v3;
    st.v4 <- !v4
  end;
  if !i < stop then begin
    Bytes.blit b !i st.buf 0 (stop - !i);
    st.buf_len <- stop - !i
  end

(* The staging buffer lives in the state (not a module global) so
   concurrent hashers on different domains never share it — parallel
   experiment runs hash checkpoints simultaneously. *)
let update_int64 st v =
  Bytes.set_int64_le st.scratch 0 v;
  update st st.scratch ~pos:0 ~len:8

let digest st =
  let acc =
    if st.total >= 32 then converge st.v1 st.v2 st.v3 st.v4 else st.seed +% p5
  in
  let acc = acc +% Int64.of_int st.total in
  finalize acc st.buf 0 st.buf_len
