(* Bytes per chunk when the page size is a multiple of it. 2 KiB chunks
   are larger than [Max_young_wosize] (256 words), so a chunk copy is
   allocated straight into the major heap instead of being promoted out
   of the minor heap; a 16 KiB page has 8 of them, a 4 KiB page 2. *)
let chunk_size = 2048

type chunk = {
  bytes : Bytes.t;
  mutable refs : int;
}

type t = {
  id : int;
  chunks : chunk array;
  mutable refcount : int;
}

type allocator = {
  psize : int;
  clen : int;
  nchunks : int;
  (* All zeros, never written. It carries one reference of its own on
     top of one per chunk slot holding it, so its count never reaches
     one: a store always copies it and a free never recycles it. *)
  zero : chunk;
  mutable next_id : int;
  mutable live : int;
  mutable copies : int;
  mutable live_chunks : int;
  (* Chunks whose count dropped to zero, reused by the next chunk copy.
     Never longer than [live_chunks], so recycling cannot hold more
     memory than the chunks still in use. *)
  mutable spare : chunk list;
  mutable spare_len : int;
}

let allocator ~page_size =
  if page_size <= 0 || page_size mod 8 <> 0 then
    invalid_arg "Frame.allocator: page_size must be a positive multiple of 8";
  let clen = if page_size mod chunk_size = 0 then chunk_size else page_size in
  {
    psize = page_size;
    clen;
    nchunks = page_size / clen;
    zero = { bytes = Bytes.make clen '\000'; refs = 1 };
    next_id = 0;
    live = 0;
    copies = 0;
    live_chunks = 0;
    spare = [];
    spare_len = 0;
  }

let page_size a = a.psize
let chunk_bytes a = a.clen

let alloc a chunks =
  let id = a.next_id in
  a.next_id <- id + 1;
  a.live <- a.live + 1;
  { id; chunks; refcount = 1 }

let sentinel = { id = -1; chunks = [||]; refcount = 0 }

let alloc_zero a =
  a.zero.refs <- a.zero.refs + a.nchunks;
  alloc a (Array.make a.nchunks a.zero)

let alloc_copy a f =
  a.copies <- a.copies + 1;
  let chunks = Array.copy f.chunks in
  for i = 0 to a.nchunks - 1 do
    let c = Array.unsafe_get chunks i in
    c.refs <- c.refs + 1
  done;
  alloc a chunks

(* Give chunk [i] of [f] a private copy, on a spare chunk when there is
   one. The caller checked that the chunk is shared, so dropping [f]'s
   reference cannot free it. *)
let copy_chunk a f i =
  let old = f.chunks.(i) in
  let fresh =
    match a.spare with
    | c :: rest ->
      a.spare <- rest;
      a.spare_len <- a.spare_len - 1;
      c.refs <- 1;
      c
    | [] -> { bytes = Bytes.create a.clen; refs = 1 }
  in
  Bytes.blit old.bytes 0 fresh.bytes 0 a.clen;
  old.refs <- old.refs - 1;
  a.live_chunks <- a.live_chunks + 1;
  f.chunks.(i) <- fresh;
  fresh.bytes

let writable_chunk a f i =
  let c = Array.unsafe_get f.chunks i in
  if c.refs = 1 then c.bytes else copy_chunk a f i

let release_chunk a c =
  c.refs <- c.refs - 1;
  if c.refs = 0 then begin
    a.live_chunks <- a.live_chunks - 1;
    if a.spare_len < a.live_chunks then begin
      a.spare <- c :: a.spare;
      a.spare_len <- a.spare_len + 1
    end
    else if a.spare_len > a.live_chunks then begin
      a.spare <- List.tl a.spare;
      a.spare_len <- a.spare_len - 1
    end
  end

let incref f =
  if f.refcount <= 0 then invalid_arg "Frame.incref: frame already freed";
  f.refcount <- f.refcount + 1

let decref a f =
  if f.refcount <= 0 then invalid_arg "Frame.decref: refcount already zero";
  f.refcount <- f.refcount - 1;
  if f.refcount = 0 then begin
    a.live <- a.live - 1;
    for i = 0 to a.nchunks - 1 do
      release_chunk a (Array.unsafe_get f.chunks i)
    done
  end

(* Apply [k chunk_index chunk_off pos n] to each chunk-sized piece of
   the page range [off, off + len). *)
let iter_pieces ~clen ~off ~len k =
  let pos = ref 0 in
  while !pos < len do
    let o = off + !pos in
    let coff = o mod clen in
    let n = Int.min (len - !pos) (clen - coff) in
    k (o / clen) coff !pos n;
    pos := !pos + n
  done

let blit_out f ~off dst ~pos ~len =
  iter_pieces ~clen:(Bytes.length f.chunks.(0).bytes) ~off ~len (fun i coff p n ->
      Bytes.blit f.chunks.(i).bytes coff dst (pos + p) n)

let blit_in a src ~pos f ~off ~len =
  if f.refcount <> 1 then invalid_arg "Frame.blit_in: frame is shared";
  iter_pieces ~clen:a.clen ~off ~len (fun i coff p n ->
      Bytes.blit src (pos + p) (writable_chunk a f i) coff n)

let hash_into st f =
  Array.iter
    (fun c -> Ftr_hash.Xxh64.update st c.bytes ~pos:0 ~len:(Bytes.length c.bytes))
    f.chunks

let same_bytes f g =
  let rec go i =
    i < 0
    ||
    let c = Array.unsafe_get f.chunks i and d = Array.unsafe_get g.chunks i in
    (c == d || Bytes.equal c.bytes d.bytes) && go (i - 1)
  in
  Array.length f.chunks = Array.length g.chunks && go (Array.length f.chunks - 1)

let live_frames a = a.live
let copies a = a.copies
let live_chunks a = a.live_chunks
let spare_chunks a = a.spare_len
