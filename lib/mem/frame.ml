type t = {
  id : int;
  data : Bytes.t;
  mutable refcount : int;
  mutable generation : int;
}

type allocator = {
  psize : int;
  mutable next_id : int;
  mutable live : int;
  mutable copies : int;
  (* Page buffers of freed frames, reused by the next allocation. Never
     longer than [live], so recycling cannot hold more memory than the
     frames still in use. *)
  mutable spare : Bytes.t list;
  mutable spare_len : int;
}

let allocator ~page_size =
  if page_size <= 0 || page_size mod 8 <> 0 then
    invalid_arg "Frame.allocator: page_size must be a positive multiple of 8";
  {
    psize = page_size;
    next_id = 0;
    live = 0;
    copies = 0;
    spare = [];
    spare_len = 0;
  }

let page_size a = a.psize

let alloc a data =
  let id = a.next_id in
  a.next_id <- id + 1;
  a.live <- a.live + 1;
  { id; data; refcount = 1; generation = 0 }

(* A recycled page buffer, if any. Its stale bytes are the caller's to
   overwrite in full before the frame becomes visible. *)
let take_spare a =
  match a.spare with
  | [] -> None
  | b :: rest ->
    a.spare <- rest;
    a.spare_len <- a.spare_len - 1;
    Some b

let alloc_zero a =
  match take_spare a with
  | None -> alloc a (Bytes.make a.psize '\000')
  | Some b ->
    Bytes.fill b 0 a.psize '\000';
    alloc a b

let alloc_copy a f =
  a.copies <- a.copies + 1;
  match take_spare a with
  | None -> alloc a (Bytes.copy f.data)
  | Some b ->
    Bytes.blit f.data 0 b 0 a.psize;
    alloc a b

let incref f =
  if f.refcount <= 0 then invalid_arg "Frame.incref: frame already freed";
  f.refcount <- f.refcount + 1

let decref a f =
  if f.refcount <= 0 then invalid_arg "Frame.decref: refcount already zero";
  f.refcount <- f.refcount - 1;
  if f.refcount = 0 then begin
    a.live <- a.live - 1;
    if a.spare_len < a.live then begin
      a.spare <- f.data :: a.spare;
      a.spare_len <- a.spare_len + 1
    end
    else if a.spare_len > a.live then ignore (take_spare a)
  end

let bump_generation f = f.generation <- f.generation + 1

let live_frames a = a.live
let copies a = a.copies
let spare_buffers a = a.spare_len
