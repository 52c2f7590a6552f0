type t = {
  pt : Page_table.t;
  alloc : Frame.allocator;
  psize : int;
  shift : int;
  mask : int;
  clen : int;
  cshift : int;
  cmask : int;
  mutable last_frame : int;
  mutable last_cow : bool;
  mutable last_cow_old_frame : int; (* valid when last_cow *)
}

exception
  Segfault of {
    addr : int;
    write : bool;
  }

let log2_exact n =
  let rec go i = if 1 lsl i = n then Some i else if 1 lsl i > n then None else go (i + 1) in
  go 0

let of_page_table pt =
  let alloc = Page_table.allocator pt in
  let psize = Page_table.page_size pt in
  let clen = Frame.chunk_bytes alloc in
  match (log2_exact psize, log2_exact clen) with
  | None, _ | _, None -> invalid_arg "Address_space: page size must be a power of two"
  | Some shift, Some cshift ->
    { pt; alloc; psize; shift; mask = psize - 1; clen; cshift; cmask = clen - 1;
      last_frame = -1; last_cow = false; last_cow_old_frame = -1 }

let create alloc = of_page_table (Page_table.create alloc)

let page_table t = t.pt
let page_size t = t.psize
let vpn_of_addr t addr = addr asr t.shift
let last_frame t = t.last_frame
let last_cow t = t.last_cow
let last_cow_old_frame t = t.last_cow_old_frame

let map_range t ~addr ~len prot =
  if len < 0 then invalid_arg "Address_space.map_range: negative length";
  if len > 0 then
    let first = vpn_of_addr t addr and last = vpn_of_addr t (addr + len - 1) in
    for vpn = first to last do
      if not (Page_table.is_mapped t.pt ~vpn) then Page_table.map_zero t.pt ~vpn prot
    done

let unmap_range t ~addr ~len =
  if len > 0 then
    let first = vpn_of_addr t addr and last = vpn_of_addr t (addr + len - 1) in
    for vpn = first to last do
      if Page_table.is_mapped t.pt ~vpn then Page_table.unmap t.pt ~vpn
    done

let write_page t addr =
  try
    let frame = Page_table.store_prepare t.pt ~vpn:(addr asr t.shift) in
    let retired = Page_table.retired_frame t.pt in
    if retired >= 0 then begin
      t.last_cow <- true;
      t.last_cow_old_frame <- retired
    end
    else t.last_cow <- false;
    t.last_frame <- frame.Frame.id;
    frame
  with Page_table.Page_fault _ -> raise (Segfault { addr; write = true })

(* Index of the chunk [addr] lands in, within its page. *)
let chunk_index t addr = (addr land t.mask) lsr t.cshift

(* The page walk of a read, returning the bytes of the chunk [addr]
   lands in. *)
let read_chunk t addr =
  try
    let frame = Page_table.read_frame t.pt ~vpn:(addr asr t.shift) in
    t.last_frame <- frame.Frame.id;
    (Array.unsafe_get frame.Frame.chunks (chunk_index t addr)).Frame.bytes
  with Page_table.Page_fault _ -> raise (Segfault { addr; write = false })

(* The same for writing: the chunk is private once this returns. *)
let write_chunk t addr = Frame.writable_chunk t.alloc (write_page t addr) (chunk_index t addr)

let load8 t addr = Char.code (Bytes.unsafe_get (read_chunk t addr) (addr land t.cmask))

let store8 t addr v =
  Bytes.unsafe_set (write_chunk t addr) (addr land t.cmask) (Char.unsafe_chr (v land 0xFF))

let load64 t addr =
  let coff = addr land t.cmask in
  if coff + 8 <= t.clen then Int64.to_int (Bytes.get_int64_le (read_chunk t addr) coff)
  else begin
    (* Straddles a chunk (maybe a page) boundary: assemble byte-wise. *)
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (load8 t (addr + i)))
    done;
    Int64.to_int !v
  end

let store64 t addr v =
  let coff = addr land t.cmask in
  let off = addr land t.mask in
  if coff + 8 <= t.clen then Bytes.set_int64_le (write_chunk t addr) coff (Int64.of_int v)
  else if off + 8 <= t.psize then begin
    (* Straddles a chunk boundary inside one page: still one page walk,
       so a COW is reported exactly as for any other in-page store. *)
    let frame = write_page t addr in
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    Frame.blit_in t.alloc b ~pos:0 frame ~off ~len:8
  end
  else
    let v64 = Int64.of_int v in
    for i = 0 to 7 do
      store8 t (addr + i)
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v64 (i * 8)) 0xFFL))
    done

let read_bytes t ~addr ~len =
  if len < 0 then invalid_arg "Address_space.read_bytes: negative length";
  let out = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let coff = a land t.cmask in
    let n = Int.min (len - !i) (t.clen - coff) in
    Bytes.blit (read_chunk t a) coff out !i n;
    i := !i + n
  done;
  out

let write_bytes t ~addr bytes =
  let len = Bytes.length bytes in
  let cows = ref 0 in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = a land t.mask in
    let n = Int.min (len - !i) (t.psize - off) in
    let frame = write_page t a in
    if t.last_cow then incr cows;
    Frame.blit_in t.alloc bytes ~pos:!i frame ~off ~len:n;
    i := !i + n
  done;
  !cows

let write_bytes_map t ~addr bytes =
  map_range t ~addr ~len:(Bytes.length bytes) Page_table.Read_write;
  ignore (write_bytes t ~addr bytes)

let fork t = of_page_table (Page_table.fork t.pt)
