type t = {
  pt : Page_table.t;
  psize : int;
  shift : int;
  mask : int;
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
  let psize = Page_table.page_size pt in
  match log2_exact psize with
  | None -> invalid_arg "Address_space: page size must be a power of two"
  | Some shift ->
    { pt; psize; shift; mask = psize - 1; last_frame = -1; last_cow = false;
      last_cow_old_frame = -1 }

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

let read_page t addr =
  let vpn = addr asr t.shift in
  try
    let frame = Page_table.read_frame t.pt ~vpn in
    t.last_frame <- frame.Frame.id;
    frame.Frame.data
  with Page_table.Page_fault _ -> raise (Segfault { addr; write = false })

let write_page t addr =
  let vpn = addr asr t.shift in
  try
    let data, old_frame = Page_table.store_prepare t.pt ~vpn in
    (match old_frame with
    | Some id ->
      t.last_cow <- true;
      t.last_cow_old_frame <- id
    | None -> t.last_cow <- false);
    t.last_frame <- Page_table.frame_id t.pt ~vpn;
    data
  with Page_table.Page_fault _ -> raise (Segfault { addr; write = true })

let load8 t addr =
  let page = read_page t addr in
  Char.code (Bytes.unsafe_get page (addr land t.mask))

let store8 t addr v =
  let page = write_page t addr in
  Bytes.unsafe_set page (addr land t.mask) (Char.unsafe_chr (v land 0xFF))

let load64 t addr =
  let off = addr land t.mask in
  if off + 8 <= t.psize then
    let page = read_page t addr in
    Int64.to_int (Bytes.get_int64_le page off)
  else begin
    (* Straddles a page boundary: assemble byte-wise. *)
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (load8 t (addr + i)))
    done;
    Int64.to_int !v
  end

let store64 t addr v =
  let off = addr land t.mask in
  if off + 8 <= t.psize then begin
    let page = write_page t addr in
    Bytes.set_int64_le page off (Int64.of_int v)
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
    let off = a land t.mask in
    let chunk = min (len - !i) (t.psize - off) in
    let page = read_page t a in
    Bytes.blit page off out !i chunk;
    i := !i + chunk
  done;
  out

let write_bytes t ~addr bytes =
  let len = Bytes.length bytes in
  let cows = ref 0 in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = a land t.mask in
    let chunk = min (len - !i) (t.psize - off) in
    let page = write_page t a in
    if t.last_cow then incr cows;
    Bytes.blit bytes !i page off chunk;
    i := !i + chunk
  done;
  !cows

let write_bytes_map t ~addr bytes =
  map_range t ~addr ~len:(Bytes.length bytes) Page_table.Read_write;
  ignore (write_bytes t ~addr bytes)

let fork t =
  {
    pt = Page_table.fork t.pt;
    psize = t.psize;
    shift = t.shift;
    mask = t.mask;
    last_frame = -1;
    last_cow = false;
    last_cow_old_frame = -1;
  }
