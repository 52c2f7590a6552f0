type protection = Read_only | Read_write

type pte = {
  mutable frame : Frame.t;
  mutable prot : protection;
  mutable soft_dirty : bool;
}

type t = {
  alloc : Frame.allocator;
  entries : pte Util.Int_table.t; (* vpn -> pte; [vacant] when unmapped *)
  mutable retired : int;
}

exception Page_fault of { vpn : int; write : bool }

(* The value of the entry table's free slots, never handed out. *)
let vacant = { frame = Frame.sentinel; prot = Read_only; soft_dirty = false }

let create alloc =
  { alloc; entries = Util.Int_table.create ~absent:vacant 256; retired = -1 }

let allocator t = t.alloc
let page_size t = Frame.page_size t.alloc

let check_unmapped t vpn =
  if Util.Int_table.mem t.entries vpn then
    invalid_arg (Printf.sprintf "Page_table: vpn %d already mapped" vpn)

let map_zero t ~vpn prot =
  check_unmapped t vpn;
  Util.Int_table.replace t.entries vpn
    { frame = Frame.alloc_zero t.alloc; prot; soft_dirty = true }

let unmap t ~vpn =
  let pte = Util.Int_table.find t.entries vpn in
  if pte == vacant then
    invalid_arg (Printf.sprintf "Page_table.unmap: vpn %d not mapped" vpn);
  Frame.decref t.alloc pte.frame;
  Util.Int_table.remove t.entries vpn

let is_mapped t ~vpn = Util.Int_table.mem t.entries vpn

let set_protection t ~vpn prot =
  let pte = Util.Int_table.find t.entries vpn in
  if pte == vacant then
    invalid_arg (Printf.sprintf "Page_table.set_protection: vpn %d not mapped" vpn);
  pte.prot <- prot

let find t vpn ~write =
  let pte = Util.Int_table.find t.entries vpn in
  if pte == vacant then raise (Page_fault { vpn; write });
  pte

let read_frame t ~vpn = (find t vpn ~write:false).frame

let store_prepare t ~vpn =
  let pte = find t vpn ~write:true in
  (match pte.prot with
  | Read_write -> ()
  | Read_only -> raise (Page_fault { vpn; write = true }));
  if pte.frame.Frame.refcount > 1 then begin
    t.retired <- pte.frame.Frame.id;
    let fresh = Frame.alloc_copy t.alloc pte.frame in
    Frame.decref t.alloc pte.frame;
    pte.frame <- fresh
  end
  else begin
    (* In-place write to an exclusively owned frame: the frame id stays
       the same while the bytes change, so the content version must
       advance to invalidate the memo model's entry. *)
    t.retired <- -1;
    Frame.bump_generation pte.frame
  end;
  pte.soft_dirty <- true;
  pte.frame

let retired_frame t = t.retired

let copy_page_at t ~vpn =
  let f = read_frame t ~vpn in
  let psize = page_size t in
  let out = Bytes.create psize in
  Frame.blit_out f ~off:0 out ~pos:0 ~len:psize;
  out

let fork t =
  let entries = Util.Int_table.create ~absent:vacant (Util.Int_table.length t.entries) in
  Util.Int_table.iter
    (fun vpn pte ->
      Frame.incref pte.frame;
      Util.Int_table.replace entries vpn
        { frame = pte.frame; prot = pte.prot; soft_dirty = pte.soft_dirty })
    t.entries;
  { alloc = t.alloc; entries; retired = -1 }

let free_all t =
  Util.Int_table.iter (fun _ pte -> Frame.decref t.alloc pte.frame) t.entries;
  Util.Int_table.reset t.entries

let clear_soft_dirty t =
  Util.Int_table.iter (fun _ pte -> pte.soft_dirty <- false) t.entries

let int_compare (a : int) (b : int) = compare a b

(* Two passes over the table (count, then fill) so the result lands in a
   right-sized array with no intermediate list — dirty sets are collected
   at every segment boundary and flow straight into the comparator. *)
let sorted_keys_where t pred =
  let n =
    Util.Int_table.fold (fun _ pte acc -> if pred pte then acc + 1 else acc) t.entries 0
  in
  let out = Array.make n 0 in
  let i = ref 0 in
  Util.Int_table.iter
    (fun vpn pte ->
      if pred pte then begin
        out.(!i) <- vpn;
        incr i
      end)
    t.entries;
  Array.sort int_compare out;
  out

let soft_dirty_pages t = sorted_keys_where t (fun pte -> pte.soft_dirty)

let uniquely_mapped t =
  sorted_keys_where t (fun pte -> pte.frame.Frame.refcount = 1)

let mapped_count t = Util.Int_table.length t.entries

let pss_bytes t =
  let psize = page_size t in
  Util.Int_table.fold
    (fun _ pte acc -> acc + (psize / pte.frame.Frame.refcount))
    t.entries 0

let iter_mapped t f = Util.Int_table.iter (fun vpn pte -> f ~vpn pte.frame) t.entries

let mapped_vpns t = sorted_keys_where t (fun _ -> true)
