type result =
  | Match
  | Mismatch of Detection.mismatch

type compare_stats = {
  bytes_hashed : int;
  pages_skipped_identical : int;
  page_hash_hits : int;
  page_hash_misses : int;
}

let no_stats =
  {
    bytes_hashed = 0;
    pages_skipped_identical = 0;
    page_hash_hits = 0;
    page_hash_misses = 0;
  }

(* Merge two sorted vpn arrays into a fresh sorted duplicate-free array.
   A single linear pass into a worst-case-sized buffer; the [push]
   dedup also tolerates duplicates inside either input. *)
let union_sorted a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 && lb = 0 then [||]
  else begin
    let out = Array.make (la + lb) 0 in
    let k = ref 0 in
    let push v =
      if !k = 0 || out.(!k - 1) <> v then begin
        out.(!k) <- v;
        incr k
      end
    in
    let i = ref 0 and j = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin
        push x;
        incr i
      end
      else if y < x then begin
        push y;
        incr j
      end
      else begin
        push x;
        incr i;
        incr j
      end
    done;
    while !i < la do
      push a.(!i);
      incr i
    done;
    while !j < lb do
      push b.(!j);
      incr j
    done;
    if !k = la + lb then out else Array.sub out 0 !k
  end

let compare_registers ~reference ~candidate =
  let ref_regs = Machine.Cpu.snapshot_regs reference in
  let cand_regs = Machine.Cpu.snapshot_regs candidate in
  let n = Array.length ref_regs in
  let rec scan i =
    if i >= n then begin
      let ref_pc = Machine.Cpu.get_pc reference in
      let cand_pc = Machine.Cpu.get_pc candidate in
      if ref_pc <> cand_pc then
        Some (Detection.Register_mismatch { reg = -1; expected = ref_pc; got = cand_pc })
      else None
    end
    else if cand_regs.(i) <> ref_regs.(i) then
      Some
        (Detection.Register_mismatch
           { reg = i; expected = ref_regs.(i); got = cand_regs.(i) })
    else scan (i + 1)
  in
  scan 0

let compare_states ?cache ~reference ~candidate ~dirty_vpns () =
  match compare_registers ~reference ~candidate with
  | Some m -> (Mismatch m, no_stats)
  | None ->
    let ref_pt = Mem.Address_space.page_table (Machine.Cpu.aspace reference) in
    let cand_pt = Mem.Address_space.page_table (Machine.Cpu.aspace candidate) in
    let ref_state = Ftr_hash.Xxh64.init () in
    let cand_state = Ftr_hash.Xxh64.init () in
    let bytes = ref 0 in
    let skipped = ref 0 in
    let hits = ref 0 in
    let misses = ref 0 in
    let layout_issue = ref None in
    (* The digest of one side of one vpn, through the memo when one is
       supplied. Only misses read and hash page bytes. *)
    let side_digest (frame, generation, data) =
      let hash () =
        bytes := !bytes + Bytes.length data;
        Ftr_hash.Xxh64.hash data
      in
      match cache with
      | None -> hash ()
      | Some c -> (
        match Mem.Page_digest_cache.find c ~frame ~generation with
        | Some d ->
          incr hits;
          d
        | None ->
          incr misses;
          let d = hash () in
          Mem.Page_digest_cache.store c ~frame ~generation d;
          d)
    in
    (* Each side's running hash folds the vpn and that side's page
       digest (never raw bytes). *)
    let mix state vpn view =
      Ftr_hash.Xxh64.update_int64 state (Int64.of_int vpn);
      Ftr_hash.Xxh64.update_int64 state (side_digest view)
    in
    let n = Array.length dirty_vpns in
    let i = ref 0 in
    while !layout_issue = None && !i < n do
      let vpn = dirty_vpns.(!i) in
      (* Tolerate duplicates in a caller-supplied sorted set. *)
      if !i > 0 && dirty_vpns.(!i - 1) = vpn then ()
      else begin
        let ref_mapped = Mem.Page_table.is_mapped ref_pt ~vpn in
        let cand_mapped = Mem.Page_table.is_mapped cand_pt ~vpn in
        match (ref_mapped, cand_mapped) with
        | false, false -> ()
        | true, false | false, true ->
          layout_issue := Some (Detection.Layout_mismatch { vpn })
        | true, true ->
          let ((_, _, ref_data) as ref_view) =
            Mem.Page_table.frame_view ref_pt ~vpn
          in
          let ((_, _, cand_data) as cand_view) =
            Mem.Page_table.frame_view cand_pt ~vpn
          in
          if ref_data == cand_data then
            (* Both sides still map the same COW frame (physical identity
               of the backing bytes — frame ids are only unique within
               one allocator): byte-identical by construction. Skipping
               it on both sides leaves the two running hashes in
               lockstep, so the verdict is unchanged. *)
            incr skipped
          else begin
            mix ref_state vpn ref_view;
            mix cand_state vpn cand_view
          end
      end;
      incr i
    done;
    let stats () =
      {
        bytes_hashed = !bytes;
        pages_skipped_identical = !skipped;
        page_hash_hits = !hits;
        page_hash_misses = !misses;
      }
    in
    (match !layout_issue with
    | Some m -> (Mismatch m, stats ())
    | None ->
      let expected_hash = Ftr_hash.Xxh64.digest ref_state
      and got_hash = Ftr_hash.Xxh64.digest cand_state in
      if Int64.equal expected_hash got_hash then (Match, stats ())
      else (Mismatch (Detection.Memory_mismatch { expected_hash; got_hash }), stats ()))
