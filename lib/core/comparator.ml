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

(* XXH64 of one page, streamed over its chunks. *)
let page_digest frame =
  let st = Ftr_hash.Xxh64.init () in
  Mem.Frame.hash_into st frame;
  Ftr_hash.Xxh64.digest st

let compare_states ?cache ~reference ~candidate ~dirty_vpns () =
  match compare_registers ~reference ~candidate with
  | Some m -> (Mismatch m, no_stats)
  | None ->
    let ref_pt = Mem.Address_space.page_table (Machine.Cpu.aspace reference) in
    let cand_pt = Mem.Address_space.page_table (Machine.Cpu.aspace candidate) in
    let page_size = Mem.Page_table.page_size ref_pt in
    let bytes = ref 0 in
    let skipped = ref 0 in
    let hits = ref 0 in
    let misses = ref 0 in
    let differs = ref false in
    let layout_issue = ref None in
    (* Sim-clock cost of one side's page digest: a modelled memo hit
       costs nothing, a miss (or no memo) hashes the whole page. *)
    let charge (f : Mem.Frame.t) =
      match cache with
      | None -> bytes := !bytes + page_size
      | Some c ->
        if Mem.Page_digest_cache.lookup c ~frame:f.id ~generation:f.generation then
          incr hits
        else begin
          incr misses;
          bytes := !bytes + page_size
        end
    in
    (* [k vpn reference_frame candidate_frame] for each distinct vpn
       both sides map (duplicates in a caller-supplied sorted set are
       tolerated). A vpn only one side maps stops the walk as a layout
       divergence. *)
    let walk k =
      let n = Array.length dirty_vpns in
      let i = ref 0 in
      while !layout_issue = None && !i < n do
        let vpn = dirty_vpns.(!i) in
        if !i > 0 && dirty_vpns.(!i - 1) = vpn then ()
        else begin
          match
            (Mem.Page_table.is_mapped ref_pt ~vpn, Mem.Page_table.is_mapped cand_pt ~vpn)
          with
          | false, false -> ()
          | true, false | false, true ->
            layout_issue := Some (Detection.Layout_mismatch { vpn })
          | true, true ->
            k vpn (Mem.Page_table.read_frame ref_pt ~vpn)
              (Mem.Page_table.read_frame cand_pt ~vpn)
        end;
        incr i
      done
    in
    walk (fun _ rf cf ->
        if rf == cf then
          (* Both sides still map the same COW frame: byte-identical by
             construction, so neither side reads nor hashes it. *)
          incr skipped
        else begin
          charge rf;
          charge cf;
          if not !differs then differs := not (Mem.Frame.same_bytes rf cf)
        end);
    let stats =
      {
        bytes_hashed = !bytes;
        pages_skipped_identical = !skipped;
        page_hash_hits = !hits;
        page_hash_misses = !misses;
      }
    in
    (match !layout_issue with
    | Some m -> (Mismatch m, stats)
    | None when not !differs -> (Match, stats)
    | None ->
      (* Some page differs: fold each side's segment hash over (vpn,
         page digest) of the same vpns, so the reported hashes are the
         ones a hashing runtime compares. *)
      let ref_state = Ftr_hash.Xxh64.init () in
      let cand_state = Ftr_hash.Xxh64.init () in
      let mix state vpn frame =
        Ftr_hash.Xxh64.update_int64 state (Int64.of_int vpn);
        Ftr_hash.Xxh64.update_int64 state (page_digest frame)
      in
      walk (fun vpn rf cf ->
          if rf != cf then begin
            mix ref_state vpn rf;
            mix cand_state vpn cf
          end);
      let expected_hash = Ftr_hash.Xxh64.digest ref_state
      and got_hash = Ftr_hash.Xxh64.digest cand_state in
      if Int64.equal expected_hash got_hash then (Match, stats)
      else (Mismatch (Detection.Memory_mismatch { expected_hash; got_hash }), stats))
