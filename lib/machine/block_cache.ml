(* Per-CPU decoded-block cache (DESIGN.md §15).

   Entries are keyed by entry pc; validity is generation-based: each
   entry snapshots the generation counters of the code pages it decodes
   from, and a lookup that finds any of them bumped (a patch_code
   landed on the span) drops the entry and reports an invalidation.
   Capacity is bounded by a Mem.Fifo_cache of resident entry pcs whose
   eviction victims clear the direct-mapped slot table. *)

(* [found] is [Some block], built once at admission so that a hit
   allocates nothing. *)
type entry = {
  block : Isa.Decoded.block;
  found : Isa.Decoded.block option;
  gens : int array;
}

type t = {
  slots : entry option array; (* indexed by entry pc *)
  resident : Mem.Fifo_cache.t;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

let create ~capacity ~code_len =
  if capacity <= 0 then invalid_arg "Block_cache.create: capacity <= 0";
  (* Entries are keyed by entry pc, so at most [code_len] can ever be
     resident: clamping the FIFO to that changes no eviction decision
     (a FIFO at or above the distinct-key count never evicts) but keeps
     creation cost proportional to the program, not the configured
     capacity — CPUs are created per fork and per checker. *)
  let capacity = Int.min capacity (Int.max 1 code_len) in
  {
    slots = Array.make (Int.max 1 code_len) None;
    resident = Mem.Fifo_cache.create ~capacity;
    hits = 0;
    misses = 0;
    invalidations = 0;
  }

(* Whether a spanned code page's generation moved since [snap] was
   taken. Closed, so a lookup builds no closure; the [int array]
   annotations make [<>] an integer compare instead of a C call to
   polymorphic [caml_notequal]. *)
let rec stale (snap : int array) ~(gens : int array) ~first i =
  if i >= Array.length snap then false
  else if snap.(i) <> gens.(first + i) then true
  else stale snap ~gens ~first (i + 1)

let drop t pc =
  Mem.Fifo_cache.remove t.resident pc;
  t.slots.(pc) <- None

let lookup t ~gens ~nondet_trap ~entry =
  match t.slots.(entry) with
  | None ->
    t.misses <- t.misses + 1;
    None
  | Some e ->
    if stale e.gens ~gens ~first:e.block.Isa.Decoded.first_page 0 then begin
      t.invalidations <- t.invalidations + 1;
      t.misses <- t.misses + 1;
      drop t entry;
      None
    end
    else if e.block.Isa.Decoded.nondet_trap <> nondet_trap then begin
      (* Not a code write — just a trap-mode flip; re-decode silently. *)
      t.misses <- t.misses + 1;
      drop t entry;
      None
    end
    else begin
      t.hits <- t.hits + 1;
      e.found
    end

let admit t ~gens (block : Isa.Decoded.block) =
  let pc = block.Isa.Decoded.entry in
  let victim = Mem.Fifo_cache.admit t.resident pc in
  if victim >= 0 then t.slots.(victim) <- None;
  let n = block.Isa.Decoded.last_page - block.Isa.Decoded.first_page + 1 in
  let snap = Array.init n (fun i -> gens.(block.Isa.Decoded.first_page + i)) in
  t.slots.(pc) <- Some { block; found = Some block; gens = snap }

(* The CPU's in-place self-loop re-execution reuses a block without
   going back through [lookup]; it still counts as a hit — the entry
   would have been found valid, since code cannot change mid-run. *)
let note_hit t = t.hits <- t.hits + 1

let hits t = t.hits
let misses t = t.misses
let invalidations t = t.invalidations
