(** Program-state comparison (§3.3, §4.4).

    At the end of a segment the checker's architectural state must equal
    the checkpoint taken when the main process crossed the same
    boundary. Registers (including the pc) are compared directly; memory
    is compared over the modified pages on each side. The paper's
    runtime hashes those pages in each process — the "injected hasher"
    trick that avoids copying page contents between processes — and
    compares only the 64-bit segment digests; the sim clock charges that
    hashing, while the host decides equality on the bytes it shares:

    - {e Frame-identity short-circuit}: a vpn where both sides still map
      the same COW frame is byte-identical by construction and skipped
      entirely (no read, no hash, no charge).
    - {e Chunk-wise equality}: for the remaining vpns the two frames are
      compared chunk by chunk ({!Mem.Frame.same_bytes}): chunks both
      frames still hold are equal without a read, the rest are compared
      with [Bytes.equal].
    - {e Modelled digest memo}: each side of each remaining vpn is one
      hit-or-miss call on an optional [(frame id, generation)] residency
      model ({!Mem.Page_digest_cache}); a miss, or no model, charges a
      whole page to [bytes_hashed], a hit charges nothing.
    - Only when some page differs are the two segment hashes folded over
      (vpn, XXH64 of the page) of the same vpns, so a
      [Memory_mismatch] carries the digests a hashing runtime compares.
      Cached and uncached calls therefore return identical verdicts.

    Comparing a superset of the truly modified pages is sound; pages
    missing from one side's address space are a layout divergence and
    reported as a mismatch in their own right. *)

type result =
  | Match
  | Mismatch of Detection.mismatch

(** Work accounting for one [compare_states] call, on the sim clock.
    [bytes_hashed] counts the page bytes the modelled runtime reads and
    hashes (the injected hasher's simulated cost); identity-skipped
    pages and memo hits contribute nothing to it. *)
type compare_stats = {
  bytes_hashed : int;
  pages_skipped_identical : int;  (** vpns skipped: same frame both sides *)
  page_hash_hits : int;  (** modelled memo hits *)
  page_hash_misses : int;  (** modelled memo misses: a page hashed *)
}

val compare_states :
  ?cache:Mem.Page_digest_cache.t ->
  reference:Machine.Cpu.t ->
  candidate:Machine.Cpu.t ->
  dirty_vpns:int array ->
  unit ->
  result * compare_stats
(** [compare_states ?cache ~reference ~candidate ~dirty_vpns ()]
    returns the verdict and the work accounting. [dirty_vpns] must be
    sorted; duplicates are tolerated. Without [cache] every non-identical
    page is charged as hashed from scratch (same verdicts, more bytes). Register
    comparison runs first and stops at the first divergent register — a
    register mismatch is reported without touching memory. *)

val union_sorted : int array -> int array -> int array
(** Merge two sorted vpn arrays, removing duplicates — for combining the
    main-side and checker-side dirty sets. *)
