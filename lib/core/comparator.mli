(** Program-state comparison (§3.3, §4.4).

    At the end of a segment the checker's architectural state must equal
    the checkpoint taken when the main process crossed the same
    boundary. Registers (including the pc) are compared directly; memory
    is compared by hashing the contents of the modified pages on each
    side — the "injected hasher" trick that avoids copying page contents
    between processes — and comparing only the 64-bit digests.

    The memory walk is O(truly-diverged-bytes), not O(dirty-set-bytes):

    - {e Frame-identity short-circuit}: a vpn where both sides still map
      the same COW frame (physical identity of the backing bytes) is
      byte-identical by construction and skipped entirely (no read, no
      hash) — skipping symmetrically leaves both running hashes in
      lockstep, so verdicts are unchanged.
    - {e Memoized per-frame digests}: for the remaining vpns, whole-page
      digests are looked up in an optional
      [(frame id, generation) -> digest] cache
      ({!Mem.Page_digest_cache}); only misses read and hash page bytes.
      The segment hash folds per-page {e digests} (never raw bytes), so
      cached and uncached runs compute identical segment hashes and hence
      identical verdicts.

    Comparing a superset of the truly modified pages is sound; pages
    missing from one side's address space are a layout divergence and
    reported as a mismatch in their own right. *)

type result =
  | Match
  | Mismatch of Detection.mismatch

(** Work accounting for one [compare_states] call. [bytes_hashed] counts
    page bytes actually read and hashed (the injected hasher's simulated
    cost); identity-skipped pages and digest-cache hits contribute
    nothing to it. *)
type compare_stats = {
  bytes_hashed : int;
  pages_skipped_identical : int;  (** vpns skipped: same frame both sides *)
  page_hash_hits : int;  (** per-frame digests served from the memo *)
  page_hash_misses : int;  (** per-frame digests computed from bytes *)
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
    page is hashed from scratch (same verdicts, more bytes). Register
    comparison runs first and stops at the first divergent register — a
    register mismatch is reported without touching memory. *)

val union_sorted : int array -> int array -> int array
(** Merge two sorted vpn arrays, removing duplicates — for combining the
    main-side and checker-side dirty sets. *)
