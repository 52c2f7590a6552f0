(** Program-state comparison (§3.3, §4.4).

    At the end of a segment the checker's architectural state must equal
    the checkpoint taken when the main process crossed the same
    boundary. Registers (including the pc) are compared directly; memory
    is compared over the modified pages on each side. The paper's
    runtime hashes those pages in each process — the "injected hasher"
    trick that avoids copying page contents between processes — and
    compares only the 64-bit segment digests. That runtime sees neither
    frame identity nor COW sharing, so the sim clock charges one page
    hash per side for every vpn in the compare set that both sides map.
    The host decides equality on the bytes it shares, and its shortcuts
    decide only the verdict, never the charge:

    - {e Frame-identity short-circuit}: a vpn where both sides still map
      the same COW frame is byte-identical by construction, so the host
      reads neither side.
    - {e Chunk-wise equality}: for the remaining vpns the two frames are
      compared chunk by chunk ({!Mem.Frame.same_bytes}): chunks both
      frames still hold are equal without a read, the rest are compared
      with [Bytes.equal].
    - Only when some page differs are the two segment hashes folded over
      (vpn, XXH64 of the page) of every compared vpn, for the
      [Memory_mismatch] report: the digests a runtime that hashes every
      compared page in each process would report.

    Comparing a superset of the truly modified pages is sound; pages
    missing from one side's address space are a layout divergence and
    reported as a mismatch in their own right. *)

type result =
  | Match
  | Mismatch of Detection.mismatch

(** Work accounting for one [compare_states] call, on the sim clock.
    [bytes_hashed] counts the page bytes the modelled runtime reads and
    hashes (the injected hasher's simulated cost): two pages for every
    compared vpn, identity-skipped ones included. *)
type compare_stats = {
  bytes_hashed : int;
  pages_skipped_identical : int;
      (** compared vpns the host skipped: same frame both sides *)
}

val compare_states :
  reference:Machine.Cpu.t ->
  candidate:Machine.Cpu.t ->
  dirty_vpns:int array ->
  result * compare_stats
(** [compare_states ~reference ~candidate ~dirty_vpns] returns the
    verdict and the work accounting. [dirty_vpns] must be sorted;
    duplicates are tolerated. Register comparison runs first and stops
    at the first divergent register — a register mismatch is reported
    without touching memory. *)

val union_sorted : int array -> int array -> int array
(** Merge two sorted vpn arrays, removing duplicates — for combining the
    main-side and checker-side dirty sets. *)
