(** Per-CPU decoded-block cache (DESIGN.md §15).

    Maps entry pc -> {!Isa.Decoded.block}, validated by code-page
    generation snapshots: a [patch_code] bumps the written page's
    generation, and the next lookup of any block spanning that page
    drops it and counts an {!invalidations}. Residency is bounded by a
    {!Mem.Fifo_cache}. Purely a performance structure: nothing
    architectural depends on what is resident. *)

type t

val create : capacity:int -> code_len:int -> t
(** At most [code_len] and {!Mem.Fifo_cache.max_capacity} blocks are
    resident, whatever [capacity] asks for.
    @raise Invalid_argument if [capacity <= 0]. *)

val lookup :
  t -> gens:int array -> nondet_trap:bool -> entry:int -> Isa.Decoded.block option
(** [gens] is the CPU's live code-page generation array; a stale entry
    (any spanned page's generation moved) is dropped and counted as
    both a miss and an invalidation. A trap-mode mismatch ([nondet_trap]
    flipped since decode) is dropped as a plain miss. *)

val admit : t -> gens:int array -> Isa.Decoded.block -> unit
(** Insert a freshly decoded block, snapshotting the generations of the
    pages it spans; may evict a random resident to stay in capacity. *)

val note_hit : t -> unit
(** Credit a hit without a slot probe: the CPU's tight self-loop path
    re-executes a resident block in place, where a [lookup] would
    necessarily have succeeded (code cannot change mid-run). *)

val hits : t -> int
val misses : t -> int

val invalidations : t -> int
(** Stale entries dropped because a spanned code page was patched. *)
