(** Per-process page tables with copy-on-write and dirty tracking.

    This is the substrate for three paper mechanisms:
    - COW checkpointing (§3.2): {!fork} shares every frame; the first
      store through either table copies the page.
    - Soft-dirty tracking (§4.4, x86_64 path): every store sets a per-PTE
      soft-dirty bit; the runtime clears all bits at segment start and
      reads the set at segment end.
    - Map-count tracking (§4.4, AArch64 PAGEMAP_SCAN path):
      {!uniquely_mapped} reports pages whose frame is mapped exactly once
      system-wide, i.e. modified-or-new since the fork.

    Page bytes live in {!Frame}'s copy-on-write chunks. This module
    walks and copies frames at page granularity (the unit the paper and
    the sim clock charge); the chunk copy a store needs is
    {!Frame.writable_chunk}'s, done by the caller of {!store_prepare}.

    Entries live in a {!Util.Int_table} keyed by vpn, so the guest page
    walk ({!read_frame}, {!store_prepare}, {!is_mapped}) allocates
    nothing and calls no polymorphic hash or compare unless it faults
    or copies. Its iteration order is not the vpn order: every
    consumer here sorts ({!soft_dirty_pages}, {!uniquely_mapped},
    {!mapped_vpns}) or does not depend on order. *)

type t

type protection = Read_only | Read_write

exception Page_fault of { vpn : int; write : bool }
(** Raised by accessors on unmapped pages and by write accessors on
    read-only pages. The machine turns this into a SIGSEGV. *)

val create : Frame.allocator -> t
(** An empty page table drawing frames from the given allocator. *)

val allocator : t -> Frame.allocator
val page_size : t -> int

val map_zero : t -> vpn:int -> protection -> unit
(** Map a fresh zero frame at [vpn].

    @raise Invalid_argument if [vpn] is already mapped. *)

val unmap : t -> vpn:int -> unit
(** @raise Invalid_argument if [vpn] is not mapped. *)

val is_mapped : t -> vpn:int -> bool
val set_protection : t -> vpn:int -> protection -> unit

val read_frame : t -> vpn:int -> Frame.t
(** The backing frame, for reading: loads, state comparison and hashing.
    Its bytes are valid while [vpn] maps the same frame; an unmap, a COW
    write through this table or a process exit may free it. Take
    {!copy_page_at} to keep them.

    @raise Page_fault on unmapped [vpn]. *)

val store_prepare : t -> vpn:int -> Frame.t
(** [store_prepare t ~vpn] performs the write-side page walk: checks
    writability, breaks COW sharing if the frame is shared (a fresh
    frame from {!Frame.alloc_copy}), sets the soft-dirty bit, and
    returns the now exclusively owned frame. The caller writes through
    {!Frame.writable_chunk}. {!retired_frame} then tells whether a COW
    copy happened — the caller charges COW cycle cost and evicts the
    retired frame from its caches when it did. Allocates nothing unless
    it copies or faults.

    @raise Page_fault on unmapped or read-only [vpn]. *)

val retired_frame : t -> int
(** The id of the frame the last {!store_prepare} on this table retired
    by a COW copy, or [-1] if that store landed in place. *)

val copy_page_at : t -> vpn:int -> Bytes.t
(** Detached copy of the page bytes — payload extraction for the
    segment log (the live frame keeps mutating after the snapshot) and
    the offline engine's boundary compare.

    @raise Page_fault on unmapped [vpn]. *)

val fork : t -> t
(** COW fork: the child shares every frame; all refcounts increase.
    Soft-dirty bits are copied (the child inherits them, as Linux does).
    The caller charges fork cost proportional to {!mapped_count}. *)

val free_all : t -> unit
(** Drop every mapping (process exit). *)

(** {2 Dirty-page tracking} *)

val clear_soft_dirty : t -> unit
val soft_dirty_pages : t -> int array
(** Sorted array of vpns with the soft-dirty bit set. Dirty sets are
    arrays (not lists) end to end: they are produced at every segment
    boundary and consumed by merge/compare loops that want flat,
    allocation-light storage. *)

val uniquely_mapped : t -> int array
(** Sorted array of vpns whose frame has map count 1 (the PAGEMAP_SCAN
    method). *)

(** {2 Accounting} *)

val mapped_count : t -> int
val pss_bytes : t -> int
(** Proportional set size: [page_size / refcount] summed over mappings. *)

val iter_mapped : t -> (vpn:int -> Frame.t -> unit) -> unit
(** In no particular order. *)

val mapped_vpns : t -> int array
(** Sorted. *)
