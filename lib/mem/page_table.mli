(** Per-process page tables with copy-on-write and dirty tracking.

    This is the substrate for three paper mechanisms:
    - COW checkpointing (§3.2): {!fork} shares every frame; the first
      store through either table copies the page.
    - Soft-dirty tracking (§4.4, x86_64 path): every store sets a per-PTE
      soft-dirty bit; the runtime clears all bits at segment start and
      reads the set at segment end.
    - Map-count tracking (§4.4, AArch64 PAGEMAP_SCAN path):
      {!uniquely_mapped} reports pages whose frame is mapped exactly once
      system-wide, i.e. modified-or-new since the fork. *)

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
val protection : t -> vpn:int -> protection option
val set_protection : t -> vpn:int -> protection -> unit

val frame_id : t -> vpn:int -> int
(** Physical frame number backing [vpn] — the cache model's key.

    @raise Page_fault on unmapped [vpn]. *)

val read_frame : t -> vpn:int -> Frame.t
(** The backing frame, for read-only inspection (state comparison).

    @raise Page_fault on unmapped [vpn]. *)

val store_prepare : t -> vpn:int -> Bytes.t * int option
(** [store_prepare t ~vpn] performs the write-side page walk: checks
    writability, breaks COW sharing if the frame is shared, sets the
    soft-dirty bit, and returns the (now private or exclusively owned)
    page bytes together with [Some old_frame_id] iff a COW copy
    happened — the caller charges COW cycle cost and evicts the retired
    frame from its caches when it did.

    @raise Page_fault on unmapped or read-only [vpn]. *)

val read_bytes_at : t -> vpn:int -> Bytes.t
(** Page bytes for reading. The bytes are borrowed, not copied: they are
    the backing frame's buffer, which {!Frame} recycles for a new frame
    once the last mapping goes away. They are valid while [vpn] maps the
    same frame; an unmap, a COW write through this table or a process
    exit may hand them to another frame. Take {!copy_page_at} to keep
    them. Every caller reads or patches the page on the spot and keeps
    nothing: the comparator (via {!frame_view}), the final-state memory
    hash ([Stats.mem_hash], shared by the recorder and the offline
    engine), and the offline engine's boundary compare and
    [inject_bytes].

    @raise Page_fault on unmapped [vpn]. *)

val copy_page_at : t -> vpn:int -> Bytes.t
(** Detached copy of the page bytes — payload extraction for the
    segment log (the live frame keeps mutating after the snapshot).

    @raise Page_fault on unmapped [vpn]. *)

val frame_view : t -> vpn:int -> int * int * Bytes.t
(** [frame_view t ~vpn] is [(frame_id, generation, data)] for the frame
    backing [vpn] — everything the comparator needs in one walk: the id
    for the frame-identity short-circuit, the [(id, generation)] pair as
    the digest-memoization key, and the bytes for a cache miss. The
    bytes are borrowed, as for {!read_bytes_at}; the id and generation
    stay valid keys for good, since frame ids are never reused. Two live
    frames never share a buffer, so physically equal bytes still mean
    the same frame.

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
val mapped_vpns : t -> int array
(** Sorted. *)
