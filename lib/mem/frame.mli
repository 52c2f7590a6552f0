(** Physical page frames, stored as copy-on-write chunks.

    A frame is one page of backing store plus a reference count: the
    number of page-table entries (across all processes) that map it.
    Copy-on-write works exactly as in the kernel: [fork] bumps refcounts,
    and the first store through any mapping of a frame with
    [refcount > 1] copies it (see {!Page_table.store_prepare}).

    The map count is also the basis of the paper's AArch64 dirty-page
    tracking (§4.4): a page mapped exactly once is private to its process
    and hence modified-or-new since the last fork.

    The host stores a page's bytes as fixed-size chunks (2 KiB, or the
    whole page when the page size is not a multiple of that), each with
    its own reference count: the number of frame slots holding it.
    {!alloc_copy} copies only the chunk array and bumps the counts, and a
    store copies the one chunk it lands in, and only when that chunk is
    shared ({!writable_chunk}). A fresh zero frame points every slot at
    one read-only zero chunk per allocator. So a frame copy that is then
    written once costs one chunk copy, not a page copy. The simulated
    clock is unaware of this: it still charges a full-page COW.

    Frame ids are never reused, but chunks are. When {!decref} frees a
    frame, every chunk whose count drops to zero goes on the allocator's
    spare list, and the next chunk copy overwrites one in full. So any
    key derived from a frame's identity stays valid for its lifetime,
    while its bytes must not be read after it is freed. The spare list
    never holds more chunks than the allocator has live chunks. *)

type chunk = private {
  bytes : Bytes.t;  (** [chunk_bytes] long; never written while shared *)
  mutable refs : int;
      (** frame slots holding this chunk; the zero chunk counts one
          more, for the allocator *)
}

type t = private {
  id : int;  (** unique physical frame number *)
  chunks : chunk array;
      (** the page's bytes in order, [page_size / chunk_bytes] chunks;
          read-only outside this module *)
  mutable refcount : int;
}

type allocator
(** Allocates frames and chunks and tracks global statistics. *)

val allocator : page_size:int -> allocator
(** [allocator ~page_size] builds a fresh allocator.

    @raise Invalid_argument if [page_size] is not a positive multiple
    of 8. *)

val page_size : allocator -> int

val chunk_bytes : allocator -> int
(** Length of every chunk: 2 KiB when it divides the page size, else
    the page size. *)

val alloc_zero : allocator -> t
(** A fresh zero-filled frame with [refcount = 1]: every slot holds the
    shared zero chunk. *)

val alloc_copy : allocator -> t -> t
(** [alloc_copy a f] is a fresh frame with the contents of [f] and
    [refcount = 1]. It shares every chunk of [f] and copies no bytes.
    Counts toward {!copies} (the COW statistic). *)

val sentinel : t
(** A frame no allocator hands out: id [-1], no chunks, refcount 0, so
    {!incref} and {!decref} reject it. Tables keep it in free slots. *)

val incref : t -> unit
(** Add one reference to a live frame.

    @raise Invalid_argument if the frame was already freed: its chunks
    may back a newer frame by now. *)

val decref : allocator -> t -> unit
(** Drop one reference; at zero the frame is accounted as freed and each
    of its chunks loses a reference.

    @raise Invalid_argument if the refcount is already zero. *)

(** {2 Bytes} *)

val writable_chunk : allocator -> t -> int -> Bytes.t
(** [writable_chunk a f i] is the bytes of chunk [i] for writing. If the
    chunk is shared (with another frame, or the zero chunk) it is first
    replaced by a private copy. [f] must be exclusively owned
    ([refcount = 1]), which the write-side page walk guarantees. *)

val blit_out : t -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** [blit_out f ~off dst ~pos ~len] copies page bytes [\[off, off+len)]
    to [dst] at [pos]. *)

val blit_in : allocator -> Bytes.t -> pos:int -> t -> off:int -> len:int -> unit
(** [blit_in a src ~pos f ~off ~len] copies [len] bytes of [src] from
    [pos] into the page at [off], through {!writable_chunk}.

    @raise Invalid_argument if [f] is shared ([refcount <> 1]). *)

val hash_into : Ftr_hash.Xxh64.state -> t -> unit
(** Feed the page's bytes, chunk by chunk, to a streaming XXH64 state:
    the digest equals XXH64 over the whole page. *)

val same_bytes : t -> t -> bool
(** Equal page contents, decided chunk by chunk: a chunk both frames
    hold is equal without a read; the rest are compared with
    [Bytes.equal]. *)

(** {2 Statistics} *)

val live_frames : allocator -> int
val copies : allocator -> int
(** Number of [alloc_copy] calls so far — i.e. COW page copies. *)

val live_chunks : allocator -> int
(** Chunks held by at least one frame, the zero chunk excluded. *)

val spare_chunks : allocator -> int
(** Chunks of freed frames waiting for reuse; at most {!live_chunks}. *)
