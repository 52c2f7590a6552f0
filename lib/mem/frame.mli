(** Physical page frames.

    A frame is one page of backing store plus a reference count: the
    number of page-table entries (across all processes) that map it.
    Copy-on-write works exactly as in the kernel: [fork] bumps refcounts,
    and the first store through any mapping of a frame with
    [refcount > 1] copies it (see {!Page_table.store_prepare}).

    The map count is also the basis of the paper's AArch64 dirty-page
    tracking (§4.4): a page mapped exactly once is private to its process
    and hence modified-or-new since the last fork.

    Frame ids are never reused, but page buffers are. When {!decref}
    frees a frame, its [data] goes on the allocator's spare list, and
    the next {!alloc_zero} or {!alloc_copy} overwrites it in full for a
    new frame with a new id. So any key derived from a frame's identity
    stays valid for its lifetime, while its bytes must not be read after
    it is freed. The spare list never holds more buffers than the
    allocator has live frames. *)

type t = private {
  id : int;  (** unique physical frame number *)
  data : Bytes.t;
  mutable refcount : int;
  mutable generation : int;
      (** content version: bumped by {!Page_table.store_prepare} on every
          in-place write to an exclusively owned frame. Because frame ids
          are never reused, [(id, generation)] is a stable key for the
          frame's byte contents — the comparator memoizes per-page
          digests under it. *)
}

type allocator
(** Allocates frames and tracks global statistics. *)

val allocator : page_size:int -> allocator
(** [allocator ~page_size] builds a fresh allocator.

    @raise Invalid_argument if [page_size] is not a positive multiple
    of 8. *)

val page_size : allocator -> int

val alloc_zero : allocator -> t
(** A fresh zero-filled frame with [refcount = 1], on a recycled buffer
    when one is spare. *)

val alloc_copy : allocator -> t -> t
(** [alloc_copy a f] is a fresh frame whose contents copy [f], with
    [refcount = 1], on a recycled buffer when one is spare. Counts toward
    {!copies} (the COW statistic). *)

val incref : t -> unit
(** Add one reference to a live frame.

    @raise Invalid_argument if the frame was already freed: its buffer
    may back a newer frame by now. *)

val decref : allocator -> t -> unit
(** Drop one reference; at zero the frame is accounted as freed and its
    buffer becomes spare.

    @raise Invalid_argument if the refcount is already zero. *)

val bump_generation : t -> unit
(** Advance the content version. Called by the write-side page walk when
    the store lands in place (no COW copy), invalidating any memoized
    digest of the old contents. *)

(** {2 Statistics} *)

val live_frames : allocator -> int
val copies : allocator -> int
(** Number of [alloc_copy] calls so far — i.e. COW page copies. *)

val spare_buffers : allocator -> int
(** Buffers of freed frames waiting for reuse; at most {!live_frames}. *)
