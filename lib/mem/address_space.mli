(** Byte-addressed view of a process page table.

    The interpreter performs all loads and stores through this module.
    Values are little-endian. An access walks the page table once
    ({!Page_table.read_frame} or {!Page_table.store_prepare}, neither of
    which allocates) and then indexes the {!Frame} chunk the address
    lands in; a store copies that chunk first when it is shared
    ({!Frame.writable_chunk}). A 64-bit load that straddles a chunk (or
    page) boundary is assembled byte-wise; a 64-bit store that straddles
    a chunk boundary inside a page still walks the page once and writes
    both chunks, and one that straddles a page boundary is stored
    byte-wise (slow paths).

    To avoid allocating a result record on every memory instruction, the
    two facts the timing model needs from an access are exposed as fields
    the accessors overwrite each time:
    - {!last_frame} — the physical frame id touched (cache-model key);
    - {!last_cow} — whether this store broke COW sharing (the machine
      charges the COW page-copy cost when it did).
    Both refer to the most recent access on this address space only. *)

type t

exception
  Segfault of {
    addr : int;
    write : bool;
  }
(** Byte-addressed counterpart of {!Page_table.Page_fault}. *)

val create : Frame.allocator -> t
val page_table : t -> Page_table.t
val page_size : t -> int

val vpn_of_addr : t -> int -> int

val last_frame : t -> int
val last_cow : t -> bool

val last_cow_old_frame : t -> int
(** The frame id the last COW retired from this address space (only
    meaningful immediately after a store with [last_cow = true]). *)

(** {2 Mapping} *)

val map_range : t -> addr:int -> len:int -> Page_table.protection -> unit
(** Map zero pages covering [\[addr, addr+len)]. Pages already mapped in
    the range are left untouched (mmap-over semantics are handled by the
    kernel, which unmaps first when required). [len = 0] is a no-op. *)

val unmap_range : t -> addr:int -> len:int -> unit
(** Unmap every mapped page intersecting the range. *)

(** {2 Access (raise {!Segfault} on unmapped/read-only pages)} *)

val load64 : t -> int -> int
val store64 : t -> int -> int -> unit
val load8 : t -> int -> int
val store8 : t -> int -> int -> unit

val read_bytes : t -> addr:int -> len:int -> Bytes.t
(** Copy out [len] bytes (syscall argument capture). *)

val write_bytes : t -> addr:int -> Bytes.t -> int
(** Copy bytes in through the normal store path (syscall result replay);
    returns the number of COW page copies it caused. *)

val write_bytes_map : t -> addr:int -> Bytes.t -> unit
(** Loader path: like {!write_bytes} but maps missing pages read-write. *)

val fork : t -> t
