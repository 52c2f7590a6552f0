(** Dirty-page tracking backends (§4.4).

    [Soft_dirty] is the Linux x86_64 mechanism: clear all PTE dirty bits
    at segment start, read the set at segment end. [Map_count] is the
    modified-PAGEMAP_SCAN mechanism the paper uses on Apple Silicon: a
    page whose frame is mapped exactly once is private, hence modified
    or new since the fork — no clearing step exists or is needed.
    [Full_compare] is the ablation that reports every mapped page. *)

val clear : Config.dirty_backend -> Mem.Page_table.t -> unit
(** Reset tracking state at a segment start (a no-op for [Map_count]
    and [Full_compare]). *)

val collect : Config.dirty_backend -> Mem.Page_table.t -> int array
(** Sorted, duplicate-free vpn array considered modified. Both real
    backends return a superset of the truly modified pages, which is
    safe: comparing an unmodified page cannot produce a false
    mismatch. *)
