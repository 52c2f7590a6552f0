(** Simulated checker-node pool for the [Remote_sim] backend: nodes the
    chaos campaign can crash or stall, each rebooting at a deadline.
    {!pick} dispatches round-robin over healthy nodes and force-reboots
    the earliest-recovering node when the whole pool is down, so
    dispatch always succeeds. *)

type t

val create : nodes:int -> t
(** @raise Invalid_argument if [nodes <= 0]. *)

val crash : t -> int -> until_ns:int -> unit
val stall : t -> int -> until_ns:int -> unit

val tick : t -> now_ns:int -> unit
(** Reboot every node whose deadline passed. *)

val pick : t -> now_ns:int -> int
(** Choose a node for a dispatch (ticks first). *)
