(** Mutable maps from ints to values, for the per-access table of the
    guest memory path: the page table's vpn -> pte map, whose keys are
    sparse. (The cache model's keys are dense, so [Mem.Fifo_cache]
    indexes them directly instead.)

    Open addressing with linear probing from a multiplicative hash,
    backward-shift deletion and growth by doubling. {!find}, {!mem},
    {!remove}, and {!replace} of a key already bound, allocate nothing
    and call neither the polymorphic hash nor polymorphic compare;
    inserting a new key allocates only when the table grows.

    Any int but [min_int] is a key; [min_int] marks a free slot. A free
    slot's value is the [absent] value given at creation, which is also
    what {!find} returns for an unbound key, so a table needs no
    [Obj.magic] and {!find} no option. Iteration order is the slot
    order, which depends on the table's history: consumers must sort
    or not depend on it. *)

type 'a t

val create : absent:'a -> int -> 'a t
(** [create ~absent n] is an empty table with room for [n] bindings
    before it first grows. *)

val length : 'a t -> int

val mem : 'a t -> int -> bool

val find : 'a t -> int -> 'a
(** The value bound to the key, or [absent] if it is unbound. Callers
    that can bind [absent] itself must test with {!mem}. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any earlier binding.

    @raise Invalid_argument on [min_int]. *)

val remove : 'a t -> int -> unit
(** Unbind the key; no-op if it is unbound. *)

val reset : 'a t -> unit
(** Unbind every key and shrink back to the size at creation. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Visits every binding once, in slot order. The function must not
    change the table. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** As {!iter}, threading an accumulator. *)
