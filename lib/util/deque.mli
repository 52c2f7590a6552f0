(** Work-stealing double-ended queue (fleet checker scheduling).

    Owner discipline is LIFO at the back ({!push_back}/{!pop_back}):
    the most recently enqueued checker has the warmest cache affinity
    with its home core. Thieves take FIFO from the front
    ({!steal_front}): the oldest queued checker has waited longest, so
    stealing it bounds detection latency.

    Mutex-guarded, not lock-free: under the simulated clock all
    scheduling is serialized, so the lock only matters for safety when
    tests drive a deque from several domains. *)

type 'a t

val create : unit -> 'a t

val push_back : 'a t -> 'a -> unit
(** Owner push: [x] becomes the newest (back) element. *)

val push_front : 'a t -> 'a -> unit
(** Put back at the head: [x] becomes the oldest (front) element, the
    next one {!steal_front} takes. *)

val pop_back : 'a t -> 'a option
(** Owner pop: removes and returns the newest element. *)

val steal_front : 'a t -> 'a option
(** Thief take: removes and returns the oldest element. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val to_list : 'a t -> 'a list
(** Oldest (front) first. *)

val remove_where : 'a t -> ('a -> bool) -> 'a list
(** Remove every element matching the predicate, preserving the order
    of the survivors; returns the removed elements oldest-first. *)
