(** FIFO launch queue for the [Deferred] backend. *)

type 'a t

val create : batch:int -> 'a t
(** @raise Invalid_argument if [batch <= 0]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val ready : 'a t -> bool
(** At least one full batch is queued. *)

val take_batch : 'a t -> 'a list
(** Dequeue up to one batch, oldest first. *)

val clear : 'a t -> 'a list
(** Drop (and return) everything queued. *)
