(** Imperative code generation with labels and back-patching.

    The workload generators construct programs through this builder rather
    than computing instruction indices by hand. Forward references are
    emitted with a placeholder target and patched when the label is
    placed. *)

type t

type label

val create : unit -> t

val fresh_label : t -> label
(** A label that may be referenced before it is placed. *)

val place : t -> label -> unit
(** [place b l] binds [l] to the current emission position.

    @raise Invalid_argument if [l] was already placed. *)

val here : t -> label
(** [here b] is [fresh_label] immediately [place]d. *)

val emit : t -> Insn.t -> unit
(** Append one instruction (no label resolution involved). *)

val pos : t -> int
(** Index the next emitted instruction will get. *)

(** {2 Label-resolving control flow} *)

val branch : t -> Insn.cond -> Insn.reg -> Insn.reg -> label -> unit
val jump : t -> label -> unit

(** {2 Convenience emitters} *)

val li : t -> Insn.reg -> int -> unit
val mov : t -> Insn.reg -> Insn.reg -> unit
val alu : t -> Insn.alu_op -> Insn.reg -> Insn.reg -> Insn.operand -> unit
val load : t -> Insn.reg -> Insn.reg -> int -> unit
val store : t -> Insn.reg -> Insn.reg -> int -> unit
val syscall : t -> unit
val halt : t -> unit
val nop : t -> unit

val loop : t -> count_reg:Insn.reg -> times:int -> (unit -> unit) -> unit
(** [loop b ~count_reg ~times body] emits a counted loop running [body]
    [times] times, using [count_reg] as the induction variable (clobbered).
    [times = 0] emits nothing but still clobbers [count_reg]. *)

val build :
  name:string ->
  ?data:Program.data_segment list ->
  ?initial_brk:int ->
  t ->
  Program.t
(** Resolve all label references and produce the program.

    @raise Invalid_argument if any referenced label was never placed. *)
