(** Name -> experiment dispatch for [experiments_main]. *)

type t = {
  name : string;
  title : string;
  run : unit -> unit;
}

val all : unit -> t list
val names : unit -> string list

val find : string -> t list option
(** ["all"] resolves to every paper experiment (calibration excluded). *)

val run : t -> unit
(** Prints a header, then the experiment's output. *)
