(** Name -> experiment dispatch for [experiments_main], which reads the
    run's settings (workload scale, quick benchmark subset) once and
    passes them to {!run}. *)

type t = {
  name : string;
  title : string;
  run : scale:float -> quick:bool -> unit;
}

val names : unit -> string list

val find : string -> t list option
(** ["all"] resolves to every paper experiment (calibration excluded). *)

val run : scale:float -> quick:bool -> t -> unit
(** Prints a header, then the experiment's output at workload [scale]
    (on [quick]'s reduced benchmark sets). *)
