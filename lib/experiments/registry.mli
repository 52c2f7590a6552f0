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
(** ["all"] resolves to the paper's ten experiments, in print order (the
    extensions [fleet], [ablation], [backends] and [calibrate] run only
    by name). *)

val run : scale:float -> quick:bool -> t -> unit
(** Prints a header, then measures the experiment at workload [scale]
    (on [quick]'s reduced benchmark sets) and prints what it measured
    ({!Render}). *)
