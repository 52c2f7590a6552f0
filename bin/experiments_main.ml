(* Regenerate the paper's tables and figures. Usage:
     experiments_main [-j N] [EXPERIMENT]
   where EXPERIMENT is all (the default) or a name from
   Experiments.Registry (--help lists them). Environment:
   PARALLAFT_SCALE (workload scale, default 1.0), PARALLAFT_QUICK=1
   (reduced benchmark sets), PARALLAFT_JOBS (parallel experiment tasks;
   -j overrides; default: cores - 1). *)

open Cmdliner

(* [Registry.find] matches a name exactly; cmdliner's [enum] takes prefixes. *)
let run jobs which =
  match Experiments.Registry.find which with
  | None -> `Error (true, "unknown experiment '" ^ which ^ "'")
  | Some exps ->
    Option.iter Util.Pool.set_jobs jobs;
    Obs.Log.progress "experiments: %s (%d parallel jobs)" which (Util.Pool.jobs ());
    `Ok (List.iter Experiments.Registry.run exps)

let jobs_arg =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ | None -> Error (`Msg ("expected a positive integer, got " ^ s))
  in
  Arg.(value & opt (some (conv (parse, Format.pp_print_int))) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Run up to $(docv) experiment tasks in parallel (overrides \
                 PARALLAFT_JOBS; default: cores - 1).")

let experiment_arg =
  let names = "all" :: Experiments.Registry.names () in
  Arg.(value & pos 0 string "all"
       & info [] ~docv:"EXPERIMENT"
           ~doc:("The experiment to run: " ^ String.concat ", " names
                ^ ". $(b,all) is every paper experiment."))

let () =
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "experiments_main"
             ~doc:"Regenerate the paper's tables and figures (simulated)")
          Term.(ret (const run $ jobs_arg $ experiment_arg))))
