(* Regenerate the paper's tables and figures. Usage:
     experiments_main [-j N] [EXPERIMENT]
   where EXPERIMENT is all (the default) or a name from
   Experiments.Registry (--help lists them) and -j is the pool width
   (default: cores - 1). The run's settings are read here, once:
   PARALLAFT_SCALE (workload scale, a positive finite number, default
   1.0) and PARALLAFT_QUICK (1, true or yes for the reduced benchmark
   sets; unset, empty, 0, false or no for the full ones). A malformed
   value is a usage error (exit 124). PARALLAFT_QUIET silences the
   progress lines on stderr (Obs.Log). *)

open Cmdliner

(* An unset or empty variable takes [default]. *)
let setting name ~default ~expected parse =
  match Sys.getenv_opt name with
  | None | Some "" -> Ok default
  | Some s -> (
    match parse s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: expected %s, got %S" name expected s))

let scale () =
  setting "PARALLAFT_SCALE" ~default:1.0 ~expected:"a positive finite number"
    (fun s ->
      match float_of_string_opt s with
      | Some f when f > 0.0 && Float.is_finite f -> Some f
      | Some _ | None -> None)

let quick () =
  setting "PARALLAFT_QUICK" ~default:false
    ~expected:"1, true, yes, 0, false or no" (function
    | "1" | "true" | "yes" -> Some true
    | "0" | "false" | "no" -> Some false
    | _ -> None)

(* [Registry.find] matches a name exactly; cmdliner's [enum] takes prefixes. *)
let run jobs which =
  match (Experiments.Registry.find which, scale (), quick ()) with
  | None, _, _ -> `Error (true, "unknown experiment '" ^ which ^ "'")
  | _, Error msg, _ | _, _, Error msg -> `Error (false, msg)
  | Some exps, Ok scale, Ok quick ->
    Option.iter Util.Pool.set_jobs jobs;
    Obs.Log.progress "experiments: %s (%d parallel jobs)" which (Util.Pool.jobs ());
    `Ok (List.iter (Experiments.Registry.run ~scale ~quick) exps)

let jobs_arg =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ | None -> Error (`Msg ("expected a positive integer, got " ^ s))
  in
  Arg.(value & opt (some (conv (parse, Format.pp_print_int))) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Run up to $(docv) experiment tasks in parallel (default: \
                 cores - 1).")

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
