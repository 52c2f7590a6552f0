(* Calibration report: per benchmark, the big-core baseline duration, the
   little-core slowdown (the quantity that decides whether four little
   checkers can keep up with one big main, §4.5), and the memory
   character. Not a paper figure, but the evidence behind the workload
   parameter choices — see DESIGN.md. *)

let run_on_core ~platform ~seed ~core program =
  let eng = Sim_os.Engine.create ~platform ~seed () in
  let pid = Sim_os.Engine.spawn eng ~program ~core () in
  Sim_os.Engine.run ~max_ns:Parallaft.Config.max_sim_ns eng;
  let st = Sim_os.Engine.proc_stats eng pid in
  (st.Sim_os.Engine.ended_ns - st.Sim_os.Engine.started_ns, eng, pid)

let run ~platform ~scale =
  Printf.printf "## Calibration (%s, scale %.2f)\n\n" platform.Platform.name scale;
  let rows =
    List.map
      (fun bench ->
        let programs =
          Workloads.Spec.programs bench ~page_size:platform.Platform.page_size
            ~scale
        in
        let program = List.hd programs in
        let big_wall, eng, pid = run_on_core ~platform ~seed:1L ~core:0 program in
        let little_core =
          match Sim_os.Engine.little_cores eng with
          | c :: _ -> c
          | [] -> 0
        in
        ignore pid;
        let little_wall, _, _ =
          run_on_core ~platform ~seed:1L ~core:little_core program
        in
        let data_pages =
          List.fold_left
            (fun acc { Isa.Program.bytes; _ } ->
              acc + ((Bytes.length bytes + platform.Platform.page_size - 1)
                     / platform.Platform.page_size))
            0 program.Isa.Program.data
        in
        [
          bench.Workloads.Spec.name;
          string_of_int bench.Workloads.Spec.inputs;
          Printf.sprintf "%.2f" (float_of_int big_wall /. 1e6);
          Printf.sprintf "%.2f" (float_of_int little_wall /. 1e6);
          Printf.sprintf "%.2f" (float_of_int little_wall /. float_of_int (max 1 big_wall));
          string_of_int data_pages;
        ])
      Workloads.Spec.all
  in
  Util.Table.print
    ~header:
      [ "benchmark"; "inputs"; "big ms (1 input)"; "little ms"; "slowdown";
        "data pages" ]
    rows
