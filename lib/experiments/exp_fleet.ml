(* Fleet-mode evaluation (DESIGN.md §16): throughput, per-tenant
   latency and energy of N concurrent protected tenants sharing one
   core pool, against N serial single-tenant runs of the same programs
   on the same simulated machine.

   Closed loop: N tenants arrive in one batch and run to completion —
   the consolidation question (how much does sharing the little
   cluster's checker capacity buy over running the tenants back to
   back?). Open loop: staggered arrivals against a max_tenants
   admission cap, with both queue and reject policies — the overload
   question (what happens to latency and the rejection count when
   offered load exceeds the pool?).

   Workloads are detimed ([Workloads.Spec.detimed]) so each tenant's
   final state is a pure function of its program and its per-tenant
   rng streams — the same discipline as the fault-injection oracle. *)

(* A fleet's tenants cycle through distinct benchmark characters so the
   pool sees heterogeneous checker lengths (the interesting case for
   stealing). Reduced scale, same rationale as the injection campaign:
   fleet behaviour depends on per-segment dynamics, not program size. *)
let fleet_scale scale = scale *. 0.25

let tenant_programs ~platform ~scale ~n =
  let benches = Suite.benchmarks ~quick:true in
  List.init n (fun i ->
      let bench =
        Workloads.Spec.detimed (List.nth benches (i mod List.length benches))
      in
      List.hd
        (Workloads.Spec.programs bench
           ~page_size:platform.Platform.page_size ~scale:(fleet_scale scale)))

let serial_wall_ns ~platform ~config ~programs =
  List.fold_left
    (fun acc program ->
      let r = Parallaft.Runtime.run_protected ~platform ~config ~program () in
      acc + r.Parallaft.Runtime.wall_ns)
    0 programs

let run ~platform ~scale ~quick =
  let config = Parallaft.Config.parallaft ~platform () in
  let tenant_counts = if quick then [ 1; 4 ] else [ 1; 2; 4; 6 ] in
  let closed =
    List.map
      (fun n ->
        let programs = tenant_programs ~platform ~scale ~n in
        let fleet =
          Fleet.run ~max_tenants:n ~arrival:Fleet.Batch ~platform ~config
            ~programs ()
        in
        let serial = serial_wall_ns ~platform ~config ~programs in
        (n, fleet, serial))
      tenant_counts
  in
  Util.Table.print
    ~header:
      [
        "tenants";
        "fleet wall";
        "serial wall";
        "speedup";
        "verified";
        "steals";
        "seg/s";
        "energy";
      ]
    (List.map
       (fun (n, (fleet : Fleet.report), serial) ->
         [
           string_of_int n;
           Printf.sprintf "%.2f ms" (float_of_int fleet.Fleet.wall_ns /. 1e6);
           Printf.sprintf "%.2f ms" (float_of_int serial /. 1e6);
           Printf.sprintf "%.2fx"
             (float_of_int serial /. float_of_int (max 1 fleet.Fleet.wall_ns));
           string_of_int fleet.Fleet.segments_verified;
           string_of_int fleet.Fleet.steals;
           Printf.sprintf "%.0f" fleet.Fleet.throughput_segments_per_s;
           Printf.sprintf "%.3f J" fleet.Fleet.energy_j;
         ])
       closed);
  (* Open loop: 6 staggered arrivals against a 2-tenant cap, queueing
     vs rejecting. Latency is admission-to-completion per tenant. *)
  print_newline ();
  let n_arrivals = if quick then 4 else 6 in
  let programs = tenant_programs ~platform ~scale ~n:n_arrivals in
  let open_loop policy =
    Fleet.run ~max_tenants:2 ~admission:policy
      ~arrival:(Fleet.Staggered 200_000) ~platform ~config ~programs ()
  in
  let mean_latency_ms (r : Fleet.report) =
    let lats =
      List.filter_map
        (fun (t : Fleet.tenant_report) ->
          match (t.Fleet.admitted_ns, t.Fleet.completed_ns) with
          | Some a, Some c -> Some (float_of_int (c - a))
          | _ -> None)
        r.Fleet.tenants
    in
    if lats = [] then 0.0
    else List.fold_left ( +. ) 0.0 lats /. float_of_int (List.length lats) /. 1e6
  in
  Util.Table.print
    ~header:
      [ "policy"; "arrivals"; "admitted"; "rejected"; "mean latency"; "seg/s" ]
    (List.map
       (fun (name, policy) ->
         let r = open_loop policy in
         [
           name;
           string_of_int n_arrivals;
           string_of_int r.Fleet.admitted;
           string_of_int r.Fleet.rejected;
           Printf.sprintf "%.2f ms" (mean_latency_ms r);
           Printf.sprintf "%.0f" r.Fleet.throughput_segments_per_s;
         ])
       [ ("queue", Fleet.Queue_arrivals); ("reject", Fleet.Reject_arrivals) ])
