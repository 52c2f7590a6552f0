(* Multi-tenant fleet mode (DESIGN.md §16): N concurrent guest
   programs on one simulated machine, each protected by its own
   Coordinator pipeline, all checkers scheduled over one shared
   big/little pool (Core_pool) via per-core work-stealing deques.

   Admission control caps the live tenant count; arrivals beyond the
   cap either wait (closed-loop) or are rejected (open-loop overload).
   Each tenant derives its runtime rng and its main process's private
   OS-entropy stream from the root seed and its tenant id alone
   (Util.Rng.stream), so a tenant's run is reproducible regardless of
   how other tenants' admissions interleave with it.

   Fault blast-radius stays per-tenant: one tenant's rollback,
   watchdog kill or hard-fault abort tears down only its own segments
   and returns only its own cores to the pool. *)

module E = Sim_os.Engine
module Config = Parallaft.Config
module Stats = Parallaft.Stats
module Coordinator = Parallaft.Coordinator
module Core_pool = Parallaft.Core_pool

type admission =
  | Queue_arrivals
  | Reject_arrivals

type arrival =
  | Batch
  | Staggered of int

type outcome =
  | Completed
  | Aborted
  | Rejected
  | Unfinished

type tenant_report = {
  tid : int;
  stats : Stats.t option;  (* None when the tenant never admitted *)
  outcome : outcome;
  exit_status : int option;
  final_state_hash : int64 option;
  admitted_ns : int option;
  completed_ns : int option;
}

type report = {
  tenants : tenant_report list;
  admitted : int;
  rejected : int;
  steals : int;
  migrations : int;
  segments_verified : int;
  wall_ns : int;
  energy_j : float;
  throughput_segments_per_s : float;
  live_at_end : int;
}

type state =
  | Waiting
  | Running of Coordinator.t
  | Finished of Coordinator.t
  | Rejected_slot

type slot = {
  tid : int;
  program : Isa.Program.t;
  cfg : Config.t;  (* final: main core assigned, [configure] applied *)
  mutable state : state;
  mutable admitted_ns : int option;
  mutable completed_ns : int option;
  mutable exit_status : int option;
}

(* Per-tenant entropy: two independent streams (runtime emulation rng,
   main-process OS entropy) keyed by (root seed, tid) only — never by
   global draw order — so admission interleaving cannot perturb a
   tenant's run. *)
let tenant_rngs ~seed ~tid =
  let troot = Util.Rng.stream ~root:seed ~index:tid in
  let rng = Util.Rng.split troot in
  let prng = Util.Rng.split troot in
  (rng, prng)

let run ?(seed = 42L) ?max_tenants ?(admission = Queue_arrivals)
    ?(arrival = Batch) ?configure ~platform ~config ~programs () =
  let n = List.length programs in
  if n = 0 then invalid_arg "Fleet.run: no programs";
  let max_tenants = Option.value max_tenants ~default:n in
  if max_tenants <= 0 then invalid_arg "Fleet.run: max_tenants <= 0";
  let eng =
    E.create ~block_cache:config.Config.block_cache ~platform ~seed ()
  in
  let bigs = Array.of_list (E.big_cores eng) in
  if Array.length bigs = 0 then invalid_arg "Fleet.run: no big cores";
  let slots =
    List.mapi
      (fun tid program ->
        (* Each tenant's main process gets its own (possibly shared when
           tenants outnumber big cores) reserved big core, then its
           per-tenant overrides (e.g. a fault plan injected into exactly
           one tenant for the blast-radius tests). *)
        let main_core = bigs.(tid mod Array.length bigs) in
        let cfg = { config with Config.main_core } in
        let cfg = match configure with Some f -> f tid cfg | None -> cfg in
        {
          tid;
          program;
          cfg;
          state = Waiting;
          admitted_ns = None;
          completed_ns = None;
          exit_status = None;
        })
      programs
  in
  (* The template steers the shared pool, so it is a tenant's too. *)
  List.iter
    (fun cfg ->
      Result.iter_error (fun why -> invalid_arg ("Fleet.run: " ^ why))
        (Config.validate Config.Tenant cfg))
    (config :: List.map (fun (s : slot) -> s.cfg) slots);
  (* The fleet's sink rides on the engine, which the shared pool and
     every tenant emit through. *)
  Option.iter (E.set_obs eng) config.Config.obs;
  let pool = Core_pool.create Core_pool.Shared eng config in
  let emit_tenant tid ?args name =
    E.emit eng ~track:(Obs.Trace.Tenant tid) ~phase:Obs.Trace.Instant ?args name
  in
  let live_tenants () =
    List.length
      (List.filter (fun s -> match s.state with Running _ -> true | _ -> false)
         slots)
  in
  let admit slot =
    let rng, prng = tenant_rngs ~seed ~tid:slot.tid in
    let coord =
      Coordinator.create ~rng ~prng ~fleet:(pool, slot.tid) eng slot.cfg
        ~program:slot.program
    in
    slot.state <- Running coord;
    slot.admitted_ns <- Some (E.now_ns eng);
    emit_tenant slot.tid
      ~args:[ ("main_core", Obs.Trace.Int slot.cfg.Config.main_core) ]
      "tenant.admit"
  in
  let arrival_due slot =
    match arrival with
    | Batch -> true
    | Staggered gap_ns -> E.now_ns eng >= slot.tid * gap_ns
  in
  let rejected = ref 0 in
  let poll () =
    (* Completions first: a retiring tenant frees its slot and its
       reserved main core before this round's admissions. *)
    List.iter
      (fun slot ->
        match slot.state with
        | Running coord when Coordinator.drained coord ->
          slot.exit_status <- E.exit_status eng (Coordinator.main_pid coord);
          (* Recovery snapshots outlive the drain point; releasing them
             here is what lets the engine reach zero live processes. *)
          Coordinator.release_recovery_state coord;
          Core_pool.retire_tenant pool ~tid:slot.tid;
          Coordinator.finish coord;
          slot.completed_ns <- Some (E.now_ns eng);
          slot.state <- Finished coord;
          emit_tenant slot.tid
            (if Coordinator.aborted coord then "tenant.aborted"
             else "tenant.complete")
        | Waiting | Running _ | Finished _ | Rejected_slot -> ())
      slots;
    List.iter
      (fun slot ->
        match slot.state with
        | Waiting when arrival_due slot ->
          if live_tenants () < max_tenants then admit slot
          else (
            match admission with
            | Queue_arrivals -> ()
            | Reject_arrivals ->
              slot.state <- Rejected_slot;
              incr rejected;
              emit_tenant slot.tid "tenant.reject")
        | Waiting | Running _ | Finished _ | Rejected_slot -> ())
      slots
  in
  E.add_tick eng ~every_ns:Config.pacer_tick_ns (fun _ ->
      Core_pool.pacer_tick pool);
  E.add_tick eng ~every_ns:Config.pacer_tick_ns (fun _ -> poll ());
  poll ();
  let settled slot =
    match slot.state with
    | Finished _ | Rejected_slot -> true
    | Waiting | Running _ -> false
  in
  (* E.run returns whenever no live process remains, which in fleet
     mode is not the end: a staggered arrival may still be due. Step
     through the idle gap (ticks keep firing) and re-enter. *)
  while (not (List.for_all settled slots)) && E.now_ns eng < Config.max_sim_ns do
    if E.live_processes eng > 0 then E.run ~max_ns:Config.max_sim_ns eng
    else E.step_quantum eng;
    poll ()
  done;
  let wall_ns = E.now_ns eng in
  let tenants =
    List.map
      (fun slot ->
        let finish coord outcome =
          let stats = Coordinator.stats coord in
          (* Per-tenant wall: admission to completion (or the bound). *)
          stats.Stats.all_wall_ns <-
            float_of_int
              (Option.value ~default:wall_ns slot.completed_ns
              - Option.value ~default:0 slot.admitted_ns);
          {
            tid = slot.tid;
            stats = Some stats;
            outcome;
            exit_status = slot.exit_status;
            final_state_hash = Stats.final_state_hash stats;
            admitted_ns = slot.admitted_ns;
            completed_ns = slot.completed_ns;
          }
        in
        match slot.state with
        | Finished coord ->
          finish coord
            (if Coordinator.aborted coord then Aborted else Completed)
        | Running coord -> finish coord Unfinished
        | Waiting | Rejected_slot ->
          {
            tid = slot.tid;
            stats = None;
            outcome =
              (if slot.state = Rejected_slot then Rejected else Unfinished);
            exit_status = None;
            final_state_hash = None;
            admitted_ns = None;
            completed_ns = None;
          })
      slots
  in
  let segments_verified =
    List.fold_left
      (fun acc t ->
        match t.stats with
        | Some st -> acc + st.Stats.segments_compared
        | None -> acc)
      0 tenants
  in
  (* Retire what no tenant's end closed (e.g. an unfinished one's). *)
  E.phase_close_all eng;
  {
    tenants;
    admitted =
      List.length
        (List.filter (fun (r : tenant_report) -> r.admitted_ns <> None) tenants);
    rejected = !rejected;
    steals = Core_pool.steals pool;
    migrations = Core_pool.migrations pool;
    segments_verified;
    wall_ns;
    energy_j = E.energy_j eng;
    throughput_segments_per_s =
      (if wall_ns <= 0 then 0.0
       else float_of_int segments_verified /. float_of_int wall_ns *. 1e9);
    live_at_end = E.live_processes eng;
  }

let to_assoc r =
  let i = string_of_int in
  [
    ("fleet.tenants", i (List.length r.tenants));
    ("fleet.admitted", i r.admitted);
    ("fleet.rejected", i r.rejected);
    ("fleet.steals", i r.steals);
    ("fleet.migrations", i r.migrations);
    ("fleet.segments_verified", i r.segments_verified);
    ("fleet.wall_ns", i r.wall_ns);
    ( "fleet.throughput_segments_per_s",
      Printf.sprintf "%.1f" r.throughput_segments_per_s );
    ("hwmon.energy_joules", Printf.sprintf "%.6f" r.energy_j);
  ]
  @ List.concat_map
      (fun (t : tenant_report) ->
        let row name v = (Printf.sprintf "fleet.tenant%d.%s" t.tid name, v) in
        [
          row "outcome"
            (match t.outcome with
            | Completed -> "completed"
            | Aborted -> "aborted"
            | Rejected -> "rejected"
            | Unfinished -> "unfinished");
          row "exit_status"
            (match t.exit_status with Some s -> i s | None -> "none");
        ]
        @ (match t.stats with
          | Some st ->
            [
              row "segments_compared" (i st.Stats.segments_compared);
              row "recoveries" (i st.Stats.recoveries);
              row "detections" (i (List.length st.Stats.detections));
              row "page_hash_hits" (i st.Stats.page_hash_hits);
              row "page_hash_misses" (i st.Stats.page_hash_misses);
            ]
          | None -> [])
        @
        match (t.admitted_ns, t.completed_ns) with
        | Some a, Some c -> [ row "wall_ns" (i (c - a)) ]
        | _ -> [])
      r.tenants
