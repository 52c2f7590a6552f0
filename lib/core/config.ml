type mode =
  | Parallaft
  | Raft

type dirty_backend =
  | Soft_dirty
  | Map_count
  | Full_compare

type chaos = {
  chaos_seed : int64;
  crash_pct : int;
  stall_pct : int;
  late_pct : int;
  prelaunch_pct : int;
  reboot_ns : int;
  late_ns : int;
}

type backend =
  | Backend_inline
  | Backend_deferred of { batch : int; max_lag : int }
  | Backend_remote of { nodes : int; retries : int; chaos : chaos option }

type t = {
  mode : mode;
  slice_period : int;
  max_live_segments : int;
  migration : bool;
  dvfs_pacing : bool;
  dirty_backend : dirty_backend;
  fault_plan : Fault.plan option;
  recovery : bool;
  recheck_on_mismatch : bool;
  watchdog_stall_ns : int;
  check_invariants : bool;
  block_cache : int;
  cpu_stats : bool;
  record_log : string option;
  backend : backend;
  obs : Obs.Sink.t option;
}

let timeout_scale = 1.1
let pacer_tick_ns = 100_000
let max_sim_ns = 2_000_000_000
let max_recoveries = 3
let compare_states t = t.mode = Parallaft
let checkers_on_little t = t.mode = Parallaft

let default_slice_period (_ : Platform.t) = 250_000

let default_chaos =
  {
    chaos_seed = 0xC4A05L;
    crash_pct = 10;
    stall_pct = 5;
    late_pct = 5;
    prelaunch_pct = 5;
    reboot_ns = 400_000;
    late_ns = 150_000;
  }

let deferred_backend ?(batch = 4) ?(max_lag = 8) () =
  Backend_deferred { batch; max_lag }

let remote_backend ?(nodes = 3) ?(retries = 3) ?chaos () =
  Backend_remote { nodes; retries; chaos }

let backend_eager_spares = function
  | Backend_remote _ -> true
  | Backend_inline | Backend_deferred _ -> false

(* How many re-dispatches a segment may burn before a checker-side
   failure becomes final. Remote nodes die for infrastructure reasons,
   so the remote backend gets its own (typically larger) budget. *)
let redispatch_budget t =
  match t.backend with
  | Backend_remote { retries; _ } -> max 1 retries
  | Backend_inline | Backend_deferred _ -> 1

(* The recorder's boundary-hold limit. Deferred checking must also bound
   *unverified* segments (queued ones hold snapshots too), so max_lag
   backpressures the recorder through the same mechanism. *)
let live_limit t =
  match t.backend with
  | Backend_deferred { max_lag; _ } -> min t.max_live_segments max_lag
  | Backend_inline | Backend_remote _ -> t.max_live_segments

type run_kind = Baseline | Solo | Tenant

(* The support matrix: the one place the run-validity rules are
   written. The first rule that holds names the refusal. *)
let validate kind t =
  let raft = t.mode = Raft and inline = t.backend = Backend_inline in
  let logs = t.record_log <> None in
  let refusals =
    [
      ( kind = Baseline
        && ((not inline) || logs || t.fault_plan <> None || t.recovery
           || t.recheck_on_mismatch),
        "a baseline run has no checker, so no non-inline backend, record \
         log, fault plan, recovery or re-check" );
      (raft && logs, "RAFT records no log (it compares no segment states)");
      ( raft && not inline,
        "RAFT takes only the inline backend (it has no segment pipeline)" );
      ( raft && Option.fold ~none:false ~some:Fault.targets_main t.fault_plan,
        "RAFT takes no main-side fault (it compares only syscalls, so a main \
         fault that reaches none corrupts the run silently)" );
      ( kind = Tenant && raft,
        "a fleet tenant runs Parallaft (RAFT checkers need the big cores, \
         which hold the tenants' mains)" );
      ( kind = Tenant && logs,
        "a fleet tenant records no log (a log holds one linear history)" );
      ( (match t.backend with
        | Backend_inline -> false
        | Backend_deferred { batch; max_lag } -> batch < 1 || max_lag < 1
        | Backend_remote { nodes; _ } -> nodes < 1),
        "a deferred batch and max_lag, and remote nodes, must be at least 1" );
    ]
  in
  match (List.find_opt fst refusals, t.fault_plan) with
  | Some (_, why), _ -> Error why
  | None, Some plan -> Result.map_error (( ^ ) "fault plan: ") (Fault.validate plan)
  | None, None -> Ok ()

let invariants_from_env () =
  match Sys.getenv_opt "PARALLAFT_INVARIANTS" with
  | Some "" | Some "0" | None -> false
  | Some _ -> true

let backend_of_platform (p : Platform.t) =
  match p.Platform.dirty_tracking with
  | Platform.Soft_dirty -> Soft_dirty
  | Platform.Map_count -> Map_count

let parallaft ~platform ?slice_period () =
  {
    mode = Parallaft;
    slice_period =
      (match slice_period with
      | Some p -> p
      | None -> default_slice_period platform);
    max_live_segments = 12;
    migration = true;
    dvfs_pacing = true;
    dirty_backend = backend_of_platform platform;
    fault_plan = None;
    recovery = false;
    recheck_on_mismatch = false;
    watchdog_stall_ns = 100_000_000;
    check_invariants = invariants_from_env ();
    block_cache = Machine.Cpu.default_block_cache ();
    cpu_stats = false;
    record_log = None;
    backend = Backend_inline;
    obs = None;
  }

let raft ~platform () =
  {
    (parallaft ~platform ()) with
    mode = Raft;
    slice_period = max_int / 2;
    max_live_segments = 4;
    migration = false;
    dvfs_pacing = false;
  }
