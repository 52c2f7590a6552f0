(* Fleet-level core ownership (DESIGN.md §16): one shared big/little
   pool multiplexing every tenant's ready checkers.

   Placement is per-core work-stealing: each little core owns a deque
   of ready (tenant, checker) pairs. A tenant's checkers are enqueued
   at its *home* core (assigned round-robin at admission, for cache
   affinity); a free home core pops its own deque LIFO (newest checker,
   warmest cache), while a free core with an empty deque steals FIFO
   from the others (oldest checker, longest wait — bounds detection
   latency). Big cores are drain/overflow resources, exactly as in the
   single-tenant scheduler: a queued checker whose tenant's main has
   exited may be stolen directly onto a free big core, and when littles
   are saturated the pool-wide *oldest* running little-core checker
   migrates to a free big, freeing a little for the newest (§4.5,
   fleet-wide).

   Each tenant's reserved main core never serves checkers while the
   tenant lives; it joins the shared big pool when the tenant
   completes. Teardown is per-tenant: flushing one tenant's entries
   frees exactly its cores and queue slots and never touches another
   tenant's (the fault blast-radius invariant). *)

module E = Sim_os.Engine

type entry = {
  tid : int;
  pid : E.pid;
  mutable core : int;
  mutable last_cpu_ns : float;  (* user+sys at the last accounting point *)
}

type tenant = {
  tid : int;
  stats : Stats.t;
  home : int;  (* home little core: the tenant's enqueue target *)
  main_core : int;  (* reserved for the tenant's main process *)
  mutable main_exited : bool;
  mutable main_held : bool;
  mutable retired : bool;  (* completed or aborted; cores released *)
}

type t = {
  eng : E.t;
  cfg : Config.t;  (* fleet-level template: obs sink + policy knobs *)
  little : int array;
  deques : (int * E.pid) Util.Deque.t array;  (* one per little core *)
  mutable free_little : int list;
  mutable free_big : int list;  (* unreserved bigs + released main cores *)
  mutable reserved : (int * int) list;  (* main core -> live-tenant refcount *)
  mutable running : entry list;  (* oldest first, pool-wide *)
  tenants : (int, tenant) Hashtbl.t;
  mutable next_home : int;
  mutable steal_cursor : int;
  mutable steals : int;
  mutable migrations : int;
  mutable idle_ticks : int;
}

let create eng cfg =
  let little = Array.of_list (E.little_cores eng) in
  if Array.length little = 0 then invalid_arg "Core_pool.create: no little cores";
  {
    eng;
    cfg;
    little;
    deques = Array.map (fun _ -> Util.Deque.create ()) little;
    free_little = Array.to_list little;
    free_big = E.big_cores eng;
    reserved = [];
    running = [];
    tenants = Hashtbl.create 8;
    next_home = 0;
    steal_cursor = 0;
    steals = 0;
    migrations = 0;
    idle_ticks = 0;
  }

let tenant t tid =
  match Hashtbl.find_opt t.tenants tid with
  | Some tn -> tn
  | None -> invalid_arg (Printf.sprintf "Core_pool: unknown tenant %d" tid)

let is_little t core = Array.exists (( = ) core) t.little

let deque_index t core =
  let rec go i =
    if i >= Array.length t.little then
      invalid_arg (Printf.sprintf "Core_pool: core %d has no deque" core)
    else if t.little.(i) = core then i
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Observability (fleet-level sink carried by the template config)      *)

let emit_ev t ~track ~phase ?args name =
  match t.cfg.Config.obs with
  | None -> ()
  | Some s -> Obs.Sink.emit s ~ts_ns:(E.time_ns t.eng) ~track ~phase ?args name

let observe t name v =
  match t.cfg.Config.obs with
  | None -> ()
  | Some s -> Obs.Sink.observe s name v

let sink_incr t name =
  match t.cfg.Config.obs with None -> () | Some s -> Obs.Sink.incr s name

let phase_enter t ~track name =
  match t.cfg.Config.obs with
  | None -> ()
  | Some s -> Obs.Sink.phase_enter s ~ts_ns:(E.time_ns t.eng) ~track name

let phase_leave t ~track name =
  match t.cfg.Config.obs with
  | None -> ()
  | Some s -> Obs.Sink.phase_leave s ~ts_ns:(E.time_ns t.eng) ~track name

let phase_add t ~tracks name ns =
  match t.cfg.Config.obs with
  | None -> ()
  | Some s -> Obs.Sink.phase_add s ~ts_ns:(E.time_ns t.eng) ~tracks name ns

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)

let cpu_ns t pid =
  let st = E.proc_stats t.eng pid in
  st.E.user_ns +. st.E.sys_ns

let account t e =
  let now = cpu_ns t e.pid in
  let delta = Float.max 0.0 (now -. e.last_cpu_ns) in
  e.last_cpu_ns <- now;
  let st = (tenant t e.tid).stats in
  if is_little t e.core then
    st.Stats.checker_little_ns <- st.Stats.checker_little_ns +. delta
  else st.Stats.checker_big_ns <- st.Stats.checker_big_ns +. delta

let backlog t =
  Array.fold_left (fun acc d -> acc + Util.Deque.length d) 0 t.deques

let queue_gauge t = observe t "fleet.queue_depth" (float_of_int (backlog t))

(* ------------------------------------------------------------------ *)
(* Reservation of tenant main cores                                    *)

let reserved_count t core =
  match List.assoc_opt core t.reserved with Some n -> n | None -> 0

let reserve_main t core =
  t.reserved <-
    (core, reserved_count t core + 1) :: List.remove_assoc core t.reserved;
  t.free_big <- List.filter (( <> ) core) t.free_big

let unreserve_main t core =
  let n = reserved_count t core - 1 in
  t.reserved <-
    (if n > 0 then (core, n) :: List.remove_assoc core t.reserved
     else List.remove_assoc core t.reserved);
  if
    n <= 0
    && List.mem core (E.big_cores t.eng)
    && (not (List.mem core t.free_big))
    && not (List.exists (fun e -> e.core = core) t.running)
  then t.free_big <- core :: t.free_big

(* ------------------------------------------------------------------ *)
(* Core allocation                                                     *)

let release_core t core =
  if is_little t core then t.free_little <- core :: t.free_little
  else if reserved_count t core > 0 then
    (* A reserved main core stays parked for its tenant. *)
    ()
  else if List.mem core (E.big_cores t.eng) then t.free_big <- core :: t.free_big
  else
    invalid_arg
      (Printf.sprintf "Core_pool.release_core: core %d in neither pool" core)

let note_dispatch tn ~stolen =
  match tn.stats.Stats.fleet with
  | None -> ()
  | Some f ->
    if stolen then f.Stats.stolen <- f.Stats.stolen + 1
    else f.Stats.home_dispatches <- f.Stats.home_dispatches + 1

let start_on t (tid, pid) core ~stolen =
  let tn = tenant t tid in
  if stolen then begin
    t.steals <- t.steals + 1;
    sink_incr t "fleet.steals";
    emit_ev t ~track:(Obs.Trace.Tenant tid) ~phase:Obs.Trace.Instant
      ~args:
        [ ("pid", Obs.Trace.Int pid); ("core", Obs.Trace.Int core) ]
      "steal"
  end;
  note_dispatch tn ~stolen;
  E.set_core t.eng pid ~core;
  t.running <- t.running @ [ { tid; pid; core; last_cpu_ns = cpu_ns t pid } ];
  phase_leave t ~track:(Obs.Trace.Proc pid) "checker_launch";
  E.resume t.eng pid

(* Work selection for a free little core: own deque LIFO first, then a
   FIFO steal scanning the other deques round-robin. Returns the item
   and whether it was a steal (ran off its tenant's home core). *)
let take_for_little t core =
  let own = deque_index t core in
  match Util.Deque.pop_back t.deques.(own) with
  | Some (tid, pid) ->
    (* Popping the home deque is only a "home" dispatch if this core IS
       the popper's home; after migration churn it always is, because
       enqueue targets the home deque and [own] = this core's deque. *)
    Some ((tid, pid), (tenant t tid).home <> core)
  | None ->
    let n = Array.length t.deques in
    let rec scan k =
      if k >= n then None
      else
        let i = (own + 1 + k) mod n in
        match Util.Deque.steal_front t.deques.(i) with
        | Some item -> Some (item, true)
        | None -> scan (k + 1)
    in
    scan 0

(* Work selection for a free big core: FIFO-steal the oldest queued
   checker of any *draining* tenant (main exited) — mirroring the
   single-tenant rule that checkers only take big cores once the main
   is gone. Running tenants reach big cores through migration instead. *)
let take_for_big t =
  let n = Array.length t.deques in
  let rec scan k =
    if k >= n then None
    else
      let i = (t.steal_cursor + k) mod n in
      let stolen =
        Util.Deque.remove_where t.deques.(i) (fun (tid, _) ->
            (tenant t tid).main_exited)
      in
      match stolen with
      | first :: rest ->
        (* Only the oldest is dispatched now; re-queue the others at the
           front (remove_where preserved their relative order). *)
        List.iter (fun item -> Util.Deque.push_back t.deques.(i) item)
          (List.rev rest);
        t.steal_cursor <- (i + 1) mod n;
        Some first
      | [] -> scan (k + 1)
  in
  scan 0

(* Pool-wide oldest running little-core checker -> [big]; returns the
   freed little core. *)
let migrate_oldest_to_big t big =
  match List.find_opt (fun e -> is_little t e.core) t.running with
  | None -> None
  | Some e ->
    account t e;
    let freed = e.core in
    e.core <- big;
    E.set_core t.eng e.pid ~core:big;
    t.migrations <- t.migrations + 1;
    let st = (tenant t e.tid).stats in
    st.Stats.migrations <- st.Stats.migrations + 1;
    emit_ev t ~track:(Obs.Trace.Proc e.pid) ~phase:Obs.Trace.Instant
      ~args:[ ("from", Obs.Trace.Int freed); ("to", Obs.Trace.Int big) ]
      "migrate";
    sink_incr t "sched.migrations";
    Some freed

let rec try_dispatch t =
  match t.free_little with
  | c :: rest -> (
    match take_for_little t c with
    | Some (item, stolen) ->
      t.free_little <- rest;
      start_on t item c ~stolen;
      try_dispatch t
    | None ->
      (* Every deque is empty: nothing for bigs either. *)
      ())
  | [] -> try_big t

and try_big t =
  if backlog t > 0 then
    match t.free_big with
    | [] -> ()
    | big :: rest -> (
      match take_for_big t with
      | Some item ->
        t.free_big <- rest;
        start_on t item big ~stolen:true;
        try_dispatch t
      | None ->
        if t.cfg.Config.migration then
          match migrate_oldest_to_big t big with
          | Some freed ->
            t.free_big <- rest;
            t.free_little <- freed :: t.free_little;
            try_dispatch t
          | None -> ())

(* ------------------------------------------------------------------ *)
(* Tenant lifecycle                                                    *)

(* Flush every scheduling trace of a tenant: queued entries leave the
   deques, running entries release their cores. The tenant's processes
   are assumed dead or dying (rollback/abort teardown killed them);
   other tenants' entries are untouched, and the freed cores go
   straight back to work for them. *)
let flush_tenant t ~tid =
  Array.iter
    (fun d ->
      let removed = Util.Deque.remove_where d (fun (tid', _) -> tid' = tid) in
      List.iter
        (fun (_, pid) ->
          phase_leave t ~track:(Obs.Trace.Proc pid) "checker_launch")
        removed;
      if removed <> [] then queue_gauge t)
    t.deques;
  let mine, rest = List.partition (fun (e : entry) -> e.tid = tid) t.running in
  t.running <- rest;
  List.iter
    (fun e ->
      account t e;
      release_core t e.core)
    mine;
  try_dispatch t

let register_tenant t ~tid ~stats ~main_core =
  let home = t.little.(t.next_home mod Array.length t.little) in
  t.next_home <- t.next_home + 1;
  reserve_main t main_core;
  Hashtbl.replace t.tenants tid
    { tid; stats; home; main_core; main_exited = false; main_held = false;
      retired = false }

(* Rollback: the tenant restarts from a checkpoint as if freshly
   admitted — its stale entries go and its main is neither exited nor
   held any more. Home core and main-core reservation stay. *)
let reset_tenant t ~tid =
  let tn = tenant t tid in
  tn.main_exited <- false;
  tn.main_held <- false;
  flush_tenant t ~tid

let enqueue t ~tid pid =
  let tn = tenant t tid in
  Util.Deque.push_back t.deques.(deque_index t tn.home) (tid, pid);
  queue_gauge t;
  phase_enter t ~track:(Obs.Trace.Proc pid) "checker_launch";
  try_dispatch t

let finished t pid =
  match List.partition (fun e -> e.pid = pid) t.running with
  | [ e ], rest ->
    account t e;
    t.running <- rest;
    release_core t e.core;
    try_dispatch t
  | _, _ ->
    let removed = ref false in
    Array.iter
      (fun d ->
        let r = Util.Deque.remove_where d (fun (_, pid') -> pid' = pid) in
        if r <> [] then removed := true)
      t.deques;
    if !removed then begin
      queue_gauge t;
      phase_leave t ~track:(Obs.Trace.Proc pid) "checker_launch"
    end

let main_exited t ~tid =
  let tn = tenant t tid in
  tn.main_exited <- true;
  (* Drain this tenant's tail on big cores (§4.5, per tenant): its
     running little-core checkers migrate to free bigs, and its queued
     checkers become eligible for direct big-core steals. *)
  if t.cfg.Config.migration then begin
    let continue_migrating = ref true in
    while !continue_migrating do
      match t.free_big with
      | [] -> continue_migrating := false
      | big :: rest -> (
        match
          List.find_opt
            (fun (e : entry) -> e.tid = tid && is_little t e.core)
            t.running
        with
        | None -> continue_migrating := false
        | Some e ->
          account t e;
          let freed = e.core in
          e.core <- big;
          E.set_core t.eng e.pid ~core:big;
          t.free_big <- rest;
          t.free_little <- freed :: t.free_little;
          t.migrations <- t.migrations + 1;
          tn.stats.Stats.migrations <- tn.stats.Stats.migrations + 1;
          emit_ev t ~track:(Obs.Trace.Proc e.pid) ~phase:Obs.Trace.Instant
            ~args:[ ("from", Obs.Trace.Int freed); ("to", Obs.Trace.Int big) ]
            "migrate";
          sink_incr t "sched.migrations")
    done
  end;
  try_dispatch t

let set_main_held t ~tid held = (tenant t tid).main_held <- held

let main_flags t ~tid =
  let tn = tenant t tid in
  (tn.main_exited, tn.main_held)

(* Retire a tenant: flush its scheduling state and return its reserved
   main core to the shared big pool. *)
let retire_tenant t ~tid =
  let tn = tenant t tid in
  if not tn.retired then begin
    flush_tenant t ~tid;
    tn.retired <- true;
    unreserve_main t tn.main_core;
    try_dispatch t
  end

let queued_pids t ~tid =
  Array.to_list t.deques
  |> List.concat_map Util.Deque.to_list
  |> List.filter_map (fun (tid', pid) -> if tid' = tid then Some pid else None)

let running_pids t ~tid =
  List.filter_map
    (fun (e : entry) -> if e.tid = tid then Some e.pid else None)
    t.running

let steals t = t.steals
let migrations t = t.migrations

(* ------------------------------------------------------------------ *)
(* Pacing: one pool-wide pacer replaces the per-run pacers (per-tenant
   pacer_tick is a no-op in fleet mode). Accounting and idle
   attribution are pool-wide; the DVFS control variable is the total
   checker backlog across tenants, with any held main or a drain phase
   (all live mains exited) forcing full speed. *)

let active_tenants t =
  Hashtbl.fold (fun _ tn acc -> if tn.retired then acc else tn :: acc) t.tenants []

let pacer_tick t =
  List.iter (fun e -> account t e) t.running;
  emit_ev t ~track:Obs.Trace.Run ~phase:Obs.Trace.Counter
    ~args:
      [
        ("queued", Obs.Trace.Int (backlog t));
        ("running", Obs.Trace.Int (List.length t.running));
        ("steals", Obs.Trace.Int t.steals);
      ]
    "fleet.backlog";
  (let littles_running =
     List.length (List.filter (fun e -> is_little t e.core) t.running)
   in
   let idle_littles = Array.length t.little - littles_running in
   if idle_littles > 0 then
     phase_add t ~tracks:[ Obs.Trace.Run ] "scheduler_idle"
       (idle_littles * Config.pacer_tick_ns));
  if t.cfg.Config.dvfs_pacing then begin
    let level = E.dvfs_level t.eng ~cluster:1 in
    let top =
      Array.length
        (Platform.little_cluster (E.platform t.eng)).Platform.freq_levels_mhz
      - 1
    in
    let active = active_tenants t in
    let any_held = List.exists (fun tn -> tn.main_held) active in
    let draining =
      active <> [] && List.for_all (fun tn -> tn.main_exited) active
    in
    let outstanding = backlog t + List.length t.running in
    let littles_running =
      List.length (List.filter (fun e -> is_little t e.core) t.running)
    in
    let idle_littles = Array.length t.little - littles_running in
    (* Backlog thresholds scale with the number of live tenants: the
       single-tenant pacer holds the backlog near 1-2 segments per run,
       so the pool holds it near that per tenant. *)
    let n_active = max 1 (List.length active) in
    if draining then begin
      t.idle_ticks <- 0;
      E.set_dvfs_level t.eng ~cluster:1 ~level:top
    end
    else if
      (* Saturation is the pool's up signal: queued work with every
         little busy means the cluster is the bottleneck right now,
         whatever the per-tenant backlog averages look like. *)
      any_held
      || (backlog t > 0 && idle_littles = 0)
      || outstanding > 3 * n_active
    then begin
      t.idle_ticks <- 0;
      let step = if any_held then 2 else 1 in
      E.set_dvfs_level t.eng ~cluster:1 ~level:(min top (level + step))
    end
    else if
      outstanding <= 2 * n_active && (idle_littles > 0 || outstanding <= n_active)
    then begin
      t.idle_ticks <- t.idle_ticks + 1;
      if t.idle_ticks >= 2 && level > 0 then begin
        E.set_dvfs_level t.eng ~cluster:1 ~level:(level - 1);
        t.idle_ticks <- 0
      end
    end
    else t.idle_ticks <- 0
  end

(* ------------------------------------------------------------------ *)
(* Fleet-scope invariants (DESIGN.md §16): cross-checked from each
   tenant's per-event sweep and the fleet's periodic tick. *)

let violation fmt =
  Printf.ksprintf (fun s -> raise (Segment.Invariant_violation s)) fmt

let check_invariants t =
  (* Every live core is owned by at most one tenant's checker. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e ->
      (match Hashtbl.find_opt seen e.core with
      | Some other ->
        violation "core %d owned by checkers of tenants %d and %d" e.core other
          e.tid
      | None -> Hashtbl.replace seen e.core e.tid);
      (match Hashtbl.find_opt t.tenants e.tid with
      | None -> violation "running checker %d belongs to unknown tenant %d" e.pid e.tid
      | Some tn when tn.retired ->
        violation "running checker %d belongs to retired tenant %d" e.pid e.tid
      | Some _ -> ());
      if List.mem e.core t.free_little || List.mem e.core t.free_big then
        violation "core %d is both running checker %d and free" e.core e.pid;
      if reserved_count t e.core > 0 then
        violation "checker %d runs on reserved main core %d" e.pid e.core)
    t.running;
  Array.iter
    (fun d ->
      List.iter
        (fun (tid, pid) ->
          match Hashtbl.find_opt t.tenants tid with
          | None -> violation "queued checker %d belongs to unknown tenant %d" pid tid
          | Some tn when tn.retired ->
            violation "queued checker %d belongs to retired tenant %d" pid tid
          | Some _ ->
            if List.exists (fun e -> e.pid = pid) t.running then
              violation "checker %d is both queued and running" pid)
        (Util.Deque.to_list d))
    t.deques;
  let check_free kind cores =
    List.iter
      (fun c ->
        if List.length (List.filter (( = ) c) cores) > 1 then
          violation "%s core %d is free twice" kind c)
      cores
  in
  check_free "little" t.free_little;
  check_free "big" t.free_big;
  List.iter
    (fun c ->
      if reserved_count t c > 0 then
        violation "reserved main core %d is in the free big pool" c)
    t.free_big
