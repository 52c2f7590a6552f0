(* Checker core ownership (§4.5, DESIGN.md §16): the one scheduler.
   Every protected run is a tenant of a pool. A standalone run is the
   only tenant of a *private* pool; a fleet's tenants share one
   *shared* pool. The code that creates the pool picks its kind.

   Checker cores follow the mode: Parallaft checkers run on the little
   cores, with the unreserved big cores as overflow; RAFT checkers run
   on the big cores other than the main's, with no overflow.

   Placement is per-core deques. Each little core owns a deque of ready
   (tenant, checker) pairs, and a tenant's checkers are enqueued at its
   *home* core (assigned round-robin at admission). A free little core
   takes from its own deque first, then steals FIFO from the others
   (oldest checker, longest wait: bounds detection latency). In a
   shared pool the owner pops LIFO (newest checker, warmest cache). A
   private pool's cores all serve one run, so each takes the run's
   oldest queued checker. Big cores are drain/overflow resources: a
   free big takes the oldest queued checker of a tenant whose main has
   exited, and when the littles are saturated the oldest live
   little-core checker migrates to a free big, freeing a little for the
   newest.

   Each tenant's reserved main core never serves checkers while the
   tenant lives (a checker found on it at admission leaves it); it
   joins the big pool when the tenant retires.
   Teardown is per tenant: flushing one tenant frees exactly its cores
   and queue slots and never touches another tenant's (the fault
   blast-radius invariant). A private pool instead returns to its
   creation state. *)

module E = Sim_os.Engine

type kind =
  | Private
  | Shared

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
  (* The run's own flags, read where the pool decides: its main has
     exited (drain), or is held at a boundary on max_live_segments. *)
  main_exited : unit -> bool;
  main_held : unit -> bool;
  mutable retired : bool;  (* completed or aborted; cores released *)
}

type t = {
  eng : E.t;
  cfg : Config.t;  (* mode and policy knobs *)
  kind : kind;
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

let reserved_count t core =
  match List.assoc_opt core t.reserved with Some n -> n | None -> 0

(* The free lists at creation: every checker core of the mode, minus
   the reserved main cores, in engine order. *)
let init_free_cores t =
  t.free_little <-
    (if Config.checkers_on_little t.cfg then Array.to_list t.little else []);
  t.free_big <- List.filter (fun c -> reserved_count t c = 0) (E.big_cores t.eng)

let create kind eng cfg =
  let little = Array.of_list (E.little_cores eng) in
  if Array.length little = 0 then invalid_arg "Core_pool.create: no little cores";
  let t =
    {
      eng;
      cfg;
      kind;
      little;
      deques = Array.map (fun _ -> Util.Deque.create ()) little;
      free_little = [];
      free_big = [];
      reserved = [];
      running = [];
      tenants = Hashtbl.create 8;
      next_home = 0;
      steal_cursor = 0;
      steals = 0;
      migrations = 0;
      idle_ticks = 0;
    }
  in
  init_free_cores t;
  t

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
(* Accounting                                                          *)

let cpu_ns t pid =
  let st = E.proc_stats t.eng pid in
  st.E.user_ns +. st.E.sys_ns

(* Account the CPU time an entry consumed since the last accounting
   point to its tenant's bucket for the core class it ran on. *)
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

let queue_gauge t =
  E.observe t.eng "fleet.queue_depth" (float_of_int (backlog t))

(* ------------------------------------------------------------------ *)
(* Reservation of tenant main cores                                    *)

let reserve_main t core =
  t.reserved <-
    (core, reserved_count t core + 1) :: List.remove_assoc core t.reserved;
  t.free_big <- List.filter (( <> ) core) t.free_big

(* Move a running checker to a free [core]: a migration. *)
let move t e core =
  account t e;
  let from = e.core in
  e.core <- core;
  E.set_core t.eng e.pid ~core;
  t.migrations <- t.migrations + 1;
  let st = (tenant t e.tid).stats in
  st.Stats.migrations <- st.Stats.migrations + 1;
  E.emit t.eng ~track:(Obs.Trace.Proc e.pid) ~phase:Obs.Trace.Instant
    ~args:[ ("from", Obs.Trace.Int from); ("to", Obs.Trace.Int core) ]
    "migrate"

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

(* Dispatch a queued checker. [off_home] marks a checker that runs off
   its tenant's home core: a steal in a shared pool, while a private
   pool's one tenant owns every core, so it never steals. *)
let start_on t (tid, pid) core ~off_home =
  if off_home && t.kind = Shared then begin
    t.steals <- t.steals + 1;
    E.emit t.eng ~track:(Obs.Trace.Tenant tid) ~phase:Obs.Trace.Instant
      ~args:[ ("pid", Obs.Trace.Int pid); ("core", Obs.Trace.Int core) ]
      "steal"
  end;
  E.set_core t.eng pid ~core;
  t.running <- t.running @ [ { tid; pid; core; last_cpu_ns = cpu_ns t pid } ];
  (* Dispatch ends the launch scope opened in [enqueue]: its self-time
     is the queue wait plus core-allocation work. *)
  E.phase_leave t.eng ~track:(Obs.Trace.Proc pid) "checker_launch";
  E.resume t.eng pid

(* Work selection for a free little core: its own deque first (LIFO in
   a shared pool, the oldest checker in a private one), then a FIFO
   steal scanning the other deques round-robin. *)
let take_for_little t core =
  let own = deque_index t core in
  let take_own =
    match t.kind with
    | Shared -> Util.Deque.pop_back
    | Private -> Util.Deque.steal_front
  in
  match take_own t.deques.(own) with
  | Some ((tid, _) as item) -> Some (item, (tenant t tid).home <> core)
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

(* Work selection for a free big core: the oldest queued checker that
   may run on a big — in Parallaft, one of a *draining* tenant (main
   exited; running tenants reach the bigs through migration instead),
   in RAFT any. Only that checker leaves its deque; the rest keep their
   order, so the next FIFO steal still takes the oldest. *)
let take_for_big t =
  let on_big (tid, _) =
    (not (Config.checkers_on_little t.cfg)) || (tenant t tid).main_exited ()
  in
  let n = Array.length t.deques in
  let rec scan k =
    if k >= n then None
    else
      let i = (t.steal_cursor + k) mod n in
      let taken = ref false in
      match
        Util.Deque.remove_where t.deques.(i) (fun item ->
            (not !taken) && on_big item && (taken := true; true))
      with
      | [ item ] ->
        t.steal_cursor <- (i + 1) mod n;
        Some item
      | _ -> scan (k + 1)
  in
  scan 0

(* Move the oldest live little-core checker accepted by [victim] to the
   first free big core, and hand its little core to the free list.
   A checker can die on its core (runtime kill fault, chaos crash) and
   still sit in [running] until the watchdog's response retires it —
   and that response itself dispatches, so two deaths in one poll
   would otherwise migrate a corpse. The dead entry keeps its core
   until then; it is never a migration victim. *)
let migrate_oldest_to_big t ~victim =
  match t.free_big with
  | [] -> false
  | big :: rest -> (
    match
      List.find_opt
        (fun e ->
          is_little t e.core && victim e
          &&
          match E.state t.eng e.pid with
          | E.Exited _ -> false
          | E.Runnable | E.Stopped -> true)
        t.running
    with
    | None -> false
    | Some e ->
      t.free_big <- rest;
      t.free_little <- e.core :: t.free_little;
      move t e big;
      true)

let rec try_dispatch t =
  match t.free_little with
  | c :: rest -> (
    match take_for_little t c with
    | Some (item, off_home) ->
      t.free_little <- rest;
      start_on t item c ~off_home;
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
        start_on t item big ~off_home:true;
        try_dispatch t
      | None ->
        if t.cfg.Config.migration && migrate_oldest_to_big t ~victim:(fun _ -> true)
        then try_dispatch t)

(* ------------------------------------------------------------------ *)
(* Tenant lifecycle                                                    *)

(* Drop every scheduling trace of a tenant whose processes were just
   killed (rollback or abort teardown): its queued entries leave the
   deques and its running entries give up their cores. A shared pool
   accounts the dead checkers' CPU time and hands the freed cores
   straight to the other tenants' work. A private pool has no other
   tenant: it returns to its creation state — free lists in creation
   order, the pacer's idle count at 0, the dead checkers' time
   unaccounted. *)
let flush_tenant t ~tid =
  let dropped =
    Array.fold_left
      (fun n d ->
        let removed = Util.Deque.remove_where d (fun (tid', _) -> tid' = tid) in
        List.iter
          (fun (_, pid) ->
            E.phase_leave t.eng ~track:(Obs.Trace.Proc pid) "checker_launch")
          removed;
        n + List.length removed)
      0 t.deques
  in
  let mine, rest = List.partition (fun (e : entry) -> e.tid = tid) t.running in
  t.running <- rest;
  match t.kind with
  | Private ->
    init_free_cores t;
    t.idle_ticks <- 0
  | Shared ->
    if dropped > 0 then queue_gauge t;
    List.iter
      (fun e ->
        account t e;
        release_core t e.core)
      mine;
    try_dispatch t

(* A tenant admitted after others ran may find a checker on its main
   core, which was an unreserved big serving an earlier tenant's drain
   or overflow. The checker leaves before the new main runs there: it
   moves to a free core it may run on, a little first, then a big.
   With none free it stops and goes back to the head of its tenant's
   home deque, the next checker a freed core takes; a checker that
   already died there just gives the core up (the watchdog's response
   then finds it in neither list). *)
let vacate t core =
  match List.find_opt (fun e -> e.core = core) t.running with
  | None -> ()
  | Some e -> (
    match (t.free_little, t.free_big) with
    | c :: rest, _ ->
      t.free_little <- rest;
      move t e c
    | [], c :: rest ->
      t.free_big <- rest;
      move t e c
    | [], [] -> (
      account t e;
      t.running <- List.filter (fun e' -> e' != e) t.running;
      match E.state t.eng e.pid with
      | E.Exited _ -> ()
      | E.Runnable | E.Stopped ->
        E.suspend t.eng e.pid;
        Util.Deque.push_front
          t.deques.(deque_index t (tenant t e.tid).home)
          (e.tid, e.pid);
        queue_gauge t;
        (* Reopen the launch scope its next dispatch closes. *)
        E.phase_enter t.eng ~track:(Obs.Trace.Proc e.pid) "checker_launch"))

let register_tenant t ~tid ~stats ~main_core ~main_exited ~main_held =
  let home = t.little.(t.next_home mod Array.length t.little) in
  t.next_home <- t.next_home + 1;
  reserve_main t main_core;
  Hashtbl.replace t.tenants tid
    { tid; stats; home; main_core; main_exited; main_held; retired = false };
  vacate t main_core

let enqueue t ~tid pid =
  let tn = tenant t tid in
  Util.Deque.push_back t.deques.(deque_index t tn.home) (tid, pid);
  queue_gauge t;
  E.phase_enter t.eng ~track:(Obs.Trace.Proc pid) "checker_launch";
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
    (* A still-queued checker was torn down before it ever ran: the
       gauge tracks the dequeue just as it tracks enqueue, and the
       launch scope closes here, never having been dispatched. *)
    if !removed then begin
      queue_gauge t;
      E.phase_leave t.eng ~track:(Obs.Trace.Proc pid) "checker_launch"
    end

let main_exited t ~tid =
  (* Drain this tenant's tail on big cores (§4.5, per tenant): its
     running little-core checkers migrate to free bigs, and its queued
     checkers become eligible for the bigs directly. *)
  if t.cfg.Config.migration then
    while migrate_oldest_to_big t ~victim:(fun e -> e.tid = tid) do
      ()
    done;
  try_dispatch t

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
(* Pacing: one pacer per pool. Accounting and idle attribution are
   pool-wide; the DVFS control variable is the checker backlog across
   tenants, with any held main or a drain phase (all live mains
   exited) forcing the little cluster up. *)

let active_tenants t =
  Hashtbl.fold (fun _ tn acc -> if tn.retired then acc else tn :: acc) t.tenants []

let pacer_tick t =
  List.iter (fun e -> account t e) t.running;
  E.emit t.eng ~track:Obs.Trace.Run ~phase:Obs.Trace.Counter
    ~args:
      [
        ("queued", Obs.Trace.Int (backlog t));
        ("running", Obs.Trace.Int (List.length t.running));
      ]
    "backlog";
  (* Idle-capacity attribution, sampled at pacer resolution: each tick
     charges one period per little core with no checker on it. It is
     pool-wide core time, never part of a scope, so it debits none. *)
  let littles_running =
    List.length (List.filter (fun e -> is_little t e.core) t.running)
  in
  let idle_littles = Array.length t.little - littles_running in
  if idle_littles > 0 then
    E.phase_add t.eng ~tracks:[] "scheduler_idle"
      (idle_littles * Config.pacer_tick_ns);
  if t.cfg.Config.dvfs_pacing then begin
    let level = E.dvfs_level t.eng ~cluster:1 in
    let top =
      Array.length
        (Platform.little_cluster (E.platform t.eng)).Platform.freq_levels_mhz
      - 1
    in
    let active = active_tenants t in
    let any_held = List.exists (fun tn -> tn.main_held ()) active in
    let draining =
      active <> [] && List.for_all (fun tn -> tn.main_exited ()) active
    in
    (* Holding the backlog (segments whose checkers have not completed)
       near 1-2 per live tenant keeps detection latency and the
       end-of-run drain small while letting the cluster idle down when
       checkers are fast. *)
    let outstanding = backlog t + List.length t.running in
    let n_active = max 1 (List.length active) in
    if draining then begin
      t.idle_ticks <- 0;
      (* Drain the tail at full speed (checkers also migrate to big). *)
      E.set_dvfs_level t.eng ~cluster:1 ~level:top
    end
    else if
      (* Saturation is also an up signal: queued work with every little
         busy means the cluster is the bottleneck right now, whatever
         the per-tenant backlog averages look like. *)
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
      (* Only step down after sustained slack, to avoid oscillation. *)
      t.idle_ticks <- t.idle_ticks + 1;
      if t.idle_ticks >= 2 && level > 0 then begin
        E.set_dvfs_level t.eng ~cluster:1 ~level:(level - 1);
        t.idle_ticks <- 0
      end
    end
    else t.idle_ticks <- 0
  end

(* ------------------------------------------------------------------ *)
(* Pool-scope invariants (DESIGN.md §16): cross-checked from each
   tenant's per-event sweep (Run_ctx.check_invariants). *)

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
