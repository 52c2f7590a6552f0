(* Pluggable checker backends (DESIGN.md §18): a backend is a launch
   policy, deciding where and when the checks of recorded segments run.

     Inline    — launch each checker the instant its segment finishes
                 recording: the original pipeline, byte-identical.
     Deferred  — queue finished segments and launch [batch] per wakeup,
                 amortizing the cold fork/cache-warmup cost over the
                 batch; [max_lag] bounds unverified segments by
                 backpressuring the recorder (Config.live_limit).
     Remote    — dispatch each check to a pool of simulated checker
                 nodes that chaos can crash, stall, or delay; leases
                 with heartbeat expiry detect lost nodes and re-dispatch
                 to a healthy one.

   The exactly-once ledger every check goes through is the run's own
   segments (DESIGN.md §18): the stages move them through their state
   machine and count the checks as they go, and the watchdog swaps a
   checker that died before launch. A backend only launches checks,
   hears when one has started, may park a verdict, and drops its own
   queued work on teardown; it counts its batches and the stale
   verdicts it discards. [create] builds a run's backend from the
   config before the run exists; Run_ctx holds it unchanged and the
   pipeline stages never name a backend. Inline is the base instance
   and deferred overrides only the hooks whose policy differs; remote
   sets every hook. *)

module E = Sim_os.Engine
open Run_ctx

(* Simulated launch overhead: a cold launch forks the checker's address
   space view and warms its caches; launches later in a deferred batch
   reuse the warm runtime state. test_backend's "batching amortizes
   launch cost" case checks the accumulated difference. *)
let cold_launch_ns = 20_000.
let warm_launch_ns = 2_000.

(* Simulated dispatch RPC to a remote node. *)
let rpc_ns = 5_000

(* The window a chaos pre-launch kill lands in: after dispatch, before
   the launch RPC completes. *)
let chaos_prelaunch_window_ns = rpc_ns / 2

(* How soon after launch a chaos crash strikes. *)
let chaos_strike_window_ns = 50_000

type remote_action =
  | Crash of int  (* node index *)
  | Stall of int
  | Prelaunch_kill

(* The remote backend's simulated checker nodes, as the sim time each is
   down until: chaos crashes a node (dead) or stalls it (wedged) until a
   reboot deadline. [pick_node] dispatches round-robin from [next] over
   the healthy nodes; when chaos has downed every node, the
   earliest-recovering one is force-rebooted (a standby replacement),
   so dispatch always succeeds. *)
let pick_node down_until next ~now_ns =
  let n = Array.length down_until in
  let rec scan k =
    if k = n then None
    else
      let i = (!next + k) mod n in
      if down_until.(i) <= now_ns then Some i else scan (k + 1)
  in
  let i =
    match scan 0 with
    | Some i -> i
    | None ->
      let best = ref 0 in
      Array.iteri
        (fun i d -> if d < down_until.(!best) then best := i)
        down_until;
      down_until.(!best) <- min_int;
      !best
  in
  next := (i + 1) mod n;
  i

type parked = {
  pk_due_ns : int;
  pk_seg : Segment.t;
  pk_inc : int;
  pk_verdict : Detection.outcome option;
}

let charge_launch t seg ~ns =
  let acct = t.stats.Stats.backend in
  acct.Stats.b_launch_ns <- acct.Stats.b_launch_ns + int_of_float ns;
  charge t ~segment:(Segment.id seg) (Segment.checker seg) "backend_launch" ~ns

let create (cfg : Config.t) =
  let inline =
    {
      launch = Replayer.launch_checker;
      launched = (fun _ _ -> ());
      route_verdict = (fun _ _ _ -> false);
      flush = ignore;
      poll = ignore;
    }
  in
  match cfg.Config.backend with
  | Config.Backend_inline -> inline
  | Config.Backend_deferred { batch; max_lag = _ } ->
    let queue : Segment.t Queue.t = Queue.create () in
    (* Dequeue one batch, oldest first, before launching any of it. *)
    let drain t =
      match
        List.init (min batch (Queue.length queue)) (fun _ -> Queue.pop queue)
      with
      | [] -> ()
      | segs ->
        let b = t.stats.Stats.backend in
        b.Stats.b_batches <- b.Stats.b_batches + 1;
        List.iteri
          (fun i seg ->
            if
              (not t.aborted)
              && (not (Segment.torn_down seg))
              && Segment.phase seg = Segment.Awaiting_launch_p
            then begin
              charge_launch t seg
                ~ns:(if i = 0 then cold_launch_ns else warm_launch_ns);
              Replayer.launch_checker t seg
            end)
          segs
    in
    {
      inline with
      launch =
        (fun t seg ->
          Queue.push seg queue;
          if Queue.length queue >= batch then drain t);
      (* Rollback/abort already tore the queued segments down with the
         rest of t.live; the queue must not launch them afterwards. *)
      flush = (fun _ -> Queue.clear queue);
      poll =
        (fun t ->
          (* A partial batch cannot wait forever: drain when the recorder
             is held on the lag budget, or when the main exited and no
             further recording will top the batch up. *)
          if
            (not t.aborted)
            && (t.pending_boundary || t.main_exited)
            && not (Queue.is_empty queue)
          then drain t);
    }
  | Config.Backend_remote { nodes; retries = _; chaos } ->
    let down_until = Array.make nodes min_int and next_node = ref 0 in
    let rng =
      Util.Rng.create
        ~seed:
          (match chaos with
          | Some c -> c.Config.chaos_seed
          | None -> 0x4E0DE5L)
    in
    (* Dispatches in their RPC window: the segment launches when the RPC
       lands (entries persist across the watchdog's pre-launch swap). *)
    let pending_launches : (int * Segment.t) list ref = ref [] in
    (* Scheduled chaos strikes, guarded by incarnation at fire time. *)
    let actions : (int * Segment.t * int * remote_action) list ref = ref [] in
    (* (segment id, incarnation) -> verdict delay drawn at launch. *)
    let late_draws : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
    let parked : parked list ref = ref [] in
    let draw_pct pct = pct > 0 && Util.Rng.int rng 100 < pct in
    {
      launch =
        (fun t seg ->
          let now = E.now_ns t.eng in
          (* The remote backend forks its spare at dispatch time — before
             the checker ever runs, so it is pristine — because a node can
             die before launch and the watchdog's swap needs a snapshot. *)
          if Segment.spare seg = None && retries_left t seg then
            fork_spare t seg;
          pending_launches := !pending_launches @ [ (now + rpc_ns, seg) ];
          match chaos with
          | Some c when draw_pct c.Config.prelaunch_pct ->
            actions :=
              ( now + chaos_prelaunch_window_ns,
                seg,
                Segment.redispatches seg,
                Prelaunch_kill )
              :: !actions
          | Some _ | None -> ());
      (* The launch RPC landed: run the check on a healthy node and
         draw its chaos there. *)
      launched =
        (fun t seg ->
          let now = E.now_ns t.eng in
          let node = pick_node down_until next_node ~now_ns:now in
          match chaos with
          | None -> ()
          | Some c ->
            let inc = Segment.redispatches seg in
            if draw_pct c.Config.crash_pct then
              actions :=
                ( now + Util.Rng.int rng chaos_strike_window_ns,
                  seg,
                  inc,
                  Crash node )
                :: !actions
            else if draw_pct c.Config.stall_pct then
              actions :=
                ( now + Util.Rng.int rng chaos_strike_window_ns,
                  seg,
                  inc,
                  Stall node )
                :: !actions
            else if draw_pct c.Config.late_pct then
              Hashtbl.replace late_draws
                (Segment.id seg, inc)
                (c.Config.late_ns + Util.Rng.int rng (max 1 c.Config.late_ns)));
      route_verdict =
        (fun t seg verdict ->
          let key = (Segment.id seg, Segment.redispatches seg) in
          match Hashtbl.find_opt late_draws key with
          | None -> false
          | Some delay ->
            (* The node returns its verdict late: park it. The checker has
               finished executing — free its core; its "check" span closes
               when the verdict is finally acted on (or superseded). *)
            Hashtbl.remove late_draws key;
            parked :=
              {
                pk_due_ns = E.now_ns t.eng + delay;
                pk_seg = seg;
                pk_inc = Segment.redispatches seg;
                pk_verdict = verdict;
              }
              :: !parked;
            Core_pool.finished t.pool (Segment.checker seg);
            true);
      flush =
        (fun _ ->
          pending_launches := [];
          actions := [];
          Hashtbl.reset late_draws;
          parked := []);
      poll =
        (fun t ->
          if not t.aborted then begin
            let now = E.now_ns t.eng in
            let due_actions, later =
              List.partition (fun (due, _, _, _) -> now >= due) !actions
            in
            actions := later;
            let strike_live (_, seg, inc, _) =
              (not (Segment.torn_down seg))
              && (not (Segment.is_done seg))
              && Segment.redispatches seg = inc
            in
            (* Pre-launch kills land before the launch RPCs are processed:
               a kill due in the same poll as its launch must strike while
               the window is still open. The victim pid has never been
               enqueued, so this cannot hand the dispatcher a dead pid. *)
            List.iter
              (fun ((_, seg, _, act) as a) ->
                match act with
                | Prelaunch_kill
                  when strike_live a
                       && Segment.phase seg = Segment.Awaiting_launch_p ->
                  kill_if_alive t (Segment.checker seg)
                | Prelaunch_kill | Crash _ | Stall _ -> ())
              due_actions;
            (* Launch RPCs that have landed. A dead checker keeps its
               entry: the watchdog's pre-launch swap brings the spare in
               within this same event, and the next poll launches the
               replacement. *)
            let launchable, rest =
              List.partition (fun (due, _) -> now >= due) !pending_launches
            in
            let kept =
              List.filter
                (fun (_, seg) ->
                  if
                    Segment.torn_down seg || Segment.is_done seg
                    || Segment.phase seg <> Segment.Awaiting_launch_p
                  then false
                  else
                    match E.state t.eng (Segment.checker seg) with
                    | E.Exited _ -> true
                    | E.Runnable | E.Stopped ->
                      charge_launch t seg ~ns:cold_launch_ns;
                      Replayer.launch_checker t seg;
                      false)
                launchable
            in
            pending_launches := kept @ rest;
            (* Parked verdicts that have come due. A verdict whose
               incarnation lapsed while parked (the watchdog re-dispatched
               the silent node meanwhile) is stale: discarded, never
               double-counted. *)
            let due_parked, still_parked =
              List.partition (fun p -> now >= p.pk_due_ns) !parked
            in
            parked := still_parked;
            List.iter
              (fun p ->
                if (not (Segment.torn_down p.pk_seg)) && not t.aborted then
                  if
                    Segment.is_done p.pk_seg
                    || Segment.redispatches p.pk_seg <> p.pk_inc
                  then
                    let b = t.stats.Stats.backend in
                    b.Stats.b_stale_verdicts <- b.Stats.b_stale_verdicts + 1
                  else Replayer.deliver_verdict t p.pk_seg p.pk_verdict)
              due_parked;
            (* Crash/stall strikes land last: launches and parked verdicts
               can pull work off the scheduler queue, and a dispatch must
               never see a pid this poll just killed. With the strikes at
               the end, the watchdog — which runs immediately after every
               backend poll — repairs any kill before the next dispatch
               opportunity. Only a checker actually executing is struck: a
               queued one is still sitting in the scheduler, and killing
               it there would hand the dispatcher a dead pid (same
               contract as the runtime Kill fault). *)
            let reboot_until () =
              now
              + match chaos with Some c -> c.Config.reboot_ns | None -> 0
            in
            List.iter
              (fun ((_, seg, _, act) as a) ->
                let running () =
                  Segment.phase seg = Segment.Checking_p
                  && E.state t.eng (Segment.checker seg) = E.Runnable
                in
                match act with
                | Prelaunch_kill -> ()
                | Crash node when strike_live a && running () ->
                  kill_if_alive t (Segment.checker seg);
                  down_until.(node) <- reboot_until ()
                | Stall node when strike_live a && running () ->
                  E.suspend t.eng (Segment.checker seg);
                  down_until.(node) <- reboot_until ()
                | Crash _ | Stall _ -> ())
              due_actions
          end);
    }
