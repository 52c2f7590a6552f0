(* The simulated checker-node pool behind the [Remote_sim] backend: a
   fixed set of nodes that the chaos campaign can crash (dead until a
   reboot deadline) or stall (wedged until the deadline). Dispatch picks
   round-robin over healthy nodes; when chaos has downed every node the
   earliest-recovering one is force-rebooted so the run can always make
   progress (modelling a standby replacement). *)

type status =
  | Healthy
  | Crashed of int  (* healthy again at this sim time *)
  | Stalled of int

type t = {
  status : status array;
  mutable next : int;  (* round-robin cursor *)
}

let create ~nodes =
  if nodes <= 0 then invalid_arg "Node_pool.create: nodes must be positive";
  { status = Array.make nodes Healthy; next = 0 }

let size t = Array.length t.status

let crash t i ~until_ns = t.status.(i) <- Crashed until_ns
let stall t i ~until_ns = t.status.(i) <- Stalled until_ns

(* Reboot every node whose deadline passed. *)
let tick t ~now_ns =
  Array.iteri
    (fun i s ->
      match s with
      | Crashed until_ns | Stalled until_ns ->
        if now_ns >= until_ns then t.status.(i) <- Healthy
      | Healthy -> ())
    t.status

let pick t ~now_ns =
  tick t ~now_ns;
  let n = size t in
  let rec scan k =
    if k = n then None
    else
      let i = (t.next + k) mod n in
      if t.status.(i) = Healthy then Some i else scan (k + 1)
  in
  match scan 0 with
  | Some i ->
    t.next <- (i + 1) mod n;
    i
  | None ->
    (* Whole pool down: force-reboot the node closest to recovery. *)
    let best = ref 0 and best_due = ref max_int in
    Array.iteri
      (fun i s ->
        let due =
          match s with Crashed d | Stalled d -> d | Healthy -> assert false
        in
        if due < !best_due then begin
          best := i;
          best_due := due
        end)
      t.status;
    t.status.(!best) <- Healthy;
    t.next <- (!best + 1) mod size t;
    !best
