let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* 0 = "not set"; resolution falls through to the environment. *)
let override = Atomic.make 0

let set_jobs n = Atomic.set override (max 1 n)

(* Malformed PARALLAFT_JOBS values used to be dropped silently, which —
   combined with a 1-core detection fallback — produced a silent 1-wide
   pool that made "parallel" smoke tests vacuous. The value is still
   ignored (the fallback chain continues), but loudly. *)
let env_warned = Atomic.make false

let quiet () =
  match Sys.getenv_opt "PARALLAFT_QUIET" with
  | Some "" | Some "0" | None -> false
  | Some _ -> true

let jobs_from_env () =
  match Sys.getenv_opt "PARALLAFT_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None ->
      if not (Atomic.exchange env_warned true) && not (quiet ()) then
        Printf.eprintf
          "parallaft: ignoring malformed PARALLAFT_JOBS=%S (want an integer >= 1)\n%!"
          s;
      None)

(* Resolution order: -j/set_jobs > PARALLAFT_JOBS > detected cores - 1.
   An explicit width always wins, even when core detection reports a
   single core — the explicit sources are requests, the detection is
   only a fallback. *)
let jobs_with_source () =
  match Atomic.get override with
  | 0 -> (
    match jobs_from_env () with
    | Some n -> (n, "PARALLAFT_JOBS")
    | None -> (default_jobs (), "detected"))
  | n -> (n, "-j")

let jobs () = fst (jobs_with_source ())

(* Log the resolved pool width exactly once per process, on the first
   [map] that could fan out. A 1-wide pool on a multi-task map is the
   case worth surfacing: it silently serializes "parallel" smoke runs. *)
let width_logged = Atomic.make false

let log_width ~jobs ~source ~tasks =
  if not (Atomic.exchange width_logged true) && not (quiet ()) then
    Printf.eprintf "parallaft: experiment pool width %d (%s), %d tasks\n%!" jobs
      source tasks

type 'b outcome =
  | Value of 'b
  | Raised of exn * Printexc.raw_backtrace

let map ?jobs:j f xs =
  let j, source =
    match j with
    | Some j -> (max 1 j, "caller")
    | None -> jobs_with_source ()
  in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when j = 1 ->
    log_width ~jobs:j ~source ~tasks:(List.length xs);
    List.map f xs
  | xs ->
    let items = Array.of_list xs in
    let n = Array.length items in
    log_width ~jobs:j ~source ~tasks:n;
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    (* Work-stealing by index: each domain claims the next unclaimed
       task. Result slots are disjoint, so plain writes suffice; the
       joins publish them to the caller. *)
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          (results.(i) <-
             (try Some (Value (f items.(i)))
              with e -> Some (Raised (e, Printexc.get_raw_backtrace ()))));
          loop ()
        end
      in
      loop ()
    in
    let spawned = Array.init (min j n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    Array.to_list results
    |> List.map (function
         | Some (Value v) -> v
         | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
