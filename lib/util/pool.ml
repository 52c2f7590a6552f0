let default_jobs () = Int.max 1 (Domain.recommended_domain_count () - 1)

let width = Atomic.make (default_jobs ())
let set_jobs n = Atomic.set width (Int.max 1 n)
let jobs () = Atomic.get width

type 'b outcome =
  | Value of 'b
  | Raised of exn * Printexc.raw_backtrace

let map ?jobs:j f xs =
  let j = match j with Some j -> Int.max 1 j | None -> jobs () in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when j = 1 -> List.map f xs
  | xs ->
    let items = Array.of_list xs in
    let n = Array.length items in
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
    let spawned = Array.init (Int.min j n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    Array.to_list results
    |> List.map (function
         | Some (Value v) -> v
         | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
