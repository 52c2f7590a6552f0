(* Phase-attribution profiler: where does a protected run's wall-clock
   go?  Scopes are nestable [enter]/[leave] pairs keyed by trace track,
   timestamped in *simulated* nanoseconds (same clock as Trace), so the
   breakdown is byte-deterministic for equal seeds.

   Two-level attribution model:

   - *Wall* phases are scopes that close on a [Trace.Core _] track (the
     main core's timeline): record, main_held, drain.  These are
     sequential on one timeline, so their self-times partition the main
     core's wall and the sum is <= run wall-time by construction.
   - *Work* phases are everything else: scopes on [Proc]/[Run] tracks
     (replay, checker_launch, rollback) and zero-width [add_ns] charges
     (compare, fork, record_io, dirty_scan, scheduler_idle).  They run
     concurrently with the main timeline and are reported as overlapping
     work rows, not as a wall partition.

   Self-time discipline: a scope's self = elapsed - child_ns, where
   every nested scope (and every [add_ns] charge attributed inside it)
   bumps child_ns on the enclosing frame.  [add_ns] acts as a zero-width
   child: the named phase gains the nanoseconds and the innermost open
   scope on the first candidate track loses them, keeping partitions
   exact. *)

type frame = {
  name : string;
  start_ns : int;
  segment : int option;
  mutable child_ns : int;
}

type agg = {
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable insns : int;
  mutable blocks : int;
  mutable decoded : int;
  mutable wall : bool;
}

type phase_summary = {
  count : int;
  total_ns : int;
  self_ns : int;
  insns : int;
  blocks : int;
  decoded : int;
  wall : bool;
}

type t = {
  stacks : (Trace.track, frame list ref) Hashtbl.t;
  sums : (string, agg) Hashtbl.t;
  per_seg : (int, (string, int ref) Hashtbl.t) Hashtbl.t;
  mutable enabled : bool;
}

let create () =
  {
    stacks = Hashtbl.create 8;
    sums = Hashtbl.create 16;
    per_seg = Hashtbl.create 16;
    enabled = false;
  }

let set_enabled t on = t.enabled <- on
let enabled t = t.enabled

let agg_for t name =
  match Hashtbl.find_opt t.sums name with
  | Some a -> a
  | None ->
    let a : agg =
      {
        count = 0;
        total_ns = 0;
        self_ns = 0;
        insns = 0;
        blocks = 0;
        decoded = 0;
        wall = false;
      }
    in
    Hashtbl.replace t.sums name a;
    a

let seg_add t seg name ns =
  let tbl =
    match Hashtbl.find_opt t.per_seg seg with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.per_seg seg tbl;
      tbl
  in
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r + ns
  | None -> Hashtbl.replace tbl name (ref ns)

let stack_for t track =
  match Hashtbl.find_opt t.stacks track with
  | Some s -> s
  | None ->
    let s = ref [] in
    Hashtbl.replace t.stacks track s;
    s

let enter t ~ts_ns ~track ?segment name =
  if t.enabled then begin
    let stack = stack_for t track in
    stack := { name; start_ns = ts_ns; segment; child_ns = 0 } :: !stack
  end

(* Close one frame and fold it into the aggregates.  The frame's full
   elapsed time becomes a child of whatever scope is now on top, so the
   parent's self-time excludes it. *)
let retire t ~ts_ns ~track frame rest =
  let elapsed = Stdlib.max 0 (ts_ns - frame.start_ns) in
  let self = Stdlib.max 0 (elapsed - frame.child_ns) in
  let a = agg_for t frame.name in
  a.count <- a.count + 1;
  a.total_ns <- a.total_ns + elapsed;
  a.self_ns <- a.self_ns + self;
  (match track with
  | Trace.Core _ -> a.wall <- true
  | Trace.Proc _ | Trace.Run | Trace.Tenant _ -> ());
  (match frame.segment with Some s -> seg_add t s frame.name self | None -> ());
  (match rest with
  | parent :: _ -> parent.child_ns <- parent.child_ns + elapsed
  | [] -> ());
  a.self_ns

let leave t ~ts_ns ~track name =
  if not t.enabled then None
  else
    match Hashtbl.find_opt t.stacks track with
    | None -> None
    | Some stack -> (
      (* Tolerant innermost-name-matched pop, same discipline as
         Export.summary: teardown paths may close an outer scope while
         an inner one is still being unwound elsewhere. *)
      let rec pop acc = function
        | [] -> None
        | f :: rest when f.name = name -> Some (f, List.rev_append acc rest)
        | f :: rest -> pop (f :: acc) rest
      in
      match pop [] !stack with
      | None -> None
      | Some (frame, rest) ->
        stack := rest;
        Some (retire t ~ts_ns ~track frame rest))

let innermost_open t tracks =
  List.find_map
    (fun track ->
      match Hashtbl.find_opt t.stacks track with
      | Some { contents = top :: _ } -> Some top
      | _ -> None)
    tracks

let add_ns t ~tracks ?segment name ns =
  if not t.enabled then None
  else begin
    let a = agg_for t name in
    a.count <- a.count + 1;
    a.total_ns <- a.total_ns + ns;
    a.self_ns <- a.self_ns + ns;
    (match segment with Some s -> seg_add t s name ns | None -> ());
    (* The charge is a zero-width child of the enclosing open scope, if
       any: that scope's self-time must exclude it. *)
    (match innermost_open t tracks with
    | Some top -> top.child_ns <- top.child_ns + ns
    | None -> ());
    Some a.self_ns
  end

let add_units t ~tracks ~decoded ~insns ~blocks =
  if t.enabled then
    match innermost_open t tracks with
    | Some top ->
      let a = agg_for t top.name in
      a.insns <- a.insns + insns;
      a.blocks <- a.blocks + blocks;
      a.decoded <- a.decoded + decoded
    | None -> ()

let close_all t ~ts_ns =
  if t.enabled then begin
    let tracks =
      Hashtbl.fold (fun track _ acc -> track :: acc) t.stacks []
      |> List.sort compare
    in
    List.iter
      (fun track ->
        let stack = stack_for t track in
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | frame :: rest ->
            stack := rest;
            ignore (retire t ~ts_ns ~track frame rest)
        done)
      tracks
  end

let phases t =
  Hashtbl.fold
    (fun name (a : agg) acc ->
      ( name,
        {
          count = a.count;
          total_ns = a.total_ns;
          self_ns = a.self_ns;
          insns = a.insns;
          blocks = a.blocks;
          decoded = a.decoded;
          wall = a.wall;
        } )
      :: acc)
    t.sums []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let per_segment t =
  Hashtbl.fold
    (fun seg tbl acc ->
      let rows =
        Hashtbl.fold (fun name r acc -> (name, !r) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      (seg, rows) :: acc)
    t.per_seg []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let wall_attributed_ns t =
  Hashtbl.fold
    (fun _ (a : agg) acc -> if a.wall then acc + a.self_ns else acc)
    t.sums 0

let to_table t ~wall_ns =
  let b = Buffer.create 1024 in
  let all = phases t in
  let walls = List.filter (fun (_, s) -> s.wall) all in
  let works = List.filter (fun (_, s) -> not s.wall) all in
  let pct self =
    if wall_ns <= 0 then 0.0
    else 100.0 *. float_of_int self /. float_of_int wall_ns
  in
  let row (name, s) =
    Buffer.add_string b
      (Printf.sprintf "  %-18s %12d %12d %6d %5.1f%% %12d %10d %8d\n" name
         s.self_ns s.total_ns s.count (pct s.self_ns) s.insns s.blocks
         s.decoded)
  in
  Buffer.add_string b "phase self-time breakdown (simulated time):\n";
  Buffer.add_string b
    (Printf.sprintf "  %-18s %12s %12s %6s %6s %12s %10s %8s\n" "phase"
       "self_ns" "total_ns" "count" "%wall" "insns" "blocks" "decoded");
  if walls <> [] then begin
    Buffer.add_string b " main-core wall partition:\n";
    List.iter row walls
  end;
  if works <> [] then begin
    Buffer.add_string b " concurrent work (overlaps the wall rows):\n";
    List.iter row works
  end;
  let attributed = wall_attributed_ns t in
  Buffer.add_string b
    (Printf.sprintf "  wall attributed: %d / %d ns (%.1f%%)\n" attributed
       wall_ns (pct attributed));
  let segs = per_segment t in
  if segs <> [] then begin
    Buffer.add_string b " per-segment self-time:\n";
    List.iter
      (fun (seg, rows) ->
        Buffer.add_string b (Printf.sprintf "  seg %-4d" seg);
        List.iter
          (fun (name, ns) ->
            Buffer.add_string b (Printf.sprintf " %s=%d" name ns))
          rows;
        Buffer.add_char b '\n')
      segs
  end;
  Buffer.contents b
