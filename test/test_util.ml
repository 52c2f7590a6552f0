let test_rng_deterministic () =
  let a = Util.Rng.create ~seed:42L in
  let b = Util.Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.next_int64 a)
      (Util.Rng.next_int64 b)
  done

let test_rng_seeds_differ () =
  let a = Util.Rng.create ~seed:1L in
  let b = Util.Rng.create ~seed:2L in
  Alcotest.(check bool) "different first draw" true
    (Util.Rng.next_int64 a <> Util.Rng.next_int64 b)

let test_rng_bounds () =
  let r = Util.Rng.create ~seed:7L in
  for _ = 1 to 1000 do
    let v = Util.Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.failf "out of bounds: %d" v
  done;
  for _ = 1 to 1000 do
    let v = Util.Rng.int_in r ~lo:5 ~hi:7 in
    if v < 5 || v > 7 then Alcotest.failf "int_in out of bounds: %d" v
  done

let test_rng_invalid () =
  let r = Util.Rng.create ~seed:1L in
  (try
     ignore (Util.Rng.int r 0);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    ignore (Util.Rng.int_in r ~lo:3 ~hi:2);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_rng_split_independent () =
  let parent = Util.Rng.create ~seed:5L in
  let child = Util.Rng.split parent in
  (* Splitting must not replay the parent stream. *)
  let c = Util.Rng.next_int64 child and p = Util.Rng.next_int64 parent in
  Alcotest.(check bool) "distinct streams" true (c <> p)

let test_rng_copy () =
  let a = Util.Rng.create ~seed:11L in
  ignore (Util.Rng.next_int64 a);
  let b = Util.Rng.copy a in
  Alcotest.(check int64) "copy replays" (Util.Rng.next_int64 a)
    (Util.Rng.next_int64 b)

let test_rng_float_range () =
  let r = Util.Rng.create ~seed:3L in
  for _ = 1 to 1000 do
    let v = Util.Rng.float r 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "float out of range: %f" v
  done

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean of [2;8]" 4.0 (Util.Stats.geomean [ 2.0; 8.0 ]);
  Alcotest.(check (float 1e-9)) "geomean singleton" 3.0 (Util.Stats.geomean [ 3.0 ]);
  Alcotest.(check (float 1e-9)) "geomean empty" 1.0 (Util.Stats.geomean []);
  try
    ignore (Util.Stats.geomean [ 1.0; 0.0 ]);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Util.Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Util.Stats.mean [])

let test_overhead () =
  Alcotest.(check (float 1e-9)) "overhead 20%" 20.0
    (Util.Stats.percentage_overhead ~baseline:10.0 ~measured:12.0);
  Alcotest.(check (float 1e-9)) "normalized" 1.2
    (Util.Stats.normalized ~baseline:10.0 ~measured:12.0);
  try
    ignore (Util.Stats.percentage_overhead ~baseline:0.0 ~measured:1.0);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_clampf () =
  Alcotest.(check (float 0.0)) "below" 1.0 (Util.Stats.clampf ~lo:1.0 ~hi:2.0 0.5);
  Alcotest.(check (float 0.0)) "above" 2.0 (Util.Stats.clampf ~lo:1.0 ~hi:2.0 9.0);
  Alcotest.(check (float 0.0)) "inside" 1.5 (Util.Stats.clampf ~lo:1.0 ~hi:2.0 1.5)

let test_table_render () =
  let out =
    Util.Table.render ~header:[ "name"; "value" ]
      [ [ "a"; "1" ]; [ "long-name"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "has 4+ lines" true (List.length lines >= 4);
  (* All non-empty lines share the same width. *)
  let widths =
    List.filter_map
      (fun l -> if l = "" then None else Some (String.length l))
      lines
  in
  List.iter (fun w -> Alcotest.(check int) "aligned" (List.hd widths) w) widths

let test_bar_chart () =
  let out = Util.Table.bar_chart ~width:10 [ ("x", 10.0); ("y", 5.0) ] in
  Alcotest.(check bool) "x has full bar" true
    (String.length out > 0
    && String.split_on_char '\n' out |> List.hd |> fun l ->
       String.contains l '#')

let test_grouped_bar_chart () =
  let out =
    Util.Table.grouped_bar_chart ~group_labels:[ "A"; "B" ]
      [ ("bench", [ 3.0; 4.0 ]) ]
  in
  Alcotest.(check bool) "legend present" true
    (String.length out > 0 && String.sub out 0 1 = "#");
  try
    ignore
      (Util.Table.grouped_bar_chart ~group_labels:[ "A" ] [ ("x", [ 1.0; 2.0 ]) ]);
    Alcotest.fail "expected Invalid_argument on ragged rows"
  with Invalid_argument _ -> ()

let test_stacked_bar_chart () =
  let out =
    Util.Table.stacked_bar_chart ~component_labels:[ "p"; "q" ]
      [ ("row", [ 1.0; 2.0 ]); ("neg", [ 3.0; -0.5 ]) ]
  in
  Alcotest.(check bool) "non-empty" true (String.length out > 0);
  (* A negative component is not drawn, but it counts in the label. *)
  Alcotest.(check (list string)) "labels are the signed sums" [ "3.0"; "2.5" ]
    (List.filter_map
       (fun line ->
         match String.rindex_opt line ' ' with
         | Some i when String.contains line '|' ->
           Some (String.sub line (i + 1) (String.length line - i - 1))
         | _ -> None)
       (String.split_on_char '\n' out))

let qcheck_rng_uniformish =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair int64 small_nat)
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let r = Util.Rng.create ~seed in
      let v = Util.Rng.int r bound in
      v >= 0 && v < bound)

let qcheck_geomean_scale =
  QCheck.Test.make ~name:"geomean scales linearly" ~count:200
    QCheck.(list_of_size Gen.(1 -- 10) (float_range 0.1 100.0))
    (fun xs ->
      let g = Util.Stats.geomean xs in
      let g2 = Util.Stats.geomean (List.map (fun x -> 2.0 *. x) xs) in
      Float.abs (g2 -. (2.0 *. g)) < 1e-6 *. Float.max 1.0 g2)

let test_pool_map_matches_list_map () =
  let xs = List.init 57 (fun i -> i) in
  Alcotest.(check (list int)) "jobs 4 ordered"
    (List.map (fun x -> x * x) xs)
    (Util.Pool.map ~jobs:4 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "jobs 1 ordered"
    (List.map (fun x -> x * x) xs)
    (Util.Pool.map ~jobs:1 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "empty" [] (Util.Pool.map ~jobs:4 (fun x -> x) [])

let test_pool_sequential_effect_order () =
  (* jobs = 1 is the plain sequential path: effects happen in input
     order on the calling domain, no domain is spawned. *)
  let seen = ref [] in
  ignore (Util.Pool.map ~jobs:1 (fun x -> seen := x :: !seen) [ 1; 2; 3; 4 ]);
  Alcotest.(check (list int)) "input order" [ 1; 2; 3; 4 ] (List.rev !seen)

let test_pool_exception_lowest_index () =
  (* Indices 3, 10 and 17 fail; whichever domain hits one first, the
     lowest-indexed failure must be the one re-raised. *)
  match
    Util.Pool.map ~jobs:4
      (fun i -> if i mod 7 = 3 then failwith (string_of_int i) else i)
      (List.init 21 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
    Alcotest.(check string) "lowest failing index wins" "3" msg

let test_pool_jobs_resolution () =
  let saved = Util.Pool.jobs () in
  Util.Pool.set_jobs 5;
  Alcotest.(check int) "set_jobs wins" 5 (Util.Pool.jobs ());
  Util.Pool.set_jobs 0;
  Alcotest.(check int) "clamped to 1" 1 (Util.Pool.jobs ());
  Util.Pool.set_jobs saved;
  Alcotest.(check bool) "default is at least 1" true
    (Util.Pool.default_jobs () >= 1)

let qcheck_pool_map_is_list_map =
  QCheck.Test.make ~name:"Pool.map = List.map at every width" ~count:50
    QCheck.(pair (int_range 1 5) (list_of_size Gen.(0 -- 30) int))
    (fun (jobs, xs) ->
      Util.Pool.map ~jobs (fun x -> (x * 31) lxor 7) xs
      = List.map (fun x -> (x * 31) lxor 7) xs)

(* Int_table against Stdlib.Hashtbl as the model ([find] of an unbound
   key is the table's [absent], here -1). Keys come from [-24, 24]:
   with 0 and negatives in a range that small, probe runs collide, some
   wrap past the table's last slot, removals inside a run shift later
   entries back, and a table created for one binding grows several
   times. After every step the length and the bindings seen by [iter]
   and by [fold] must be exactly the model's. *)
type itbl_op =
  | Replace of int * int
  | Remove of int
  | Find of int
  | Mem of int
  | Reset

let gen_itbl_op =
  let open QCheck.Gen in
  let key = int_range (-24) 24 in
  frequency
    [
      (6, map2 (fun k v -> Replace (k, v)) key (int_bound 1000));
      (3, map (fun k -> Remove k) key);
      (4, map (fun k -> Find k) key);
      (2, map (fun k -> Mem k) key);
      (1, return Reset);
    ]

let show_itbl_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Reset -> "reset"

let qcheck_int_table_model =
  QCheck.Test.make ~name:"Int_table = Hashtbl model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_itbl_op ops))
       QCheck.Gen.(list_size (0 -- 200) gen_itbl_op))
    (fun ops ->
      let t = Util.Int_table.create ~absent:(-1) 1 in
      let m = Hashtbl.create 8 in
      let sorted l = List.sort compare l in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Replace (k, v) ->
              Util.Int_table.replace t k v;
              Hashtbl.replace m k v;
              true
            | Remove k ->
              Util.Int_table.remove t k;
              Hashtbl.remove m k;
              true
            | Find k ->
              Util.Int_table.find t k = Option.value (Hashtbl.find_opt m k) ~default:(-1)
            | Mem k -> Util.Int_table.mem t k = Hashtbl.mem m k
            | Reset ->
              Util.Int_table.reset t;
              Hashtbl.reset m;
              true
          in
          let model = sorted (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m []) in
          let iterated = ref [] in
          Util.Int_table.iter (fun k v -> iterated := (k, v) :: !iterated) t;
          same
          && Util.Int_table.length t = Hashtbl.length m
          && sorted !iterated = model
          && sorted (Util.Int_table.fold (fun k v acc -> (k, v) :: acc) t []) = model)
        ops)

let test_int_table_min_int () =
  let t = Util.Int_table.create ~absent:"absent" 4 in
  Util.Int_table.replace t 0 "zero";
  (match Util.Int_table.replace t min_int "x" with
  | () -> Alcotest.fail "min_int accepted as a key"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "min_int never bound" false (Util.Int_table.mem t min_int);
  Alcotest.(check string) "find min_int is absent" "absent"
    (Util.Int_table.find t min_int);
  Util.Int_table.remove t min_int;
  Alcotest.(check int) "remove min_int is a no-op" 1 (Util.Int_table.length t);
  Alcotest.(check string) "0 still bound" "zero" (Util.Int_table.find t 0)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "util"
    [
      ( "rng",
        [
          tc "deterministic" `Quick test_rng_deterministic;
          tc "seeds differ" `Quick test_rng_seeds_differ;
          tc "bounds" `Quick test_rng_bounds;
          tc "invalid args" `Quick test_rng_invalid;
          tc "split independent" `Quick test_rng_split_independent;
          tc "copy replays" `Quick test_rng_copy;
          tc "float range" `Quick test_rng_float_range;
          QCheck_alcotest.to_alcotest qcheck_rng_uniformish;
        ] );
      ( "stats",
        [
          tc "geomean" `Quick test_geomean;
          tc "mean" `Quick test_mean;
          tc "overhead" `Quick test_overhead;
          tc "clampf" `Quick test_clampf;
          QCheck_alcotest.to_alcotest qcheck_geomean_scale;
        ] );
      ( "pool",
        [
          tc "map matches List.map" `Quick test_pool_map_matches_list_map;
          tc "sequential effect order" `Quick test_pool_sequential_effect_order;
          tc "exception lowest index" `Quick test_pool_exception_lowest_index;
          tc "jobs resolution" `Quick test_pool_jobs_resolution;
          QCheck_alcotest.to_alcotest qcheck_pool_map_is_list_map;
        ] );
      ( "itbl",
        [
          QCheck_alcotest.to_alcotest qcheck_int_table_model;
          tc "min_int is not a key" `Quick test_int_table_min_int;
        ] );
      ( "table",
        [
          tc "render aligns" `Quick test_table_render;
          tc "bar chart" `Quick test_bar_chart;
          tc "grouped bar chart" `Quick test_grouped_bar_chart;
          tc "stacked bar chart" `Quick test_stacked_bar_chart;
        ] );
    ]
