let geomean xs =
  match xs with
  | [] -> 1.0
  | xs ->
    let n = List.length xs in
    let sum_logs =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.geomean: non-positive element";
          acc +. log x)
        0.0 xs
    in
    exp (sum_logs /. float_of_int n)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let percentage_overhead ~baseline ~measured =
  if baseline <= 0.0 then invalid_arg "Stats.percentage_overhead: baseline <= 0";
  ((measured /. baseline) -. 1.0) *. 100.0

let normalized ~baseline ~measured =
  if baseline <= 0.0 then invalid_arg "Stats.normalized: baseline <= 0";
  measured /. baseline

let clampf ~lo ~hi (x : float) = if x < lo then lo else if x > hi then hi else x
