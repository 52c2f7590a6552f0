module Hist = struct
  type t = {
    mutable data : float array;
    mutable len : int;
    mutable sorted : bool;
  }

  let create () = { data = Array.make 64 0.0; len = 0; sorted = true }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1;
    t.sorted <- false

  let count t = t.len

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.len - 1 do
      s := !s +. t.data.(i)
    done;
    !s

  let ensure_sorted t =
    if not t.sorted then begin
      let live = Array.sub t.data 0 t.len in
      Array.sort compare live;
      Array.blit live 0 t.data 0 t.len;
      t.sorted <- true
    end

  let min t =
    if t.len = 0 then 0.0
    else begin
      ensure_sorted t;
      t.data.(0)
    end

  let max t =
    if t.len = 0 then 0.0
    else begin
      ensure_sorted t;
      t.data.(t.len - 1)
    end

  let mean t = if t.len = 0 then 0.0 else sum t /. float_of_int t.len

  let percentile t p =
    if t.len = 0 then 0.0
    else begin
      ensure_sorted t;
      let p = Util.Stats.clampf ~lo:0.0 ~hi:100.0 p in
      let rank = p /. 100.0 *. float_of_int (t.len - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      let frac = rank -. float_of_int lo in
      (t.data.(lo) *. (1.0 -. frac)) +. (t.data.(hi) *. frac)
    end
end

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
}

type t = (string, Hist.t) Hashtbl.t

let create () : t = Hashtbl.create 16

let observe t name v =
  let h =
    match Hashtbl.find_opt t name with
    | Some h -> h
    | None ->
      let h = Hist.create () in
      Hashtbl.replace t name h;
      h
  in
  Hist.add h v

let hist t name = Hashtbl.find_opt t name

let summarize h =
  {
    count = Hist.count h;
    sum = Hist.sum h;
    min = Hist.min h;
    max = Hist.max h;
    mean = Hist.mean h;
    p50 = Hist.percentile h 50.0;
    p90 = Hist.percentile h 90.0;
    p99 = Hist.percentile h 99.0;
    p999 = Hist.percentile h 99.9;
  }

let histograms t =
  Hashtbl.fold (fun k h acc -> (k, summarize h) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_text t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, s) ->
      Buffer.add_string b
        (Printf.sprintf
           "hist %s count=%d min=%.3f mean=%.3f p50=%.3f p90=%.3f p99=%.3f \
            p99.9=%.3f max=%.3f sum=%.3f\n"
           name s.count s.min s.mean s.p50 s.p90 s.p99 s.p999 s.max s.sum))
    (histograms t);
  Buffer.contents b
