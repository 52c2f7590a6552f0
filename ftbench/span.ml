(* Host-clock spans the benchmark records around each public call it
   makes into a library layer. A span carries its name, start and end
   (host seconds), its parent span, the iteration it belongs to and the
   minor/major heap words allocated while it was open. Spans stay in
   memory and are written out once, when the run ends. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  iter : int;
  start_s : float;
  mutable stop_s : float;
  mutable minor_words : float;
  mutable major_words : float;
}

let recorded : t list ref = ref [] (* closed spans, newest first *)
let open_stack : t list ref = ref []
let next_id = ref 0
let current_iter = ref 0

let set_iteration i = current_iter := i

let record name f =
  let parent = match !open_stack with s :: _ -> s.id | [] -> -1 in
  let minor0, _, major0 = Gc.counters () in
  let s =
    {
      id = !next_id;
      name;
      parent;
      iter = !current_iter;
      start_s = Unix.gettimeofday ();
      stop_s = nan;
      minor_words = 0.;
      major_words = 0.;
    }
  in
  incr next_id;
  open_stack := s :: !open_stack;
  Fun.protect f ~finally:(fun () ->
      s.stop_s <- Unix.gettimeofday ();
      let minor1, _, major1 = Gc.counters () in
      s.minor_words <- minor1 -. minor0;
      s.major_words <- major1 -. major0;
      open_stack := List.tl !open_stack;
      recorded := s :: !recorded)

let duration s = s.stop_s -. s.start_s
let of_iter iter = List.filter (fun s -> s.iter = iter) !recorded

(* Summed duration and minor words of the spans named [name] in [iter]. *)
let total ~iter name =
  List.fold_left
    (fun (d, w) s ->
      if s.name = name then (d +. duration s, w +. s.minor_words) else (d, w))
    (0., 0.) (of_iter iter)

let seconds ~iter name = fst (total ~iter name)

(* Duration of the root span named [name] in [iter]. *)
let root ~iter name =
  match List.find_opt (fun s -> s.parent = -1 && s.name = name) (of_iter iter) with
  | Some s -> duration s
  | None -> invalid_arg ("Span.root: no root span " ^ name)

(* Durations of every root span named [name], in every iteration. *)
let roots name =
  List.filter_map
    (fun s -> if s.parent = -1 && s.name = name then Some (duration s) else None)
    !recorded

(* Self time: a span's duration minus the part its children cover
   (children run one after another inside their parent). *)
let self_times ~iter =
  let spans = of_iter iter in
  List.map
    (fun s ->
      let covered =
        List.fold_left
          (fun acc c -> if c.parent = s.id then acc +. duration c else acc)
          0. spans
      in
      (s, duration s -. covered))
    spans

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"iter\":%d,\"start_s\":%.6f,\"end_s\":%.6f,\"minor_words\":%.0f,\"major_words\":%.0f}\n"
        s.id s.name s.parent s.iter s.start_s s.stop_s s.minor_words
        s.major_words)
    (List.rev !recorded);
  close_out oc
