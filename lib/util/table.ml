type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let default_align ncols = Left :: List.init (Int.max 0 (ncols - 1)) (fun _ -> Right)

let render ?align ~header rows =
  let ncols = List.length header in
  let align = match align with Some a -> a | None -> default_align ncols in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell ->
        if i < ncols then widths.(i) <- Int.max widths.(i) (String.length cell))
      row
  in
  measure header;
  List.iter measure rows;
  let render_row row =
    let cells =
      List.mapi
        (fun i cell ->
          let a = try List.nth align i with Failure _ -> Right in
          pad a widths.(i) cell)
        row
    in
    String.concat "  " cells
  in
  let sep =
    String.concat "  "
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render_row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let print ?align ~header rows = print_string (render ?align ~header rows)

let bar_of_width fill w = String.make (Int.max 0 w) fill

let bar_chart ?(width = 50) ?(unit_label = "") series =
  let vmax = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 series in
  let label_w =
    List.fold_left (fun acc (l, _) -> Int.max acc (String.length l)) 0 series
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun (label, v) ->
      let v = Float.max 0.0 v in
      let w =
        if vmax <= 0.0 then 0
        else int_of_float (Float.round (v /. vmax *. float_of_int width))
      in
      Buffer.add_string buf (pad Left label_w label);
      Buffer.add_string buf "  |";
      Buffer.add_string buf (bar_of_width '#' w);
      Buffer.add_string buf (Printf.sprintf " %.1f%s\n" v unit_label))
    series;
  Buffer.contents buf

let group_fills = [| '#'; '='; '%'; '+'; 'o'; '*' |]

let grouped_bar_chart ?(width = 50) ~group_labels rows =
  let ngroups = List.length group_labels in
  List.iter
    (fun (_, vs) ->
      if List.length vs <> ngroups then
        invalid_arg "Table.grouped_bar_chart: ragged rows")
    rows;
  let vmax =
    List.fold_left
      (fun acc (_, vs) -> List.fold_left Float.max acc vs)
      0.0 rows
  in
  let label_w =
    List.fold_left (fun acc (l, _) -> Int.max acc (String.length l)) 0
      (rows @ List.map (fun l -> (l, [])) [])
  in
  let legend =
    String.concat "   "
      (List.mapi
         (fun i l ->
           Printf.sprintf "%c = %s" group_fills.(i mod Array.length group_fills) l)
         group_labels)
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf legend;
  Buffer.add_char buf '\n';
  List.iter
    (fun (label, vs) ->
      List.iteri
        (fun i v ->
          let v = Float.max 0.0 v in
          let w =
            if vmax <= 0.0 then 0
            else int_of_float (Float.round (v /. vmax *. float_of_int width))
          in
          let prefix = if i = 0 then pad Left label_w label else pad Left label_w "" in
          Buffer.add_string buf prefix;
          Buffer.add_string buf "  |";
          Buffer.add_string buf
            (bar_of_width group_fills.(i mod Array.length group_fills) w);
          Buffer.add_string buf (Printf.sprintf " %.1f\n" v))
        vs)
    rows;
  Buffer.contents buf

let stacked_bar_chart ?(width = 50) ~component_labels rows =
  let ncomp = List.length component_labels in
  List.iter
    (fun (_, vs) ->
      if List.length vs <> ncomp then
        invalid_arg "Table.stacked_bar_chart: ragged rows")
    rows;
  let drawn vs = List.fold_left (fun a v -> a +. Float.max 0.0 v) 0.0 vs in
  let vmax = List.fold_left (fun acc (_, vs) -> Float.max acc (drawn vs)) 0.0 rows in
  let label_w =
    List.fold_left (fun acc (l, _) -> Int.max acc (String.length l)) 0 rows
  in
  let legend =
    String.concat "   "
      (List.mapi
         (fun i l ->
           Printf.sprintf "%c = %s" group_fills.(i mod Array.length group_fills) l)
         component_labels)
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf legend;
  Buffer.add_char buf '\n';
  List.iter
    (fun (label, vs) ->
      Buffer.add_string buf (pad Left label_w label);
      Buffer.add_string buf "  |";
      List.iteri
        (fun i v ->
          let v = Float.max 0.0 v in
          let w =
            if vmax <= 0.0 then 0
            else int_of_float (Float.round (v /. vmax *. float_of_int width))
          in
          Buffer.add_string buf
            (bar_of_width group_fills.(i mod Array.length group_fills) w))
        vs;
      Buffer.add_string buf
        (Printf.sprintf " %.1f\n" (List.fold_left ( +. ) 0.0 vs)))
    rows;
  Buffer.contents buf
