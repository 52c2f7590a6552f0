type kind =
  | Stdout
  | Stderr
  | Dev_zero
  | Dev_urandom
  | Regular of string

type open_file = {
  kind : kind;
  mutable offset : int;
}

type fs = {
  files : (string, Bytes.t ref) Hashtbl.t;
  stdout : Buffer.t;
  stderr : Buffer.t;
  rng : Util.Rng.t;
}

let create_fs ~rng =
  { files = Hashtbl.create 16; stdout = Buffer.create 256; stderr = Buffer.create 64; rng }

let add_file fs ~path bytes = Hashtbl.replace fs.files path (ref bytes)

let file_exists fs ~path = Hashtbl.mem fs.files path

let lookup fs ~path ~create =
  match path with
  | "/dev/zero" -> Some Dev_zero
  | "/dev/urandom" -> Some Dev_urandom
  | _ ->
    if Hashtbl.mem fs.files path then Some (Regular path)
    else if create then begin
      add_file fs ~path (Bytes.create 0);
      Some (Regular path)
    end
    else None

let read fs of_ ~len =
  if len < 0 then invalid_arg "File.read: negative length";
  match of_.kind with
  | Stdout | Stderr -> Bytes.create 0
  | Dev_zero ->
    of_.offset <- of_.offset + len;
    Bytes.make len '\000'
  | Dev_urandom ->
    of_.offset <- of_.offset + len;
    let b = Bytes.create len in
    for i = 0 to len - 1 do
      Bytes.unsafe_set b i (Char.unsafe_chr (Util.Rng.int fs.rng 256))
    done;
    b
  | Regular path ->
    let contents = !(Hashtbl.find fs.files path) in
    let avail = Int.max 0 (Bytes.length contents - of_.offset) in
    let n = Int.min len avail in
    let b = Bytes.sub contents of_.offset n in
    of_.offset <- of_.offset + n;
    b

let write fs of_ data =
  let len = Bytes.length data in
  (match of_.kind with
  | Stdout -> Buffer.add_bytes fs.stdout data
  | Stderr -> Buffer.add_bytes fs.stderr data
  | Dev_zero | Dev_urandom -> ()
  | Regular path ->
    let r = Hashtbl.find fs.files path in
    let needed = of_.offset + len in
    if needed > Bytes.length !r then begin
      let grown = Bytes.make needed '\000' in
      Bytes.blit !r 0 grown 0 (Bytes.length !r);
      r := grown
    end;
    Bytes.blit data 0 !r of_.offset len);
  of_.offset <- of_.offset + len;
  len

let captured_stdout fs = Buffer.contents fs.stdout
