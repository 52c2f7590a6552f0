type t = {
  frames : Fifo_cache.t; (* bounded resident set; drives eviction *)
  generations : (int, int) Hashtbl.t; (* resident frame id -> generation *)
}

let create ~capacity =
  { frames = Fifo_cache.create ~capacity; generations = Hashtbl.create (2 * capacity) }

let lookup t ~frame ~generation =
  match Hashtbl.find_opt t.generations frame with
  | Some g when g = generation -> true
  | Some _ | None ->
    (* Absent, or resident at an earlier content version of the same
       frame (an in-place write bumped the generation): the modelled
       runtime hashes the page and keeps the new digest. *)
    (match Fifo_cache.admit t.frames frame with
    | Some victim -> Hashtbl.remove t.generations victim
    | None -> ());
    Hashtbl.replace t.generations frame generation;
    false

let resident t = Hashtbl.length t.generations

let clear t =
  Fifo_cache.clear t.frames;
  Hashtbl.reset t.generations
