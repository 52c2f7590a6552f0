type t = {
  frames : Fifo_cache.t; (* bounded resident set; drives eviction *)
  generations : int Util.Int_table.t; (* resident frame id -> generation, -1 if none *)
}

let create ~capacity =
  {
    frames = Fifo_cache.create ~capacity;
    generations = Util.Int_table.create ~absent:(-1) capacity;
  }

let lookup t ~frame ~generation =
  Util.Int_table.find t.generations frame = generation
  || begin
       (* Absent, or resident at an earlier content version of the same
          frame (an in-place write bumped the generation): the modelled
          runtime hashes the page and keeps the new digest. *)
       let victim = Fifo_cache.admit t.frames frame in
       if victim >= 0 then Util.Int_table.remove t.generations victim;
       Util.Int_table.replace t.generations frame generation;
       false
     end

let resident t = Util.Int_table.length t.generations

let clear t =
  Fifo_cache.clear t.frames;
  Util.Int_table.reset t.generations
