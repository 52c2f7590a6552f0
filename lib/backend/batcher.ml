(* FIFO launch queue for the [Deferred] backend: finished segments
   accumulate here and are launched [batch] at a time, so one wakeup
   amortizes the fork/cache-warmup cost over the whole batch. *)

type 'a t = {
  mutable items : 'a list;  (* oldest first *)
  batch : int;
}

let create ~batch =
  if batch <= 0 then invalid_arg "Batcher.create: batch must be positive";
  { items = []; batch }

let length t = List.length t.items
let is_empty t = t.items = []
let push t x = t.items <- t.items @ [ x ]
let ready t = length t >= t.batch

(* Dequeue up to one batch, oldest first. *)
let take_batch t =
  let rec split n = function
    | xs when n = 0 -> ([], xs)
    | [] -> ([], [])
    | x :: rest ->
      let taken, left = split (n - 1) rest in
      (x :: taken, left)
  in
  let taken, left = split t.batch t.items in
  t.items <- left;
  taken

(* Rollback/abort: drop everything queued, returning it for teardown. *)
let clear t =
  let dropped = t.items in
  t.items <- [];
  dropped
