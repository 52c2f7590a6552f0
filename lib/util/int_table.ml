(* Open addressing with linear probing over two parallel arrays. A free
   slot holds [empty] as its key and the table's [absent] value, so
   every slot of [vals] holds a value of the table's type and a probe
   that stops at a free slot can return [vals.(i)] as it is. The load
   factor stays at most 1/2, so every probe run ends at a free slot.
   Deletion shifts the rest of the run back instead of leaving a
   tombstone, so a probe never walks past a dead slot.

   The hash is Fibonacci hashing: the top bits of [k * golden], where
   [golden] is the odd integer nearest 2^63 / phi. Keys that differ in
   their low bits only (frame ids, vpns, pcs) land far apart. *)

let empty = min_int
let golden = 0x4F1BBCDCBFA53E0B
let min_slots = 8

type 'a t = {
  absent : 'a;
  initial : int; (* slot count at creation, restored by [reset] *)
  mutable keys : int array;
  mutable vals : 'a array;
  mutable shift : int; (* Sys.int_size - log2 (Array.length keys) *)
  mutable size : int;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let fresh t slots =
  t.keys <- Array.make slots empty;
  t.vals <- Array.make slots t.absent;
  t.shift <- Sys.int_size - log2 slots

let create ~absent n =
  let rec pow2 s = if s >= 2 * n then s else pow2 (2 * s) in
  let slots = pow2 min_slots in
  let t = { absent; initial = slots; keys = [||]; vals = [||]; shift = 0; size = 0 } in
  fresh t slots;
  t

let length t = t.size

(* The slot holding [k], or the free slot that ends its probe run. *)
let rec probe keys mask k i =
  let x = Array.unsafe_get keys i in
  if x = k || x = empty then i else probe keys mask k ((i + 1) land mask)

let[@inline] home t k = (k * golden) lsr t.shift

(* The home slot is tested inline: at load 1/2 most probes end there. *)
let[@inline] slot t k =
  let keys = t.keys and i = home t k in
  let x = Array.unsafe_get keys i in
  if x = k || x = empty then i
  else
    let mask = Array.length keys - 1 in
    probe keys mask k ((i + 1) land mask)

(* [min_int] is never bound: its probe stops at the first free slot,
   whose key is [empty]. *)
let mem t k = Array.unsafe_get t.keys (slot t k) <> empty
let find t k = Array.unsafe_get t.vals (slot t k)

let grow t =
  let keys = t.keys and vals = t.vals in
  fresh t (2 * Array.length keys);
  Array.iteri
    (fun j k ->
      if k <> empty then begin
        let i = slot t k in
        Array.unsafe_set t.keys i k;
        Array.unsafe_set t.vals i (Array.unsafe_get vals j)
      end)
    keys

let replace t k v =
  if k = empty then invalid_arg "Int_table.replace: min_int is not a key";
  let i = slot t k in
  if Array.unsafe_get t.keys i <> empty then Array.unsafe_set t.vals i v
  else begin
    let i =
      if 2 * (t.size + 1) > Array.length t.keys then begin
        grow t;
        slot t k
      end
      else i
    in
    t.size <- t.size + 1;
    Array.unsafe_set t.keys i k;
    Array.unsafe_set t.vals i v
  end

(* Backward-shift deletion: walk the run after the vacated slot [hole]
   and move back every entry whose home does not lie in (hole, j], so
   each remaining key stays reachable from its home without a gap. *)
let remove t k =
  let keys = t.keys and vals = t.vals in
  let mask = Array.length keys - 1 in
  let hole = ref (slot t k) in
  if Array.unsafe_get keys !hole <> empty then begin
    let j = ref ((!hole + 1) land mask) in
    while Array.unsafe_get keys !j <> empty do
      let x = Array.unsafe_get keys !j in
      if (!j - home t x) land mask >= (!j - !hole) land mask then begin
        Array.unsafe_set keys !hole x;
        Array.unsafe_set vals !hole (Array.unsafe_get vals !j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    Array.unsafe_set keys !hole empty;
    Array.unsafe_set vals !hole t.absent;
    t.size <- t.size - 1
  end

let reset t =
  if Array.length t.keys = t.initial then begin
    Array.fill t.keys 0 t.initial empty;
    Array.fill t.vals 0 t.initial t.absent
  end
  else fresh t t.initial;
  t.size <- 0

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> empty then f k (Array.unsafe_get vals i)
  done

let fold f t acc =
  let keys = t.keys and vals = t.vals in
  let acc = ref acc in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> empty then acc := f k (Array.unsafe_get vals i) !acc
  done;
  !acc
