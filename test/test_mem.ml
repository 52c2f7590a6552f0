let page_size = 4096

let fresh_pt () =
  Mem.Page_table.create (Mem.Frame.allocator ~page_size)

let fresh_as () = Mem.Address_space.create (Mem.Frame.allocator ~page_size)

let test_frame_refcounting () =
  let a = Mem.Frame.allocator ~page_size in
  let f = Mem.Frame.alloc_zero a in
  Alcotest.(check int) "live" 1 (Mem.Frame.live_frames a);
  Mem.Frame.incref f;
  Mem.Frame.decref a f;
  Alcotest.(check int) "still live" 1 (Mem.Frame.live_frames a);
  Mem.Frame.decref a f;
  Alcotest.(check int) "freed" 0 (Mem.Frame.live_frames a);
  try
    Mem.Frame.decref a f;
    Alcotest.fail "double free accepted"
  with Invalid_argument _ -> ()

let test_frame_incref_after_free () =
  let a = Mem.Frame.allocator ~page_size in
  let f = Mem.Frame.alloc_zero a in
  Mem.Frame.decref a f;
  match Mem.Frame.incref f with
  | () -> Alcotest.fail "incref revived a freed frame"
  | exception Invalid_argument _ ->
    Alcotest.(check int) "still freed" 0 f.Mem.Frame.refcount

let test_frame_buffer_recycled () =
  let a = Mem.Frame.allocator ~page_size in
  let clen = Mem.Frame.chunk_bytes a in
  let keep = Mem.Frame.alloc_zero a in
  Bytes.fill (Mem.Frame.writable_chunk a keep 0) 0 clen 'k';
  let f = Mem.Frame.alloc_copy a keep in
  let x = Mem.Frame.writable_chunk a f 0 in
  Bytes.fill x 0 clen 'x';
  Mem.Frame.decref a f;
  Alcotest.(check int) "freed chunk kept while a chunk lives" 1
    (Mem.Frame.spare_chunks a);
  let z = Mem.Frame.alloc_zero a in
  Alcotest.(check bool) "with a new id" true (z.Mem.Frame.id > f.Mem.Frame.id);
  Alcotest.(check bool) "a zero frame takes no chunk" true
    (Mem.Frame.spare_chunks a = 1
    && Array.for_all
         (fun c -> Bytes.for_all (fun ch -> ch = '\000') c.Mem.Frame.bytes)
         z.Mem.Frame.chunks);
  let zc = Mem.Frame.writable_chunk a z 1 in
  Alcotest.(check bool) "zero chunk copy reuses the chunk" true (zc == x);
  Alcotest.(check bool) "and all zeros" true (Bytes.for_all (fun c -> c = '\000') zc);
  Mem.Frame.decref a z;
  let c = Mem.Frame.alloc_copy a keep in
  let cc = Mem.Frame.writable_chunk a c 0 in
  Alcotest.(check bool) "copy reuses the chunk" true (cc == x);
  Alcotest.(check string) "and holds the source bytes" (String.make clen 'k')
    (Bytes.to_string cc);
  Mem.Frame.decref a c;
  Mem.Frame.decref a keep;
  Alcotest.(check int) "no spares without live chunks" 0 (Mem.Frame.spare_chunks a);
  Alcotest.(check int) "no live chunks" 0 (Mem.Frame.live_chunks a)

(* The point of chunked frames: a COW copy followed by one store copies
   one chunk, and the two frames keep sharing the rest. *)
let test_fork_store_shares_all_but_one_chunk () =
  let page_size = 16384 in
  let alloc = Mem.Frame.allocator ~page_size in
  let nchunks = page_size / Mem.Frame.chunk_bytes alloc in
  Alcotest.(check bool) "several chunks per page" true (nchunks > 2);
  let aspace = Mem.Address_space.create alloc in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(2 * page_size)
    Mem.Page_table.Read_write;
  (* Page 0 gets a private chunk everywhere; page 1 stays on the zero
     chunk. *)
  for i = 0 to nchunks - 1 do
    Mem.Address_space.store64 aspace (i * Mem.Frame.chunk_bytes alloc) (i + 1)
  done;
  let child = Mem.Address_space.fork aspace in
  let shared vpn =
    let frame a = Mem.Page_table.read_frame (Mem.Address_space.page_table a) ~vpn in
    let p = frame aspace and c = frame child in
    Alcotest.(check bool) "distinct frames" true (p != c);
    let n = ref 0 in
    Array.iteri
      (fun i ch -> if ch == c.Mem.Frame.chunks.(i) then incr n)
      p.Mem.Frame.chunks;
    !n
  in
  List.iter
    (fun vpn ->
      let copies0 = Mem.Frame.copies alloc in
      Mem.Address_space.store64 child ((vpn * page_size) + 4000) 7;
      Alcotest.(check int) "one COW page copy" (copies0 + 1) (Mem.Frame.copies alloc);
      Alcotest.(check int)
        (Printf.sprintf "page %d: every chunk shared but one" vpn)
        (nchunks - 1) (shared vpn);
      Alcotest.(check int) "parent unchanged" 0
        (Mem.Address_space.load64 aspace ((vpn * page_size) + 4000));
      Alcotest.(check int) "child sees its store" 7
        (Mem.Address_space.load64 child ((vpn * page_size) + 4000)))
    [ 0; 1 ]

let test_frame_alloc_validation () =
  (try
     ignore (Mem.Frame.allocator ~page_size:0);
     Alcotest.fail "zero page size accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Mem.Frame.allocator ~page_size:100);
    Alcotest.fail "non-multiple-of-8 accepted"
  with Invalid_argument _ -> ()

let test_pt_map_unmap () =
  let pt = fresh_pt () in
  Mem.Page_table.map_zero pt ~vpn:3 Mem.Page_table.Read_write;
  Alcotest.(check bool) "mapped" true (Mem.Page_table.is_mapped pt ~vpn:3);
  (try
     Mem.Page_table.map_zero pt ~vpn:3 Mem.Page_table.Read_write;
     Alcotest.fail "double map accepted"
   with Invalid_argument _ -> ());
  Mem.Page_table.unmap pt ~vpn:3;
  Alcotest.(check bool) "unmapped" false (Mem.Page_table.is_mapped pt ~vpn:3);
  try
    Mem.Page_table.unmap pt ~vpn:3;
    Alcotest.fail "double unmap accepted"
  with Invalid_argument _ -> ()

let test_pt_fault_on_unmapped () =
  let pt = fresh_pt () in
  try
    ignore (Mem.Page_table.read_frame pt ~vpn:9);
    Alcotest.fail "expected Page_fault"
  with Mem.Page_table.Page_fault { vpn = 9; write = false } -> ()

let test_pt_read_only_write_faults () =
  let pt = fresh_pt () in
  Mem.Page_table.map_zero pt ~vpn:1 Mem.Page_table.Read_only;
  try
    ignore (Mem.Page_table.store_prepare pt ~vpn:1);
    Alcotest.fail "expected Page_fault"
  with Mem.Page_table.Page_fault { vpn = 1; write = true } -> ()

let test_cow_fork_isolation () =
  let aspace = fresh_as () in
  Mem.Address_space.map_range aspace ~addr:0 ~len:page_size
    Mem.Page_table.Read_write;
  Mem.Address_space.store64 aspace 0 111;
  let child = Mem.Address_space.fork aspace in
  (* Child sees the parent's value... *)
  Alcotest.(check int) "child inherits" 111 (Mem.Address_space.load64 child 0);
  (* ...writes are isolated both ways... *)
  Mem.Address_space.store64 child 0 222;
  Alcotest.(check int) "parent unaffected" 111 (Mem.Address_space.load64 aspace 0);
  Mem.Address_space.store64 aspace 8 333;
  Alcotest.(check int) "child unaffected" 0 (Mem.Address_space.load64 child 8)

let test_cow_copy_counted () =
  let alloc = Mem.Frame.allocator ~page_size in
  let aspace = Mem.Address_space.create alloc in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(4 * page_size)
    Mem.Page_table.Read_write;
  let child = Mem.Address_space.fork aspace in
  let copies0 = Mem.Frame.copies alloc in
  (* First write to a shared page copies it; the second does not. *)
  Mem.Address_space.store64 child 0 1;
  Alcotest.(check bool) "cow flagged" true (Mem.Address_space.last_cow child);
  Mem.Address_space.store64 child 8 2;
  Alcotest.(check bool) "second write no cow" false
    (Mem.Address_space.last_cow child);
  Alcotest.(check int) "exactly one copy" (copies0 + 1) (Mem.Frame.copies alloc)

let test_soft_dirty () =
  let aspace = fresh_as () in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(4 * page_size)
    Mem.Page_table.Read_write;
  let pt = Mem.Address_space.page_table aspace in
  Mem.Page_table.clear_soft_dirty pt;
  Alcotest.(check (array int)) "clean after clear" [||]
    (Mem.Page_table.soft_dirty_pages pt);
  Mem.Address_space.store64 aspace (2 * page_size) 7;
  Mem.Address_space.store8 aspace 5 1;
  Alcotest.(check (array int)) "exactly the written pages" [| 0; 2 |]
    (Mem.Page_table.soft_dirty_pages pt);
  (* Reads never dirty. *)
  ignore (Mem.Address_space.load64 aspace (3 * page_size));
  Alcotest.(check (array int)) "reads don't dirty" [| 0; 2 |]
    (Mem.Page_table.soft_dirty_pages pt)

let test_map_count_tracking () =
  (* The PAGEMAP_SCAN method: after a fork, only written pages have map
     count 1. *)
  let aspace = fresh_as () in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(4 * page_size)
    Mem.Page_table.Read_write;
  let child = Mem.Address_space.fork aspace in
  let child_pt = Mem.Address_space.page_table child in
  Alcotest.(check (array int)) "all shared after fork" [||]
    (Mem.Page_table.uniquely_mapped child_pt);
  Mem.Address_space.store64 child (page_size * 3) 9;
  Alcotest.(check (array int)) "written page unique" [| 3 |]
    (Mem.Page_table.uniquely_mapped child_pt)

let test_dirty_mechanisms_agree_after_fork () =
  (* Soft-dirty (cleared at fork time) and map-count must agree on pages
     written after a fork — the property that makes the two tracking
     backends interchangeable in the comparator. *)
  let aspace = fresh_as () in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(8 * page_size)
    Mem.Page_table.Read_write;
  let child = Mem.Address_space.fork aspace in
  let child_pt = Mem.Address_space.page_table child in
  Mem.Page_table.clear_soft_dirty child_pt;
  Mem.Address_space.store64 child (page_size * 1) 1;
  Mem.Address_space.store64 child (page_size * 5) 2;
  Mem.Address_space.store8 child ((page_size * 6) + 100) 3;
  Alcotest.(check (array int)) "soft-dirty = map-count"
    (Mem.Page_table.soft_dirty_pages child_pt)
    (Mem.Page_table.uniquely_mapped child_pt)

let test_pss () =
  let alloc = Mem.Frame.allocator ~page_size in
  let aspace = Mem.Address_space.create alloc in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(2 * page_size)
    Mem.Page_table.Read_write;
  let pt = Mem.Address_space.page_table aspace in
  Alcotest.(check int) "sole owner" (2 * page_size) (Mem.Page_table.pss_bytes pt);
  let child = Mem.Address_space.fork aspace in
  Alcotest.(check int) "halved when shared" page_size
    (Mem.Page_table.pss_bytes pt);
  Mem.Address_space.store64 child 0 5;
  (* Child copied page 0: child owns one page fully, shares one. *)
  Alcotest.(check int) "child pss"
    (page_size + (page_size / 2))
    (Mem.Page_table.pss_bytes (Mem.Address_space.page_table child))

let test_unaligned_access_across_pages () =
  let aspace = fresh_as () in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(2 * page_size)
    Mem.Page_table.Read_write;
  let addr = page_size - 4 in
  Mem.Address_space.store64 aspace addr 0x1122334455667788;
  Alcotest.(check int) "straddling store/load roundtrip" 0x1122334455667788
    (Mem.Address_space.load64 aspace addr)

(* The guest page walk allocates nothing: a load or a store on a mapped,
   exclusively owned page costs no minor words (a COW or a fault may
   allocate). The pages are sparse vpns spread over a table that grew
   several times, so page-table probes collide. *)
let test_page_walk_allocates_nothing () =
  let aspace = fresh_as () in
  let pages = 600 in
  let addr_of i = (i mod pages * 97 + (i land 3)) * page_size + (8 * (i land 255)) in
  for p = 0 to pages - 1 do
    Mem.Address_space.map_range aspace ~addr:(p * 97 * page_size) ~len:(4 * page_size)
      Mem.Page_table.Read_write
  done;
  for i = 0 to 9_999 do
    Mem.Address_space.store64 aspace (addr_of i) i
  done;
  let sum = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    let a = addr_of i in
    Mem.Address_space.store64 aspace a i;
    Mem.Address_space.store8 aspace (a + 1) i;
    sum := !sum + Mem.Address_space.load64 aspace a + Mem.Address_space.load8 aspace a
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "40k accesses allocate no minor words (got %.0f)" words)
    true (words < 100.);
  ignore !sum

let test_read_write_bytes () =
  let aspace = fresh_as () in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(2 * page_size)
    Mem.Page_table.Read_write;
  let data = Bytes.of_string "hello across a page boundary" in
  ignore (Mem.Address_space.write_bytes aspace ~addr:(page_size - 5) data);
  let back =
    Mem.Address_space.read_bytes aspace ~addr:(page_size - 5)
      ~len:(Bytes.length data)
  in
  Alcotest.(check string) "roundtrip" (Bytes.to_string data) (Bytes.to_string back)

let test_write_bytes_map () =
  let aspace = fresh_as () in
  Mem.Address_space.write_bytes_map aspace ~addr:(10 * page_size)
    (Bytes.of_string "auto-mapped");
  Alcotest.(check string) "loader path maps pages" "auto-mapped"
    (Bytes.to_string
       (Mem.Address_space.read_bytes aspace ~addr:(10 * page_size) ~len:11))

(* The guest-access fault contract: an access that cannot complete raises
   [Segfault] with the address of the first byte it could not reach and
   whether the access was a store. A straddling load assembles its bytes
   from the highest address down and a straddling store writes them from
   the lowest up, so across a page boundary the load names its own last
   byte and the store the first byte of the next page. *)
let test_segfault_exn () =
  let module A = Mem.Address_space in
  let aspace = fresh_as () in
  let page n = n * page_size in
  A.map_range aspace ~addr:(page 0) ~len:page_size Mem.Page_table.Read_write;
  A.map_range aspace ~addr:(page 2) ~len:page_size Mem.Page_table.Read_only;
  A.map_range aspace ~addr:(page 4) ~len:page_size Mem.Page_table.Read_write;
  A.unmap_range aspace ~addr:(page 4) ~len:page_size;
  let load f a () = ignore (f aspace a) and store f a () = f aspace a 1 in
  List.iter
    (fun (name, access, addr, write) ->
      match access () with
      | () -> Alcotest.failf "%s: no Segfault" name
      | exception A.Segfault { addr = a; write = w } ->
        Alcotest.(check (pair int bool)) name (addr, write) (a, w))
    [
      ("load64, never mapped", load A.load64 0xdead000, 0xdead000, false);
      ("load8, never mapped", load A.load8 0xdead005, 0xdead005, false);
      ("load64, unmapped", load A.load64 (page 4 + 8), page 4 + 8, false);
      ("load8, unmapped", load A.load8 (page 4 + 3), page 4 + 3, false);
      ("store64, read-only", store A.store64 (page 2 + 16), page 2 + 16, true);
      ("store8, read-only", store A.store8 (page 2 + 7), page 2 + 7, true);
      ("load64 into an unmapped page", load A.load64 (page 1 - 4), page 1 + 3, false);
      ("store64 into an unmapped page", store A.store64 (page 1 - 4), page 1, true);
    ];
  Alcotest.(check int) "a read-only page reads" 0 (A.load64 aspace (page 2 + 16))

(* A faulting access reports no access: [last_frame] and [last_cow] stay
   those of the last access that completed, here a store that broke COW
   sharing. *)
let test_fault_keeps_last_access () =
  let module A = Mem.Address_space in
  let aspace = fresh_as () in
  A.map_range aspace ~addr:0 ~len:page_size Mem.Page_table.Read_write;
  A.map_range aspace ~addr:(2 * page_size) ~len:page_size Mem.Page_table.Read_only;
  let child = A.fork aspace in
  A.store64 child 8 2;
  let frame = A.last_frame child in
  Alcotest.(check bool) "the store broke COW" true (A.last_cow child);
  List.iter
    (fun (name, access) ->
      (match access () with
       | () -> Alcotest.failf "%s: no Segfault" name
       | exception A.Segfault _ -> ());
      Alcotest.(check int) (name ^ ": last_frame") frame (A.last_frame child);
      Alcotest.(check bool) (name ^ ": last_cow") true (A.last_cow child))
    [
      ("load64", fun () -> ignore (A.load64 child (5 * page_size)));
      ("load8", fun () -> ignore (A.load8 child ((5 * page_size) + 1)));
      ("store64", fun () -> A.store64 child ((2 * page_size) + 8) 1);
      ("store8", fun () -> A.store8 child ((2 * page_size) + 1) 1);
    ]

let test_fifo_cache_basics () =
  let c = Mem.Fifo_cache.create ~capacity:2 in
  Alcotest.(check bool) "first touch misses" false (Mem.Fifo_cache.touch c 1);
  Alcotest.(check bool) "second touch hits" true (Mem.Fifo_cache.touch c 1);
  ignore (Mem.Fifo_cache.touch c 2);
  ignore (Mem.Fifo_cache.touch c 3);
  (* capacity 2: exactly one of {1, 2} was evicted to admit 3 *)
  Alcotest.(check bool) "newest resident" true (Mem.Fifo_cache.mem c 3);
  Alcotest.(check int) "one eviction"
    2
    (List.length (List.filter (Mem.Fifo_cache.mem c) [ 1; 2; 3 ]));
  Alcotest.(check int) "hits" 1 (Mem.Fifo_cache.hits c);
  Alcotest.(check int) "misses" 3 (Mem.Fifo_cache.misses c)

let test_fifo_cache_admit_reports_eviction () =
  let c = Mem.Fifo_cache.create ~capacity:1 in
  Alcotest.(check int) "filling a free slot evicts nobody" (-1)
    (Mem.Fifo_cache.admit c 1);
  Alcotest.(check int) "hit evicts nobody" (-1) (Mem.Fifo_cache.admit c 1);
  Alcotest.(check int) "capacity-1 admit names the victim" 1
    (Mem.Fifo_cache.admit c 2);
  Alcotest.(check bool) "victim gone" false (Mem.Fifo_cache.mem c 1);
  Alcotest.(check bool) "newcomer resident" true (Mem.Fifo_cache.mem c 2);
  (* [remove] frees the slot, so the next admit reuses it silently. *)
  Mem.Fifo_cache.remove c 2;
  Alcotest.(check int) "freed slot reused without eviction" (-1)
    (Mem.Fifo_cache.admit c 3)

(* The index stores slot + 1 in 16 bits: a capacity of 0xFFFF or more
   is refused, and a negative key fails every operation. *)
let test_fifo_cache_limits () =
  let refused capacity =
    match Mem.Fifo_cache.create ~capacity with
    | _ -> Alcotest.failf "capacity %d accepted" capacity
    | exception Invalid_argument _ -> ()
  in
  List.iter refused [ 0; -1; 0xFFFF; 0x10000; 100_000 ];
  let c = Mem.Fifo_cache.create ~capacity:Mem.Fifo_cache.max_capacity in
  Alcotest.(check int) "0xFFFE accepted" 0xFFFE (Mem.Fifo_cache.capacity c);
  for k = 0 to 0xFFFD do
    ignore (Mem.Fifo_cache.touch c (3 * k))
  done;
  Alcotest.(check bool) "last slot's key resident" true
    (Mem.Fifo_cache.mem c (3 * 0xFFFD));
  let victim = Mem.Fifo_cache.admit c 1 in
  Alcotest.(check bool) "a full cache evicts one of its keys" true
    (victim >= 0 && victim mod 3 = 0 && not (Mem.Fifo_cache.mem c victim));
  Alcotest.(check bool) "the newcomer is resident" true (Mem.Fifo_cache.mem c 1);
  Alcotest.(check bool) "key past the end absent" false
    (Mem.Fifo_cache.mem c 10_000_000);
  Mem.Fifo_cache.remove c 10_000_000;
  List.iter
    (fun (name, op) ->
      match op c (-1) with
      | () -> Alcotest.failf "%s of -1 accepted" name
      | exception Invalid_argument _ -> ())
    [
      ("mem", fun c k -> ignore (Mem.Fifo_cache.mem c k));
      ("touch", fun c k -> ignore (Mem.Fifo_cache.touch c k));
      ("admit", fun c k -> ignore (Mem.Fifo_cache.admit c k));
      ("remove", Mem.Fifo_cache.remove);
    ]

(* The Hashtbl-based cache this module replaced, kept verbatim as the
   reference: the table under the cache, the free-slot list and the
   victim's type changed, the replacement policy must not. *)
module Reference = struct
  type t = {
    cap : int;
    resident : (int, int) Hashtbl.t; (* frame -> slot *)
    slots : int array; (* slot -> frame, -1 = free *)
    mutable filled : int;
    mutable free : int list; (* slots vacated by [remove] *)
    mutable rng_state : int; (* xorshift for victim selection *)
    mutable hits : int;
    mutable misses : int;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Fifo_cache.create: capacity <= 0";
    {
      cap = capacity;
      resident = Hashtbl.create (2 * capacity);
      slots = Array.make capacity (-1);
      filled = 0;
      free = [];
      rng_state = 0x2545F491;
      hits = 0;
      misses = 0;
    }

  let capacity t = t.cap

  let mem t frame = Hashtbl.mem t.resident frame

  (* Deterministic xorshift; random replacement makes the miss rate degrade
     smoothly as the resident set outgrows capacity, instead of the
     all-or-nothing cliff FIFO/LRU exhibit on cyclic access patterns. *)
  let next_victim t =
    let x = t.rng_state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = (x lxor (x lsl 17)) land max_int in
    t.rng_state <- x;
    x mod t.cap

  (* Insert a non-resident [frame], returning the resident it displaced. *)
  let install t frame =
    let slot =
      match t.free with
      | s :: rest ->
        t.free <- rest;
        s
      | [] ->
        if t.filled < t.cap then begin
          let s = t.filled in
          t.filled <- t.filled + 1;
          s
        end
        else next_victim t
    in
    let old = t.slots.(slot) in
    let evicted =
      if old >= 0 then begin
        Hashtbl.remove t.resident old;
        Some old
      end
      else None
    in
    t.slots.(slot) <- frame;
    Hashtbl.replace t.resident frame slot;
    evicted

  let touch t frame =
    if Hashtbl.mem t.resident frame then begin
      t.hits <- t.hits + 1;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      ignore (install t frame);
      false
    end

  let admit t frame =
    if Hashtbl.mem t.resident frame then begin
      t.hits <- t.hits + 1;
      None
    end
    else begin
      t.misses <- t.misses + 1;
      install t frame
    end

  let remove t frame =
    match Hashtbl.find_opt t.resident frame with
    | None -> ()
    | Some slot ->
      Hashtbl.remove t.resident frame;
      t.slots.(slot) <- -1;
      t.free <- slot :: t.free

  let hits t = t.hits
  let misses t = t.misses
end

type cache_op = Touch of int | Admit of int | Remove of int | Mem of int

let show_cache_op = function
  | Touch k -> Printf.sprintf "touch %d" k
  | Admit k -> Printf.sprintf "admit %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Mem k -> Printf.sprintf "mem %d" k

(* Keys mix a dense small range (hits and evictions) with keys up to
   ~100k, drawn both from a few wide values that recur and uniformly,
   so the index grows mid-sequence and [mem]/[remove] ask about keys
   past its end. *)
let qcheck_fifo_cache_matches_reference =
  let gen_op =
    let open QCheck.Gen in
    let key =
      frequency
        [
          (6, int_bound 40);
          (2, map (fun k -> 997 * k) (int_bound 100));
          (1, int_bound 100_000);
        ]
    in
    frequency
      [
        (6, map (fun k -> Touch k) key);
        (3, map (fun k -> Admit k) key);
        (2, map (fun k -> Remove k) key);
        (2, map (fun k -> Mem k) key);
      ]
  in
  QCheck.Test.make ~name:"Fifo_cache = Hashtbl reference" ~count:300
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap
           (String.concat "; " (List.map show_cache_op ops)))
       QCheck.Gen.(pair (1 -- 16) (list_size (0 -- 300) gen_op)))
    (fun (capacity, ops) ->
      let c = Mem.Fifo_cache.create ~capacity and r = Reference.create ~capacity in
      Mem.Fifo_cache.capacity c = Reference.capacity r
      && List.for_all
        (fun op ->
          (match op with
          | Touch k -> Mem.Fifo_cache.touch c k = Reference.touch r k
          | Admit k ->
            Mem.Fifo_cache.admit c k
            = Option.value (Reference.admit r k) ~default:(-1)
          | Remove k ->
            Mem.Fifo_cache.remove c k;
            Reference.remove r k;
            true
          | Mem k -> Mem.Fifo_cache.mem c k = Reference.mem r k)
          && Mem.Fifo_cache.hits c = Reference.hits r
          && Mem.Fifo_cache.misses c = Reference.misses r)
        ops)

(* The cache model runs on every guest load and store, a COW copy
   removes the dead frame, and the block cache admits every decoded
   block: once the index covers every key in use, a hit, an evicting
   miss, a remove and an evicting admit allocate nothing, minor or
   major. Installing the largest key first (then removing it) grows the
   index to cover the rest. *)
let test_fifo_cache_allocates_nothing () =
  let c = Mem.Fifo_cache.create ~capacity:64 in
  ignore (Mem.Fifo_cache.touch c 29_999);
  Mem.Fifo_cache.remove c 29_999;
  for k = 0 to 63 do
    ignore (Mem.Fifo_cache.touch c k)
  done;
  let hits = ref 0 and victims = ref 0 in
  (* Minor and major words allocated by 10k rounds; [Gc.counters]
     counts a direct major allocation at once, and its own tuple falls
     outside the window. *)
  let words loop =
    (* An empty minor heap: the counters' own allocation cannot start a
       collection that promotes into the window. *)
    Gc.minor ();
    let _, _, major0 = Gc.counters () in
    let w0 = Gc.minor_words () in
    for i = 0 to 9_999 do
      loop i
    done;
    let minor = Gc.minor_words () -. w0 in
    let _, _, major1 = Gc.counters () in
    (minor, major1 -. major0)
  in
  let hit_words =
    words (fun i -> if Mem.Fifo_cache.touch c (i land 63) then incr hits)
  in
  let miss_words =
    words (fun i -> if Mem.Fifo_cache.touch c (1_000 + i) then incr hits)
  in
  (* The last miss is resident: each round re-admits it into the slot
     the previous round's remove vacated. *)
  Mem.Fifo_cache.remove c 10_999;
  let remove_words =
    words (fun _ ->
        if Mem.Fifo_cache.touch c 10_999 then incr hits;
        Mem.Fifo_cache.remove c 10_999)
  in
  ignore (Mem.Fifo_cache.touch c 10_999);
  let admit_words =
    words (fun i -> if Mem.Fifo_cache.admit c (20_000 + i) >= 0 then incr victims)
  in
  Alcotest.(check int) "10k hits, then misses only" 10_000 !hits;
  Alcotest.(check int) "every round missed" 30_066 (Mem.Fifo_cache.misses c);
  Alcotest.(check int) "every admit evicted" 10_000 !victims;
  let all = [ hit_words; miss_words; remove_words; admit_words ] in
  Alcotest.(check (list (float 0.)))
    "minor words (hits, misses, remove+touch, admits)" [ 0.; 0.; 0.; 0. ]
    (List.map fst all);
  Alcotest.(check (list (float 0.)))
    "major words (hits, misses, remove+touch, admits)" [ 0.; 0.; 0.; 0. ]
    (List.map snd all)

let test_frame_generation_bumps_in_place_only () =
  let aspace = fresh_as () in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(2 * page_size)
    Mem.Page_table.Read_write;
  let pt = Mem.Address_space.page_table aspace in
  let id pt = (Mem.Page_table.read_frame pt ~vpn:0).Mem.Frame.id in
  let id0 = id pt in
  (* Exclusively owned: the store lands in place. *)
  Mem.Address_space.store64 aspace 0 1;
  let id1 = id pt in
  Alcotest.(check int) "in-place write keeps the frame" id0 id1;
  (* COW: the child's write allocates a fresh frame and leaves the
     parent's frame untouched. *)
  let child = Mem.Address_space.fork aspace in
  let child_pt = Mem.Address_space.page_table child in
  Mem.Address_space.store64 child 0 2;
  Alcotest.(check bool) "cow allocates a fresh frame" true (id child_pt <> id1);
  Alcotest.(check int) "parent frame id untouched by child cow" id1 (id pt)

let test_read_frame_consistent () =
  let aspace = fresh_as () in
  let pt = Mem.Address_space.page_table aspace in
  Mem.Page_table.map_zero pt ~vpn:5 Mem.Page_table.Read_write;
  let addr = (5 * page_size) + 16 in
  Mem.Address_space.store64 aspace addr 0x1234;
  let f = Mem.Page_table.read_frame pt ~vpn:5 in
  Alcotest.(check int) "same id as the access reports" (Mem.Address_space.last_frame aspace)
    f.Mem.Frame.id;
  let out = Bytes.create 8 in
  Mem.Frame.blit_out f ~off:16 out ~pos:0 ~len:8;
  Alcotest.(check int) "same bytes as a load" (Mem.Address_space.load64 aspace addr)
    (Int64.to_int (Bytes.get_int64_le out 0));
  Alcotest.(check bool) "same bytes as copy_page_at" true
    (Bytes.get_int64_le (Mem.Page_table.copy_page_at pt ~vpn:5) 16 = 0x1234L);
  match Mem.Page_table.read_frame pt ~vpn:6 with
  | exception Mem.Page_table.Page_fault { vpn = 6; write = false } -> ()
  | _ -> Alcotest.fail "expected Page_fault on unmapped vpn"

(* The comparator's verdict on a page both sides map is
   [Frame.same_bytes], which skips the chunks two frames share: it must
   agree with comparing the whole pages byte by byte, whatever chunks
   the frames share and whether an unshared chunk was rewritten to the
   same bytes. Two copies of one base frame, each written a few bytes
   from a small alphabet (so equal rewrites are common), cover all of
   that; [g] replays [f]'s writes in about a third of the cases. *)
let gen_frame_writes =
  QCheck.Gen.(
    list_size (0 -- 6) (pair (int_bound (page_size - 1)) (oneofl [ '\000'; 'a'; 'b' ])))

let show_frame_writes ws =
  String.concat " " (List.map (fun (off, c) -> Printf.sprintf "%d:%C" off c) ws)

let frame_pair (base_ws, f_ws, g_ws) =
  let a = Mem.Frame.allocator ~page_size in
  let write f ws =
    List.iter
      (fun (off, c) -> Mem.Frame.blit_in a (Bytes.make 1 c) ~pos:0 f ~off ~len:1)
      ws
  in
  let base = Mem.Frame.alloc_zero a in
  write base base_ws;
  let f = Mem.Frame.alloc_copy a base and g = Mem.Frame.alloc_copy a base in
  write f f_ws;
  write g (Option.value g_ws ~default:f_ws);
  (f, g)

let page_of f =
  let b = Bytes.create page_size in
  Mem.Frame.blit_out f ~off:0 b ~pos:0 ~len:page_size;
  b

let arb_frame_pair =
  QCheck.make
    ~print:(fun (b, f, g) ->
      Printf.sprintf "base [%s] f [%s] g %s" (show_frame_writes b) (show_frame_writes f)
        (match g with None -> "= f" | Some g -> "[" ^ show_frame_writes g ^ "]"))
    QCheck.Gen.(
      triple gen_frame_writes gen_frame_writes
        (frequency [ (1, return None); (2, map Option.some gen_frame_writes) ]))

let qcheck_same_bytes_matches_page_equality =
  QCheck.Test.make ~name:"same_bytes = whole-page equality" ~count:300 arb_frame_pair
    (fun ws ->
      let f, g = frame_pair ws in
      let equal = Bytes.equal (page_of f) (page_of g) in
      Mem.Frame.same_bytes f g = equal && Mem.Frame.same_bytes g f = equal)

let qcheck_hash_into_matches_page_hash =
  QCheck.Test.make ~name:"hash_into = whole-page XXH64" ~count:100 arb_frame_pair
    (fun ws ->
      let f, _ = frame_pair ws in
      let st = Ftr_hash.Xxh64.init () in
      Mem.Frame.hash_into st f;
      Ftr_hash.Xxh64.digest st = Ftr_hash.Xxh64.hash (page_of f))

let qcheck_cow_preserves_parent =
  QCheck.Test.make ~name:"random child writes never leak to parent" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) (pair (int_bound (4 * 4096 - 9)) int))
    (fun writes ->
      let aspace = fresh_as () in
      Mem.Address_space.map_range aspace ~addr:0 ~len:(4 * 4096)
        Mem.Page_table.Read_write;
      List.iteri (fun i (addr, _) -> Mem.Address_space.store64 aspace addr i) writes;
      let snapshot =
        Mem.Address_space.read_bytes aspace ~addr:0 ~len:(4 * 4096)
      in
      let child = Mem.Address_space.fork aspace in
      List.iter (fun (addr, v) -> Mem.Address_space.store64 child addr v) writes;
      let after = Mem.Address_space.read_bytes aspace ~addr:0 ~len:(4 * 4096) in
      Bytes.equal snapshot after)

let qcheck_soft_dirty_covers_writes =
  QCheck.Test.make ~name:"soft-dirty covers every written page" ~count:100
    QCheck.(list_of_size Gen.(0 -- 30) (int_bound (8 * 4096 - 9)))
    (fun addrs ->
      let aspace = fresh_as () in
      Mem.Address_space.map_range aspace ~addr:0 ~len:(8 * 4096)
        Mem.Page_table.Read_write;
      let pt = Mem.Address_space.page_table aspace in
      Mem.Page_table.clear_soft_dirty pt;
      List.iter (fun a -> Mem.Address_space.store64 aspace a 1) addrs;
      let dirty = Mem.Page_table.soft_dirty_pages pt in
      List.for_all
        (fun a ->
          Array.mem (a / 4096) dirty
          && Array.mem ((a + 7) / 4096) dirty)
        addrs)

(* §4.4 equivalence: between checkpoints, the soft-dirty backend (clear
   bits at segment start, read at segment end) and the map-count backend
   (a page mapped exactly once is modified-or-new since the fork) must
   report the same dirty set. The model below mirrors the runtime: each
   "checkpoint" forks the main address space (the checkpoint keeps the
   shared frames alive) and clears the soft-dirty bits; only the newest
   checkpoint is kept, as map-count equivalence is stated against it. *)
let qcheck_dirty_backends_agree =
  QCheck.Test.make ~name:"soft-dirty and map-count backends agree" ~count:150
    QCheck.(list_of_size Gen.(0 -- 40) (pair bool (int_bound ((8 * 4096) - 9))))
    (fun ops ->
      let main = fresh_as () in
      Mem.Address_space.map_range main ~addr:0 ~len:(8 * 4096)
        Mem.Page_table.Read_write;
      let pt = Mem.Address_space.page_table main in
      let checkpoint prev =
        (match prev with
        | Some old ->
          Mem.Page_table.free_all (Mem.Address_space.page_table old)
        | None -> ());
        let child = Mem.Address_space.fork main in
        Parallaft.Dirty_tracker.clear Parallaft.Config.Soft_dirty pt;
        Some child
      in
      let backends_agree () =
        Parallaft.Dirty_tracker.collect Parallaft.Config.Soft_dirty pt
        = Parallaft.Dirty_tracker.collect Parallaft.Config.Map_count pt
      in
      let ckpt = ref (checkpoint None) in
      List.for_all
        (fun (store, addr) ->
          (if store then Mem.Address_space.store64 main addr addr
           else ckpt := checkpoint !ckpt);
          backends_agree ())
        ops)

(* COW bookkeeping: at any moment, every live frame's refcount equals
   the number of page-table entries mapping it (summed over all live
   processes), and tearing every process down frees every frame. *)
let qcheck_frame_refcounts_match_mappings =
  QCheck.Test.make ~name:"frame refcounts equal mapping counts; no leaks"
    ~count:100
    QCheck.(
      list_of_size
        Gen.(0 -- 40)
        (triple (int_bound 2) small_nat (int_bound ((8 * 4096) - 9))))
    (fun ops ->
      let alloc = Mem.Frame.allocator ~page_size in
      let first = Mem.Address_space.create alloc in
      Mem.Address_space.map_range first ~addr:0 ~len:(8 * 4096)
        Mem.Page_table.Read_write;
      let live = ref [ first ] in
      let pick i = List.nth !live (i mod List.length !live) in
      List.iter
        (fun (op, which, addr) ->
          match op with
          | 0 -> live := Mem.Address_space.fork (pick which) :: !live
          | 1 -> Mem.Address_space.store64 (pick which) addr addr
          | _ ->
            (* process exit; keep at least one process alive *)
            if List.length !live > 1 then begin
              let victim = pick which in
              Mem.Page_table.free_all (Mem.Address_space.page_table victim);
              live := List.filter (fun a -> a != victim) !live
            end)
        ops;
      let counts : (int, Mem.Frame.t * int) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun a ->
          Mem.Page_table.iter_mapped (Mem.Address_space.page_table a)
            (fun ~vpn:_ f ->
              let n =
                match Hashtbl.find_opt counts f.Mem.Frame.id with
                | Some (_, n) -> n
                | None -> 0
              in
              Hashtbl.replace counts f.Mem.Frame.id (f, n + 1)))
        !live;
      let refcounts_ok =
        Hashtbl.fold
          (fun _ (f, n) acc -> acc && f.Mem.Frame.refcount = n)
          counts true
      in
      List.iter
        (fun a -> Mem.Page_table.free_all (Mem.Address_space.page_table a))
        !live;
      refcounts_ok && Mem.Frame.live_frames alloc = 0)

(* Frame and chunk recycling against a pure model: random map/fork/
   store/unmap/exit sequences over a few processes, each modelled as
   vpn -> page contents, on pages of several chunks. After every step:
   contents match the model (so a chunk copy on a recycled chunk holds
   its source), each chunk's count equals the frame slots holding it
   (one more for the zero chunk, which still reads as zeros), newly seen
   frame ids exceed every id seen before, the live frame and chunk
   counts equal what is mapped, and the spare chunks never outnumber
   the live ones. At the end nothing is live or spare. *)
type pt_op =
  | Op_map of int * int
  | Op_fork of int
  | Op_store of int * int * int * char
  | Op_unmap of int * int
  | Op_exit of int

let model_page = 8192
let model_vpns = 6

let show_pt_op = function
  | Op_map (p, v) -> Printf.sprintf "map(%d,%d)" p v
  | Op_fork p -> Printf.sprintf "fork(%d)" p
  | Op_store (p, v, o, c) -> Printf.sprintf "store(%d,%d,%d,%C)" p v o c
  | Op_unmap (p, v) -> Printf.sprintf "unmap(%d,%d)" p v
  | Op_exit p -> Printf.sprintf "exit(%d)" p

let gen_pt_op =
  let open QCheck.Gen in
  let proc = int_bound 7 and vpn = int_bound (model_vpns - 1) in
  frequency
    [
      (3, map2 (fun p v -> Op_map (p, v)) proc vpn);
      (2, map (fun p -> Op_fork p) proc);
      ( 6,
        map
          (fun (p, v, o, c) -> Op_store (p, v, o, c))
          (quad proc vpn (int_bound (model_page - 1)) printable) );
      (2, map2 (fun p v -> Op_unmap (p, v)) proc vpn);
      (2, map (fun p -> Op_exit p) proc);
    ]

let qcheck_frame_recycling_model =
  QCheck.Test.make ~name:"recycled frame buffers match a pure page model"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map show_pt_op ops))
       QCheck.Gen.(list_size (0 -- 80) gen_pt_op))
    (fun ops ->
      let alloc = Mem.Frame.allocator ~page_size:model_page in
      assert (model_page / Mem.Frame.chunk_bytes alloc >= 4);
      (* A probe frame names the zero chunk; freeing it leaves the
         allocator with nothing live. *)
      let zero =
        let probe = Mem.Frame.alloc_zero alloc in
        Mem.Frame.decref alloc probe;
        probe.Mem.Frame.chunks.(0)
      in
      let fresh () = (Mem.Page_table.create alloc, Hashtbl.create 8) in
      let procs = ref [ fresh () ] in
      let pick i = List.nth !procs (i mod List.length !procs) in
      let seen = Hashtbl.create 64 and max_seen = ref (-1) in
      let step = function
        | Op_map (p, vpn) ->
          let pt, m = pick p in
          if not (Hashtbl.mem m vpn) then begin
            Mem.Page_table.map_zero pt ~vpn Mem.Page_table.Read_write;
            Hashtbl.replace m vpn (String.make model_page '\000')
          end
        | Op_fork p ->
          let pt, m = pick p in
          procs := (Mem.Page_table.fork pt, Hashtbl.copy m) :: !procs
        | Op_store (p, vpn, off, c) -> (
          let pt, m = pick p in
          match Hashtbl.find_opt m vpn with
          | None -> ()
          | Some page ->
            let frame = Mem.Page_table.store_prepare pt ~vpn in
            Mem.Frame.blit_in alloc (Bytes.make 1 c) ~pos:0 frame ~off ~len:1;
            Hashtbl.replace m vpn
              (String.mapi (fun i x -> if i = off then c else x) page))
        | Op_unmap (p, vpn) ->
          let pt, m = pick p in
          if Hashtbl.mem m vpn then begin
            Mem.Page_table.unmap pt ~vpn;
            Hashtbl.remove m vpn
          end
        | Op_exit p ->
          let ((pt, _) as victim) = pick p in
          Mem.Page_table.free_all pt;
          procs := List.filter (fun q -> q != victim) !procs;
          if !procs = [] then procs := [ fresh () ]
      in
      let consistent () =
        let contents_ok =
          List.for_all
            (fun (pt, m) ->
              Mem.Page_table.mapped_count pt = Hashtbl.length m
              && Hashtbl.fold
                   (fun vpn page ok ->
                     ok
                     && Mem.Page_table.is_mapped pt ~vpn
                     && Bytes.to_string (Mem.Page_table.copy_page_at pt ~vpn) = page)
                   m true)
            !procs
        in
        let frames = Hashtbl.create 16 in
        List.iter
          (fun (pt, _) ->
            Mem.Page_table.iter_mapped pt (fun ~vpn:_ f ->
                Hashtbl.replace frames f.Mem.Frame.id f))
          !procs;
        let live = Hashtbl.fold (fun id f acc -> (id, f) :: acc) frames [] in
        (* Distinct chunks held by live frames, with their slot counts. *)
        let held = ref [] in
        List.iter
          (fun (_, f) ->
            Array.iter
              (fun c ->
                match List.find_opt (fun (d, _) -> d == c) !held with
                | Some (_, n) -> incr n
                | None -> held := (c, ref 1) :: !held)
              f.Mem.Frame.chunks)
          live;
        let zero_slots =
          match List.find_opt (fun (d, _) -> d == zero) !held with
          | Some (_, n) -> !n
          | None -> 0
        in
        let counts_ok =
          List.for_all (fun (c, n) -> c == zero || c.Mem.Frame.refs = !n) !held
          && zero.Mem.Frame.refs = zero_slots + 1
        in
        let zero_ok = Bytes.for_all (fun c -> c = '\000') zero.Mem.Frame.bytes in
        let live_chunks = List.length (List.filter (fun (c, _) -> c != zero) !held) in
        let unseen = List.filter (fun (id, _) -> not (Hashtbl.mem seen id)) live in
        let ids_increase = List.for_all (fun (id, _) -> id > !max_seen) unseen in
        List.iter
          (fun (id, _) ->
            Hashtbl.replace seen id ();
            max_seen := max !max_seen id)
          unseen;
        contents_ok && counts_ok && zero_ok && ids_increase
        && Mem.Frame.live_frames alloc = List.length live
        && Mem.Frame.live_chunks alloc = live_chunks
        && Mem.Frame.spare_chunks alloc <= Mem.Frame.live_chunks alloc
      in
      let ok = List.for_all (fun op -> step op; consistent ()) ops in
      List.iter (fun (pt, _) -> Mem.Page_table.free_all pt) !procs;
      ok
      && Mem.Frame.live_frames alloc = 0
      && Mem.Frame.live_chunks alloc = 0
      && Mem.Frame.spare_chunks alloc = 0
      && zero.Mem.Frame.refs = 1)

(* 8-byte accesses and byte ranges that straddle chunk (and page)
   boundaries, on a fresh page and across a fork, against a byte model
   of the parent and the child. *)
type span_op =
  | Sp_store64 of bool * int * int
  | Sp_write of bool * int * string
  | Sp_store8 of bool * int * int

let span_pages = 2
let span_page = 16384
let span_chunk = 2048

let gen_span_op =
  let open QCheck.Gen in
  (* Addresses within 12 bytes of a chunk boundary, boundary 0 and the
     end of the mapping excluded. *)
  let near_boundary =
    map2
      (fun k d -> max 0 (min ((span_pages * span_page) - 16) ((k * span_chunk) + d)))
      (int_range 1 ((span_pages * span_page / span_chunk) - 1))
      (int_range (-12) 12)
  in
  frequency
    [
      (4, map3 (fun c a v -> Sp_store64 (c, a, v)) bool near_boundary int);
      ( 2,
        map3
          (fun c a s -> Sp_write (c, a, s))
          bool near_boundary
          (string_size ~gen:printable (int_range 1 (span_chunk + 100))) );
      (1, map3 (fun c a v -> Sp_store8 (c, a, v)) bool near_boundary (int_bound 255));
    ]

let show_span_op = function
  | Sp_store64 (c, a, v) -> Printf.sprintf "store64(%b,%d,%d)" c a v
  | Sp_write (c, a, s) -> Printf.sprintf "write(%b,%d,%d bytes)" c a (String.length s)
  | Sp_store8 (c, a, v) -> Printf.sprintf "store8(%b,%d,%d)" c a v

let qcheck_chunk_straddling_accesses =
  QCheck.Test.make ~name:"chunk-straddling accesses match a byte model" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map show_span_op ops))
       QCheck.Gen.(list_size (1 -- 30) gen_span_op))
    (fun ops ->
      let len = span_pages * span_page in
      let alloc = Mem.Frame.allocator ~page_size:span_page in
      assert (Mem.Frame.chunk_bytes alloc = span_chunk);
      let parent = Mem.Address_space.create alloc in
      Mem.Address_space.map_range parent ~addr:0 ~len Mem.Page_table.Read_write;
      (* Page 0 gets private chunks before the fork; page 1 stays on the
         zero chunk. *)
      Mem.Address_space.write_bytes_map parent ~addr:0
        (Bytes.init span_page (fun i -> Char.chr (i land 0xFF)));
      let child = Mem.Address_space.fork parent in
      let model = Bytes.create len in
      Bytes.blit (Mem.Address_space.read_bytes parent ~addr:0 ~len) 0 model 0 len;
      let models = [| model; Bytes.copy model |] in
      let side c = if c then (child, models.(1)) else (parent, models.(0)) in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Sp_store64 (c, a, v) ->
            let sp, m = side c in
            Mem.Address_space.store64 sp a v;
            Bytes.set_int64_le m a (Int64.of_int v);
            ok := !ok && Mem.Address_space.load64 sp a = v
          | Sp_write (c, a, s) ->
            let sp, m = side c in
            let n = min (String.length s) (len - a) in
            let b = Bytes.sub (Bytes.of_string s) 0 n in
            ignore (Mem.Address_space.write_bytes sp ~addr:a b);
            Bytes.blit b 0 m a n
          | Sp_store8 (c, a, v) ->
            let sp, m = side c in
            Mem.Address_space.store8 sp a v;
            Bytes.set m a (Char.chr v));
          let (Sp_store64 (_, a, _) | Sp_write (_, a, _) | Sp_store8 (_, a, _)) = op in
          List.iter
            (fun c ->
              let sp, m = side c in
              ok :=
                !ok
                && Bytes.equal (Mem.Address_space.read_bytes sp ~addr:0 ~len) m
                && Mem.Address_space.load64 sp a = Int64.to_int (Bytes.get_int64_le m a))
            [ false; true ])
        ops;
      !ok)

(* Alcotest pads every group label to the longest one and cuts test
   names to fit 80 columns, so the longest label ("frame comparisons")
   fixes the names this suite prints: a longer or shorter one renames
   the long tests of every group. *)
let () =
  let tc = Alcotest.test_case in
  Alcotest.run "mem"
    [
      ( "frame",
        [
          tc "refcounting" `Quick test_frame_refcounting;
          tc "incref after free rejected" `Quick test_frame_incref_after_free;
          tc "freed buffers recycled" `Quick test_frame_buffer_recycled;
          tc "allocator validation" `Quick test_frame_alloc_validation;
          tc "generation bumps in place only" `Quick
            test_frame_generation_bumps_in_place_only;
          tc "read_frame consistent" `Quick test_read_frame_consistent;
          tc "fork + store shares all but one chunk" `Quick
            test_fork_store_shares_all_but_one_chunk;
        ] );
      ( "page_table",
        [
          tc "map/unmap" `Quick test_pt_map_unmap;
          tc "fault on unmapped" `Quick test_pt_fault_on_unmapped;
          tc "read-only faults" `Quick test_pt_read_only_write_faults;
        ] );
      ( "cow",
        [
          tc "fork isolation" `Quick test_cow_fork_isolation;
          tc "copies counted" `Quick test_cow_copy_counted;
          QCheck_alcotest.to_alcotest qcheck_cow_preserves_parent;
          QCheck_alcotest.to_alcotest qcheck_frame_refcounts_match_mappings;
          QCheck_alcotest.to_alcotest qcheck_frame_recycling_model;
        ] );
      ( "dirty-tracking",
        [
          tc "soft-dirty" `Quick test_soft_dirty;
          tc "map-count" `Quick test_map_count_tracking;
          tc "mechanisms agree" `Quick test_dirty_mechanisms_agree_after_fork;
          QCheck_alcotest.to_alcotest qcheck_soft_dirty_covers_writes;
          QCheck_alcotest.to_alcotest qcheck_dirty_backends_agree;
        ] );
      ( "address_space",
        [
          tc "pss" `Quick test_pss;
          tc "unaligned across pages" `Quick test_unaligned_access_across_pages;
          QCheck_alcotest.to_alcotest qcheck_chunk_straddling_accesses;
          tc "page walk allocates nothing" `Quick test_page_walk_allocates_nothing;
          tc "read/write bytes" `Quick test_read_write_bytes;
          tc "write_bytes_map" `Quick test_write_bytes_map;
          tc "segfault" `Quick test_segfault_exn;
          tc "fault keeps last access" `Quick test_fault_keeps_last_access;
        ] );
      ( "fifo_cache",
        [
          tc "basics" `Quick test_fifo_cache_basics;
          tc "admit reports eviction" `Quick test_fifo_cache_admit_reports_eviction;
          tc "capacity and key limits" `Quick test_fifo_cache_limits;
          QCheck_alcotest.to_alcotest qcheck_fifo_cache_matches_reference;
          tc "touch allocates nothing" `Quick test_fifo_cache_allocates_nothing;
        ] );
      ( "frame comparisons",
        [
          QCheck_alcotest.to_alcotest qcheck_same_bytes_matches_page_equality;
          QCheck_alcotest.to_alcotest qcheck_hash_into_matches_page_hash;
        ] );
    ]
