type category = Int_suite | Fp_suite

type t = {
  name : string;
  category : category;
  inputs : int;
  description : string;
  base_outer : int;
  spec : Codegen.spec;
}

let chase ~pages ~hot ~cold = Codegen.Chase { pages; hot_pages = hot; cold_every = cold }
let stream ?(app = 16) ~pages ~w () =
  Codegen.Stream { pages; write_frac_pct = w; accesses_per_page = app }
let blocked ~pages = Codegen.Blocked { pages }

let mk name category inputs description ~pattern ~alu ~store ~inner ~outer
    ?(io = 4) ?(gettime = 0) ?(rdtsc = 0) ?(mmap = false) () =
  {
    name;
    category;
    inputs;
    description;
    base_outer = outer;
    spec =
      {
        Codegen.pattern;
        alu_per_mem = alu;
        store_every = store;
        outer_iters = outer;
        inner_iters = inner;
        io_every = io;
        gettime_every = gettime;
        rdtsc_every = rdtsc;
        mmap_churn = mmap;
      };
  }

(* Working-set sizing against the Apple M2 model (big L1 12 / little L1 4 /
   big L2 1024 / little L2 256 pages): "gap" footprints (256..1024 pages)
   run from big L2 but miss to DRAM from little cores — the benchmarks
   whose checkers need big-core migration (mcf, milc, lbm, libquantum). *)
let all =
  [
    mk "400.perlbench" Int_suite 3 "interpreter: medium pointer-chasing + compute"
      ~pattern:(chase ~pages:140 ~hot:3 ~cold:9) ~alu:6 ~store:6 ~inner:400
      ~outer:100 ~gettime:16 ();
    mk "401.bzip2" Int_suite 6 "compression: streaming with moderate stores"
      ~pattern:(stream ~pages:180 ~w:30 ()) ~alu:4 ~store:0 ~inner:400 ~outer:120 ();
    mk "403.gcc" Int_suite 9 "compiler: short inputs, allocator churn"
      ~pattern:(chase ~pages:220 ~hot:3 ~cold:4) ~alu:3 ~store:4 ~inner:300
      ~outer:220 ~io:2 ~gettime:8 ~mmap:true ();
    mk "429.mcf" Int_suite 1 "network simplex: large latency-bound pointer chase"
      ~pattern:(chase ~pages:580 ~hot:3 ~cold:8) ~alu:6 ~store:3 ~inner:500
      ~outer:260 ~io:6 ~gettime:24 ();
    mk "445.gobmk" Int_suite 5 "go engine: branchy compute, small working set"
      ~pattern:(blocked ~pages:24) ~alu:10 ~store:8 ~inner:800 ~outer:200
      ~gettime:12 ();
    mk "456.hmmer" Int_suite 2 "profile HMM search: dense compute, tiny working set"
      ~pattern:(blocked ~pages:6) ~alu:12 ~store:0 ~inner:1200 ~outer:260 ~io:6 ();
    mk "458.sjeng" Int_suite 1 "chess engine: compute-bound, longest run"
      ~pattern:(blocked ~pages:40) ~alu:8 ~store:10 ~inner:1000 ~outer:700
      ~io:8 ~gettime:30 ();
    mk "462.libquantum" Int_suite 1 "quantum simulation: read-streaming, large"
      ~pattern:(stream ~app:14 ~pages:600 ~w:10 ()) ~alu:2 ~store:0 ~inner:700 ~outer:260
      ~io:8 ();
    mk "464.h264ref" Int_suite 3 "video encoder: blocked compute with stores"
      ~pattern:(blocked ~pages:90) ~alu:8 ~store:5 ~inner:700 ~outer:300
      ~gettime:10 ~rdtsc:0 ();
    mk "471.omnetpp" Int_suite 1 "discrete event simulation: medium chase"
      ~pattern:(chase ~pages:240 ~hot:3 ~cold:6) ~alu:4 ~store:3 ~inner:500
      ~outer:130 ~io:5 ~gettime:15 ();
    mk "473.astar" Int_suite 2 "path-finding: medium chase"
      ~pattern:(chase ~pages:200 ~hot:3 ~cold:10) ~alu:5 ~store:4 ~inner:320
      ~outer:120 ~io:5 ();
    mk "483.xalancbmk" Int_suite 1 "XSLT processor: chase with stores"
      ~pattern:(chase ~pages:235 ~hot:3 ~cold:9) ~alu:4 ~store:5 ~inner:330
      ~outer:250 ~io:5 ~gettime:20 ();
    mk "433.milc" Fp_suite 1 "lattice QCD: streaming mixed read/write, large"
      ~pattern:(stream ~app:10 ~pages:570 ~w:40 ()) ~alu:3 ~store:0 ~inner:700 ~outer:260
      ~io:7 ();
    mk "444.namd" Fp_suite 1 "molecular dynamics: dense compute"
      ~pattern:(blocked ~pages:26) ~alu:14 ~store:0 ~inner:900 ~outer:400 ~io:9 ();
    mk "450.soplex" Fp_suite 2 "LP solver: short inputs, streaming"
      ~pattern:(stream ~pages:230 ~w:30 ()) ~alu:4 ~store:0 ~inner:300 ~outer:90 ();
    mk "470.lbm" Fp_suite 1 "lattice Boltzmann: store-streaming, largest"
      ~pattern:(stream ~app:8 ~pages:530 ~w:60 ()) ~alu:2 ~store:0 ~inner:800 ~outer:300
      ~io:8 ();
  ]

let names = List.map (fun b -> b.name) all

let find name =
  match List.find_opt (fun b -> b.name = name) all with
  | Some b -> Some b
  | None ->
    (* Accept the bare name without the SPEC number. *)
    List.find_opt
      (fun b ->
        match String.index_opt b.name '.' with
        | Some i -> String.sub b.name (i + 1) (String.length b.name - i - 1) = name
        | None -> false)
      all

(* Footprints in the registry are given in 16 KiB-page units (the Apple
   M2 page size); on a platform with smaller pages the same number of
   bytes spans proportionally more pages — which is precisely why the
   paper finds checkpointing more expensive on Intel's 4 KiB pages. *)
let scale_pattern ~factor = function
  | Codegen.Chase { pages; hot_pages; cold_every } ->
    Codegen.Chase { pages = pages * factor; hot_pages = hot_pages * factor; cold_every }
  | Codegen.Stream { pages; write_frac_pct; accesses_per_page } ->
    Codegen.Stream { pages = pages * factor; write_frac_pct; accesses_per_page }
  | Codegen.Blocked { pages } -> Codegen.Blocked { pages = pages * factor }

let programs b ~page_size ~scale =
  let factor = max 1 (16384 / page_size) in
  List.init b.inputs (fun input ->
      let outer = max 1 (int_of_float (float_of_int b.base_outer *. scale)) in
      let seed = Int64.of_int ((Hashtbl.hash (b.name, input) * 2654435761) + 17) in
      Codegen.generate
        ~name:(Printf.sprintf "%s/in%d" b.name input)
        ~seed ~page_size
        {
          b.spec with
          Codegen.outer_iters = outer;
          pattern = scale_pattern ~factor b.spec.Codegen.pattern;
        })

let detimed b =
  {
    b with
    spec =
      {
        b.spec with
        Codegen.gettime_every = 0;
        rdtsc_every = 0;
        mmap_churn = false;
      };
  }
