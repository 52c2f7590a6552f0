type core_class = Big | Little

type cluster = {
  kind : core_class;
  n_cores : int;
  freq_levels_mhz : int array;
  voltage_per_level : float array;
  default_level : int;
  separate_voltage_domain : bool;
  ipc : float;
  l1_pages : int;
  l2_pages : int;
  l2_hit_extra_ns : float;
  dyn_power_coeff : float;
  static_power_w : float;
  idle_power_w : float;
}

type dirty_tracking = Soft_dirty | Map_count

type slice_unit = Cycles | Instructions

type t = {
  name : string;
  page_size : int;
  clusters : cluster array;
  dram_extra_ns : float;
  dram_accesses_per_us_capacity : float;
  dram_static_w : float;
  dram_energy_per_access_nj : float;
  soc_static_w : float;
  max_skid : int;
  max_insn_overcount : int;
  syscall_base_cycles : int;
  fork_base_cycles : int;
  fork_per_page_cycles : int;
  cow_fixed_cycles : int;
  cow_bytes_per_cycle : int;
  dirty_scan_per_page_cycles : int;
  tracer_stop_ns : float;
  syscall_record_ns_per_byte : float;
  hash_bytes_per_cycle : int;
  mmap_area_base : int;
  aslr_entropy_pages : int;
  dirty_tracking : dirty_tracking;
  slice_unit : slice_unit;
}

let big_cluster t = t.clusters.(0)
let little_cluster t = t.clusters.(1)

let effective_hz c ~level =
  float_of_int c.freq_levels_mhz.(level) *. 1e6 *. c.ipc

let active_power_w c ~level =
  let f_ghz = float_of_int c.freq_levels_mhz.(level) /. 1000.0 in
  let v =
    if c.separate_voltage_domain then c.voltage_per_level.(level)
    else c.voltage_per_level.(Array.length c.voltage_per_level - 1)
  in
  c.static_power_w +. (c.dyn_power_coeff *. f_ghz *. v *. v)

(* Apple M2: Avalanche big cores at a fixed 3.5 GHz; Blizzard little cores
   with a wide DVFS range on their own voltage rail. IPC ratio and the
   cache capacities (page-granular) approximate the real ratios: little
   cores have a quarter of the big cores' L1 and the little cluster's
   shared L2 (4 MiB) is a quarter of the big cluster's 16 MiB. *)
let apple_m2 =
  let big =
    {
      kind = Big;
      n_cores = 4;
      freq_levels_mhz = [| 3500 |];
      voltage_per_level = [| 1.05 |];
      default_level = 0;
      separate_voltage_domain = true;
      ipc = 1.0;
      l1_pages = 12; (* 192 KiB of 16 KiB pages *)
      l2_pages = 1024; (* 16 MiB *)
      l2_hit_extra_ns = 4.0;
      dyn_power_coeff = 1.10;
      static_power_w = 0.30;
      idle_power_w = 0.05;
    }
  in
  let little =
    {
      kind = Little;
      n_cores = 4;
      freq_levels_mhz = [| 600; 1000; 1400; 1800; 2400 |];
      voltage_per_level = [| 0.55; 0.62; 0.70; 0.80; 0.95 |];
      default_level = 4;
      separate_voltage_domain = true;
      ipc = 0.62;
      l1_pages = 4; (* 64 KiB *)
      l2_pages = 256; (* 4 MiB *)
      l2_hit_extra_ns = 6.0;
      dyn_power_coeff = 0.22;
      static_power_w = 0.04;
      idle_power_w = 0.015;
    }
  in
  {
    name = "apple_m2";
    page_size = 16384;
    clusters = [| big; little |];
    dram_extra_ns = 95.0;
    dram_accesses_per_us_capacity = 180.0;
    dram_static_w = 0.35;
    dram_energy_per_access_nj = 18.0;
    soc_static_w = 0.45;
    max_skid = 6;
    max_insn_overcount = 3;
    syscall_base_cycles = 120;
    fork_base_cycles = 2000;
    fork_per_page_cycles = 10;
    cow_fixed_cycles = 8;
    cow_bytes_per_cycle = 2048;
    dirty_scan_per_page_cycles = 6;
    tracer_stop_ns = 40.0;
    syscall_record_ns_per_byte = 0.08;
    hash_bytes_per_cycle = 1200;
    mmap_area_base = 0x4000_0000;
    aslr_entropy_pages = 4096;
    dirty_tracking = Map_count;
    slice_unit = Cycles;
  }

(* Intel hybrid (i7-14700-like): P cores and E cores share one voltage
   rail, so scaling E-core frequency down barely reduces power — the
   paper's explanation for the smaller energy benefit on Intel. Pages are
   4 KiB, quadrupling per-page checkpointing work for the same footprint. *)
let intel_i7 =
  let big =
    {
      kind = Big;
      n_cores = 8;
      freq_levels_mhz = [| 5300 |];
      voltage_per_level = [| 1.20 |];
      default_level = 0;
      separate_voltage_domain = false;
      ipc = 0.85;
      l1_pages = 12; (* 48 KiB of 4 KiB pages *)
      l2_pages = 8192; (* 32 MiB shared L3 stand-in *)
      l2_hit_extra_ns = 10.0;
      dyn_power_coeff = 1.55;
      static_power_w = 0.80;
      idle_power_w = 0.25;
    }
  in
  let little =
    {
      kind = Little;
      n_cores = 12;
      freq_levels_mhz = [| 800; 1600; 2400; 3200; 4200 |];
      voltage_per_level = [| 0.70; 0.80; 0.90; 1.05; 1.20 |];
      default_level = 4;
      separate_voltage_domain = false;
      ipc = 0.55;
      l1_pages = 8; (* 32 KiB *)
      l2_pages = 1024; (* 4 MiB E-cluster L2 *)
      l2_hit_extra_ns = 12.0;
      dyn_power_coeff = 0.55;
      static_power_w = 0.30;
      idle_power_w = 0.10;
    }
  in
  {
    name = "intel_i7";
    page_size = 4096;
    clusters = [| big; little |];
    dram_extra_ns = 80.0;
    dram_accesses_per_us_capacity = 260.0;
    dram_static_w = 1.20;
    dram_energy_per_access_nj = 18.0;
    soc_static_w = 2.50;
    max_skid = 10;
    max_insn_overcount = 5;
    syscall_base_cycles = 150;
    fork_base_cycles = 2500;
    fork_per_page_cycles = 28;
    cow_fixed_cycles = 45;
    cow_bytes_per_cycle = 2048;
    dirty_scan_per_page_cycles = 14;
    tracer_stop_ns = 36.0;
    syscall_record_ns_per_byte = 0.08;
    hash_bytes_per_cycle = 1200;
    mmap_area_base = 0x4000_0000;
    aslr_entropy_pages = 16384;
    dirty_tracking = Soft_dirty;
    slice_unit = Instructions;
  }

let testing =
  let big =
    {
      kind = Big;
      n_cores = 2;
      freq_levels_mhz = [| 2000 |];
      voltage_per_level = [| 1.0 |];
      default_level = 0;
      separate_voltage_domain = true;
      ipc = 1.0;
      l1_pages = 2;
      l2_pages = 8;
      l2_hit_extra_ns = 5.0;
      dyn_power_coeff = 1.0;
      static_power_w = 0.2;
      idle_power_w = 0.05;
    }
  in
  let little =
    {
      kind = Little;
      n_cores = 2;
      freq_levels_mhz = [| 500; 1000 |];
      voltage_per_level = [| 0.6; 0.8 |];
      default_level = 1;
      separate_voltage_domain = true;
      ipc = 0.6;
      l1_pages = 1;
      l2_pages = 4;
      l2_hit_extra_ns = 8.0;
      dyn_power_coeff = 0.25;
      static_power_w = 0.05;
      idle_power_w = 0.02;
    }
  in
  {
    name = "testing";
    page_size = 4096;
    clusters = [| big; little |];
    dram_extra_ns = 100.0;
    dram_accesses_per_us_capacity = 40.0;
    dram_static_w = 0.3;
    dram_energy_per_access_nj = 20.0;
    soc_static_w = 0.2;
    max_skid = 4;
    max_insn_overcount = 2;
    syscall_base_cycles = 100;
    fork_base_cycles = 1000;
    fork_per_page_cycles = 30;
    cow_fixed_cycles = 100;
    cow_bytes_per_cycle = 64;
    dirty_scan_per_page_cycles = 15;
    tracer_stop_ns = 50.0;
    syscall_record_ns_per_byte = 0.1;
    hash_bytes_per_cycle = 600;
    mmap_area_base = 0x0100_0000;
    aslr_entropy_pages = 256;
    dirty_tracking = Soft_dirty;
    slice_unit = Cycles;
  }

let of_name name =
  List.find_opt (fun p -> p.name = name) [ apple_m2; intel_i7; testing ]
