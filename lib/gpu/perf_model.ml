type bound = Compute | Memory | Shared_pipe | Latency

let bound_name = function
  | Compute -> "compute"
  | Memory -> "memory"
  | Shared_pipe -> "shared"
  | Latency -> "latency"

type report = {
  seconds : float;
  tflops : float;
  occupancy : float;
  warps_per_sm : int;
  blocks_per_sm : int;
  l2_hit_rate : float;
  effective_dram_gbs : float;
  global_bytes : float;
  bound : bound;
  arith_seconds : float;
  mem_seconds : float;
  shared_seconds : float;
  overhead_seconds : float;
}

let predict (d : Device.t) (c : Kernel_cost.t) =
  let occ = Occupancy.calc d (Kernel_cost.occupancy_usage c) in
  if occ.blocks_per_sm = 0 then None
  else begin
    let sm = float_of_int d.sm_count in
    let clock_hz = d.clock_ghz *. 1e9 in
    let blocks = Kernel_cost.grid_blocks c in
    let blocks_f = float_of_int blocks in
    let warps_per_block = (c.threads_per_block + d.warp_size - 1) / d.warp_size in
    (* Effective residency: a small grid cannot fill the residency the
       occupancy calculator allows (the mechanism behind §8.1's 17% vs
       10% occupancy comparison). *)
    let assigned_per_sm = int_of_float (Float.ceil (blocks_f /. sm)) in
    let resident_blocks = min occ.blocks_per_sm assigned_per_sm in
    let warps_eff = resident_blocks * warps_per_block in
    let warps_eff_f = float_of_int warps_eff in
    let max_warps = float_of_int (d.max_threads_per_sm / d.warp_size) in
    (* Wave quantization: the SMs that receive one extra block set the
       pace; with few blocks, idle SMs inflate this factor. *)
    let quant = float_of_int assigned_per_sm *. sm /. blocks_f in

    (* --- arithmetic pipeline ------------------------------------------- *)
    let fma_tp = Device.fma_warp_throughput d c.dtype ~vectorized:c.vectorized_fp16 in
    let ialu_tp = float_of_int d.cores_per_sm /. float_of_int d.warp_size in
    (* Latency ceiling (paper Eq. 2): each warp sustains at most
       ilp/fma_latency FMA issues per cycle, 1 when its independent chains
       cover the pipeline latency. *)
    let per_warp_issue = Float.min 1.0 (c.ilp /. d.fma_latency) in
    let fma_tp_eff = Float.min fma_tp (warps_eff_f *. per_warp_issue) in
    let warp_size = float_of_int d.warp_size in
    let warp_fmas = c.issued_fmas /. warp_size in
    let warp_ialu = c.issued_fmas *. (c.ialu_per_fma +. c.extra_instr_frac) /. warp_size in
    (* Integer/addressing work partially dual-issues with FMAs. *)
    let arith_cycles = (warp_fmas /. fma_tp_eff) +. (0.5 *. warp_ialu /. ialu_tp) in
    let arith_seconds = arith_cycles /. sm /. clock_hz in
    let latency_capped = fma_tp_eff < fma_tp *. 0.95 in

    (* --- global memory -------------------------------------------------- *)
    let elem_bytes = Ptx.Types.dtype_bytes c.dtype in
    let concurrent = min blocks (occ.blocks_per_sm * d.sm_count) in
    let l2 =
      Memory_model.l2_hits d ~concurrent_blocks:concurrent ~grid_m:c.grid_m
        ~grid_n:c.grid_n ~tile_m:c.tile_m ~tile_n:c.tile_n ~u_depth:c.u_depth
        ~elem_bytes
    in
    let loads = c.load_a_bytes +. c.load_b_bytes in
    let l2_served = (c.load_a_bytes *. l2.hit_a) +. (c.load_b_bytes *. l2.hit_b) in
    let l2_hit_rate = if loads > 0.0 then l2_served /. loads else 0.0 in
    let atom_bytes = c.atom_ops *. 2.0 *. float_of_int elem_bytes in
    let dram_bytes =
      ((loads -. l2_served) /. c.coalescing) +. c.store_bytes +. atom_bytes
    in
    (* Pre-L2 transaction traffic: what the memory pipeline issues,
       regardless of where it is served. Uses the transaction-level
       segment utilization (no L2 line-completion credit) because partial
       lines still issue whole transactions. Atomics are excluded: they
       take the reduction path (their time lives in the overhead term)
       and load/store transaction counters do not see them. This is the
       quantity emulated transaction counters measure (Attribution pairs
       it with gld+gst_transactions). *)
    let global_bytes = (loads /. c.tx_coalescing) +. c.store_bytes in
    (* Little's law: not enough warps in flight caps achievable DRAM
       bandwidth below peak (paper Eq. 2's memory half). *)
    let bw_lat = Memory_model.latency_limited_bw_gbs d ~warps_per_sm:warps_eff ~mlp:c.mlp in
    let dram_bw_eff = Float.min d.dram_bw_gbs bw_lat in
    let dram_seconds = dram_bytes /. 1e9 /. dram_bw_eff in
    let l2_bw = Float.min (Memory_model.l2_bandwidth_gbs d) (2.0 *. bw_lat) in
    let l2_seconds = l2_served /. 1e9 /. l2_bw in
    let mem_seconds = dram_seconds +. l2_seconds in

    (* --- shared-memory pipeline ----------------------------------------- *)
    let shared_bw = float_of_int d.shared_bw_bytes_per_clk *. sm *. clock_hz in
    let shared_seconds =
      c.shared_traffic_bytes *. Float.max 1.0 c.shared_conflict_factor /. shared_bw
    in

    (* --- overheads ------------------------------------------------------ *)
    (* Barrier cost: pipeline-drain bubble, hidden when other resident
       blocks can issue in the gap. *)
    let bar_cycles = 20.0 +. (2.0 *. float_of_int warps_per_block) in
    let bar_seconds =
      c.barriers_per_block *. blocks_f /. Float.max 1.0 (float_of_int concurrent)
      *. bar_cycles /. float_of_int (max 1 resident_blocks) /. clock_hz
    in
    (* Atomics: throughput-limited, with extra serialization when many
       K_G-split blocks contend on the same output tile (the "decreased
       write bandwidth" trade-off of §8.2). *)
    let atom_conflict = sqrt (float_of_int (max 1 c.grid_k)) in
    let atom_seconds = c.atom_ops *. d.atom_cycles *. atom_conflict /. sm /. clock_hz in
    let launch_seconds = d.launch_overhead_us *. 1e-6 in
    let overhead_seconds = bar_seconds +. atom_seconds +. launch_seconds in

    (* --- combine --------------------------------------------------------- *)
    let busy = Float.max arith_seconds (Float.max mem_seconds shared_seconds) in
    let residue = arith_seconds +. mem_seconds +. shared_seconds -. busy in
    let busy = busy +. (0.05 *. residue) in
    let seconds = (busy *. quant) +. overhead_seconds in
    let bound =
      if arith_seconds >= mem_seconds && arith_seconds >= shared_seconds then
        if latency_capped then Latency else Compute
      else if mem_seconds >= shared_seconds then
        if dram_bw_eff < d.dram_bw_gbs *. 0.95 then Latency else Memory
      else Shared_pipe
    in
    Some
      { seconds;
        tflops = c.useful_flops /. seconds /. 1e12;
        occupancy = warps_eff_f /. max_warps;
        warps_per_sm = warps_eff;
        blocks_per_sm = occ.blocks_per_sm;
        l2_hit_rate;
        effective_dram_gbs = dram_bw_eff;
        global_bytes;
        bound;
        arith_seconds;
        mem_seconds;
        shared_seconds;
        overhead_seconds }
  end
