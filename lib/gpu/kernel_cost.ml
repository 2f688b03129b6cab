type t = {
  name : string;
  dtype : Ptx.Types.dtype;
  vectorized_fp16 : bool;
  threads_per_block : int;
  regs_per_thread : int;
  shared_bytes : int;
  grid_m : int;
  grid_n : int;
  grid_k : int;
  tile_m : int;
  tile_n : int;
  u_depth : int;
  useful_flops : float;
  issued_fmas : float;
  fma_flops : float;
  ialu_per_fma : float;
  extra_instr_frac : float;
  load_a_bytes : float;
  load_b_bytes : float;
  store_bytes : float;
  atom_ops : float;
  coalescing : float;
  tx_coalescing : float;
  shared_traffic_bytes : float;
  shared_conflict_factor : float;
  ilp : float;
  mlp : float;
  barriers_per_block : float;
  k_iters : float;
}

let grid_blocks t = t.grid_m * t.grid_n * t.grid_k

let occupancy_usage t =
  { Occupancy.regs_per_thread = t.regs_per_thread;
    shared_bytes = t.shared_bytes;
    threads_per_block = t.threads_per_block }
