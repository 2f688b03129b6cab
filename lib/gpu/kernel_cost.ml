type sched = {
  stalls_per_slot : float;
  fma_issue_rate : float;
  crit_path_cycles : int;
  dual_issue_frac : float;
  sched_ilp : float;
  peak_fregs : int;
  peak_iregs : int;
}

let of_summary (s : Ptx.Scoreboard.summary) =
  { stalls_per_slot = s.Ptx.Scoreboard.stalls_per_slot;
    fma_issue_rate = s.fma_issue_rate;
    crit_path_cycles = s.crit_path_cycles;
    dual_issue_frac = s.dual_issue_frac;
    sched_ilp = s.ilp;
    peak_fregs = s.peak_fregs;
    peak_iregs = s.peak_iregs }

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
  sched : sched option;
}

let grid_blocks t = t.grid_m * t.grid_n * t.grid_k

let occupancy_usage t =
  (* With a scoreboard attached, the measured peak pressure refines the
     closed-form register estimate when it is larger: occupancy is
     pressure-capped by what an optimal allocator actually needs. *)
  let regs =
    match t.sched with
    | Some s -> max t.regs_per_thread (s.peak_fregs + s.peak_iregs)
    | None -> t.regs_per_thread
  in
  { Occupancy.regs_per_thread = regs;
    shared_bytes = t.shared_bytes;
    threads_per_block = t.threads_per_block }

let with_sched t summary = { t with sched = Some (of_summary summary) }
