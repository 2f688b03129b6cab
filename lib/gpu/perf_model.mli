(** Analytical kernel timing model in the style of Volkov's dissertation —
    the model family the paper cites (its Eq. 2 and 3) as the structure an
    input-aware MLP must implicitly learn.

    Execution time is the maximum of the arithmetic-pipeline, DRAM and
    shared-memory pipeline times (imperfect overlap adds a fraction of the
    non-dominant terms), each subject to a latency-hiding ceiling driven
    by resident warps and per-thread ILP/MLP, plus barrier, atomic,
    wave-quantization and launch overheads.

    Nothing in this module is specific to a benchmark: speedups in the
    reproduced figures emerge from resource trade-offs, not from oracle
    constants. *)

type bound = Compute | Memory | Shared_pipe | Latency

val bound_name : bound -> string

type report = {
  seconds : float;
  tflops : float;           (** useful flops / seconds *)
  occupancy : float;        (** effective resident warps / max warps *)
  warps_per_sm : int;       (** effective resident warps (grid-limited) *)
  blocks_per_sm : int;      (** occupancy-calculator residency *)
  l2_hit_rate : float;      (** traffic-weighted global-load hit rate *)
  effective_dram_gbs : float;
  global_bytes : float;
      (** pre-L2 global transaction traffic (loads inflated by the
          coalescing factor, plus stores and atomics): the mem term's
          traffic driver, comparable against emulated transaction
          counters independent of the bandwidth model *)
  bound : bound;
  arith_seconds : float;
  mem_seconds : float;
  shared_seconds : float;
  overhead_seconds : float; (** barriers + atomics + launch *)
}

val predict : Device.t -> Kernel_cost.t -> report option
(** [None] when the kernel cannot launch on the device (occupancy 0 —
    the "possible but not legal" X̂ \ X region of §4). The arithmetic
    pipeline's latency ceiling is the paper's closed form (Eq. 2): each
    warp issues at most [min 1 (ilp / fma_latency)] FMAs per cycle. *)
