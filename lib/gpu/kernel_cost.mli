(** Cost descriptor of a generated kernel for a {e specific} input shape.

    The kernel generators emit two artefacts from one parameterization: a
    mini-PTX program (functional behaviour, checked by the interpreter)
    and this record (timing-relevant resource usage and work counts,
    consumed by {!Perf_model}). Tests cross-check the two on small shapes
    by comparing these static counts against the interpreter's dynamic
    counters. *)

type t = {
  name : string;
  dtype : Ptx.Types.dtype;
  vectorized_fp16 : bool;     (** kernel uses fp16x2 packed math *)
  (* resources *)
  threads_per_block : int;
  regs_per_thread : int;
  shared_bytes : int;
  (* geometry *)
  grid_m : int;               (** blocks along the M (rows) dimension *)
  grid_n : int;
  grid_k : int;               (** K_G: grid-level reduction splitting *)
  tile_m : int;               (** M_L: block tile height *)
  tile_n : int;               (** N_L: block tile width *)
  u_depth : int;              (** U: shared-memory prefetch depth *)
  (* work, whole grid *)
  useful_flops : float;       (** 2·M·N·K — what TFLOPS is measured against *)
  issued_fmas : float;        (** FMA instructions issued, incl. tile padding waste *)
  fma_flops : float;          (** flops per FMA instruction (2, or 4 for fp16x2) *)
  ialu_per_fma : float;       (** addressing/loop overhead instructions per FMA *)
  extra_instr_frac : float;   (** extra instruction fraction (e.g. branch-based
                                  bounds checks in §8.3's CUDA-C mode; ~0 for
                                  predication) *)
  (* memory, whole grid, bytes *)
  load_a_bytes : float;       (** global loads from the A-side operand *)
  load_b_bytes : float;
  store_bytes : float;        (** global stores of the output *)
  atom_ops : float;           (** global atomic reductions (K_G > 1) *)
  coalescing : float;         (** DRAM transaction efficiency in (0,1] *)
  tx_coalescing : float;
      (** transaction-level segment utilization in (0,1]: the fraction of
          each 128-byte segment a single warp access group consumes,
          without the L2 line-completion credit [coalescing] grants to
          DRAM bytes — partial lines still issue whole transactions *)
  shared_traffic_bytes : float;
  shared_conflict_factor : float;
                              (** mean bank-serialization degree of the
                                  kernel's shared transactions (≥ 1);
                                  multiplies the shared-pipeline time *)
  (* schedule structure *)
  ilp : float;                (** independent FMA chains per thread (M_S·N_S·K_S) *)
  mlp : float;                (** outstanding global loads per thread in the
                                  staging phase (memory-level parallelism) *)
  barriers_per_block : float;
  k_iters : float;            (** main-loop trip count per block *)
}

val grid_blocks : t -> int
(** Total blocks launched: [grid_m * grid_n * grid_k]. *)

val occupancy_usage : t -> Occupancy.usage
(** The kernel's resources as the occupancy calculator reads them. *)
