(** GPU device descriptors.

    Table 3 of the paper: the two test platforms are a GTX 980 Ti
    (Maxwell GM200, consumer) and a Tesla P100 PCIe (Pascal GP100,
    server). These records expose the *architectural* constants the
    analytical timing model needs — the "hidden hardware features" the
    paper's MLP must implicitly learn. *)

type arch = Maxwell | Pascal

type t = {
  name : string;
  arch : arch;
  sm_count : int;
  cores_per_sm : int;             (** fp32 lanes per SM *)
  clock_ghz : float;              (** sustained boost clock *)
  dram_bw_gbs : float;            (** peak DRAM bandwidth, GB/s *)
  l2_bytes : int;
  shared_per_sm : int;            (** shared memory per SM, bytes *)
  shared_per_block_max : int;     (** per-block shared memory limit *)
  regs_per_sm : int;              (** 32-bit registers per SM *)
  regs_per_thread_max : int;
  max_threads_per_sm : int;
  max_threads_per_block : int;
  max_blocks_per_sm : int;
  warp_size : int;
  fma_latency : float;            (** cycles *)
  mem_latency : float;            (** DRAM round-trip, cycles *)
  shared_bw_bytes_per_clk : int;  (** shared-memory bytes/cycle/SM *)
  fp64_ratio : float;             (** fp64 throughput / fp32 throughput *)
  has_fp16x2 : bool;              (** packed half2 FMA (Pascal GP100) *)
  atom_cycles : float;            (** amortized SM-cycles per distinct-address global atomic (conflicts add a factor) *)
  launch_overhead_us : float;     (** fixed kernel launch cost *)
}

val gtx980ti : t
(** Maxwell GM200: 2816 cores, ~5.8 fp32 TFLOPS, 336 GB/s GDDR5, 3 MB L2,
    96 KB shared/SM, fp64 = 1/32, no fp16x2 (fp16 executes at fp32 rate
    with halved storage). *)

val p100 : t
(** Pascal GP100: 3584 cores, ~9.7 fp32 TFLOPS, 732 GB/s HBM2, 4 MB L2,
    64 KB shared/SM, fp64 = 1/2, fp16x2 doubles fp16 throughput. *)

val all : t list

val peak_tflops : t -> Ptx.Types.dtype -> vectorized:bool -> float
(** Peak arithmetic throughput for a data-type. For [F16],
    [vectorized=true] means the kernel uses fp16x2 instructions; on a
    device without fp16x2 support the vectorized and scalar rates are
    both the fp32 rate. *)

val fma_warp_throughput : t -> Ptx.Types.dtype -> vectorized:bool -> float
(** FMA warp-instructions per cycle per SM for the data-type, e.g. 4.0 for
    fp32 on Maxwell (128 lanes / 32). *)
