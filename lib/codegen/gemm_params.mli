(** Parameterization of the GEMM kernel generator (paper §3.2, Figure 3).

    An {e input} is what the user fixes at runtime — shapes, data-type and
    transposition layouts (6 parameters). A {e config} is what the
    auto-tuner controls — the 10 tuning parameters. Together they span the
    N^16 space of §4.

    Legality is split in two layers, mirroring the paper's X ⊂ X̂:
    {!structurally_legal} checks divisibility/shape constraints knowable
    from the parameterization alone, and device legality (registers,
    shared memory) is checked by {!Gpu.Executor.legal} on the generated
    cost descriptor. *)

type input = {
  m : int;
  n : int;
  k : int;
  dtype : Ptx.Types.dtype;
  a_trans : bool;  (** A is stored K-major ("T" in BLAS terms) *)
  b_trans : bool;
}

type config = {
  ms : int;  (** M_S: per-thread tile height *)
  ns : int;  (** N_S: per-thread tile width *)
  ks : int;  (** K_S: register-level reduction split (independent chains) *)
  ml : int;  (** M_L: per-block tile height *)
  nl : int;  (** N_L: per-block tile width *)
  u : int;   (** U: shared-memory prefetch depth along K *)
  kl : int;  (** K_L: block-level reduction split (extra warps) *)
  kg : int;  (** K_G: grid-level reduction split (global atomics) *)
  vec : int; (** vector width of global fetches (1, 2, 4) *)
  db : int;  (** staging buffers: 1 = single, 2 = double buffering *)
}

(** How out-of-bounds accesses are handled (paper §8.3). *)
type bounds_mode =
  | Predicated  (** PTX predication: ~2% overhead *)
  | Branch      (** CUDA-C-style divergent branches: 15–20% overhead *)
  | Unchecked   (** no checks; only legal for exactly-divisible shapes *)

(** Fused epilogues, the staple of deep-learning GEMM libraries: apply a
    per-column bias and/or a relu inside the kernel's store phase rather
    than in a separate pass. Requires K_G = 1 (the atomics of a
    grid-level reduction split cannot carry a nonlinear epilogue). *)
type epilogue = Plain | Relu | Bias | Bias_relu

val max_dim : int
(** 2{^31} − 1, the largest dimension {!cost} takes: the [int] range of
    cuBLAS and cuDNN. Above it the cost model's int arithmetic (grid
    extents and their product) would wrap. *)

val check_dim : string -> string -> int -> unit
(** [check_dim fn name v] raises [Invalid_argument], naming [fn] and the
    quoted [name], when [v] is above {!max_dim}. *)

val input : ?dtype:Ptx.Types.dtype -> ?a_trans:bool -> ?b_trans:bool ->
  int -> int -> int -> input
(** [input m n k] with fp32 non-transposed defaults. Raises
    [Invalid_argument] naming the first of [m], [n], [k] above
    {!max_dim}. *)

val values_ms : int array
val values_ns : int array
val values_ks : int array
val values_ml : int array
val values_nl : int array
val values_u : int array
val values_kl : int array
val values_kg : int array
val values_vec : int array
val values_db : int array
(** Candidate values of each tuning parameter (the X̂ grid). *)

val config_of_array : int array -> config
val config_to_array : config -> int array
(** Conversion to/from the flat 10-vector ordering
    \[ms; ns; ks; ml; nl; u; kl; kg; vec; db\]. *)

val threads_per_block : config -> int
(** (M_L/M_S)·(N_L/N_S)·K_L. *)

val structurally_legal : input -> config -> bool
(** Divisibility and size constraints (device-independent, but
    input-dependent through K vs K_G·U). *)

val shared_words : config -> int
(** Shared-memory footprint in compute-dtype words (staging, double
    buffering, and the K_L reduction scratch, which reuses the staging
    allocation). *)

val regs_estimate : input -> config -> int
(** Register pressure estimate per thread (accumulators + fragments +
    staging + addressing), matching what a PTX assembler would allocate. *)

val cost : ?bounds:bounds_mode -> input -> config -> Gpu.Kernel_cost.t
(** Timing-model descriptor for this (input, config) pair. Requires
    [structurally_legal input config]. *)

val describe : config -> string
(** Short human-readable form, e.g. "64x32x8 ms2 ns4 ks1 kl1 kg4 v2 db2". *)

val describe_name : input -> config -> string
(** Kernel-name form, e.g. "gemm_f32_nt_64x32x8_t128". *)

val equal_config : config -> config -> bool
