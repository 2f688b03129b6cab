(** Training-set synthesis (paper §4): draw random (input, tuning)
    pairs from the generative model, benchmark the induced kernels on the
    device, and record (features, TFLOPS) pairs.

    Inputs (shapes, layouts, data-types) are sampled log-uniformly across
    the ranges the evaluation suites live in, so the MLP must genuinely
    interpolate input-dependence — the system never trains on the
    benchmark shapes themselves.

    Generation runs inside a [dataset.generate] span. While the
    {!Obs.Telemetry} registry collects, it counts [dataset.rows], and
    the static oracles ({!gemm_static_ok}, {!conv_static_ok}) count
    per-diagnostic verifier rejections ([verify.fail.<kind>]); under
    [ISAAC_TRACE] generation also emits one [config] event per
    benchmarked configuration (see DESIGN.md, "Observability"). *)

type t = {
  op : [ `Gemm | `Conv ];
  device : string;
  features_log : Mlp.Matrix.t;   (** n × {!Features.dim}, log-transformed *)
  features_raw : Mlp.Matrix.t;   (** same rows without the log (ablation) *)
  tflops : float array;
}

val size : t -> int
(** Number of measured samples (rows). *)

val random_gemm_input :
  ?dtypes:Ptx.Types.dtype list -> Util.Rng.t -> Codegen.Gemm_params.input
(** Log-uniform M, N ∈ \[16, 4096\], K ∈ \[16, 65536\], random layouts and
    data-type. *)

val random_conv_input :
  ?dtypes:Ptx.Types.dtype list -> Util.Rng.t -> Codegen.Conv_params.input
(** Log-uniform N/C/K/P/Q, filter sizes in {1,3,5,7}, random stride and
    padding — the CONV analogue of {!random_gemm_input}. *)

val gemm_legal :
  Gpu.Device.t -> Codegen.Gemm_params.input -> int array -> bool
(** Full legality of a flat configuration: structural + device resource
    limits (the X of §4). *)

val conv_legal : Gpu.Device.t -> Codegen.Conv_params.input -> int array -> bool
(** CONV analogue of {!gemm_legal} (legality is checked on the induced
    implicit-GEMM problem). *)

val gemm_static_ok : Codegen.Gemm_params.input -> int array -> bool
(** Static legality oracle: generate the kernel and accept iff
    {!Ptx.Verify.run} reports no errors. Requires the configuration to
    already be structurally legal (pair with {!gemm_legal} or use
    {!Sampler.sample_verified}). *)

val conv_static_ok : Codegen.Conv_params.input -> int array -> bool
(** CONV analogue of {!gemm_static_ok}. *)

val fit_gemm_sampler :
  ?warmup:int -> ?dtypes:Ptx.Types.dtype list -> Util.Rng.t -> Gpu.Device.t ->
  Sampler.t
(** Fit the categorical generative model against legality under random
    inputs (each warm-up draw pairs a uniform configuration with a fresh
    random input). *)

val fit_conv_sampler :
  ?warmup:int -> ?dtypes:Ptx.Types.dtype list -> Util.Rng.t -> Gpu.Device.t ->
  Sampler.t
(** CONV analogue of {!fit_gemm_sampler}. *)

val generate_gemm :
  ?domains:int ->
  ?dtypes:Ptx.Types.dtype list ->
  ?noise:float ->
  ?sampler:Sampler.t ->
  Util.Rng.t ->
  Gpu.Device.t ->
  n:int ->
  t
(** Generate [n] measured samples. A pre-fitted sampler can be supplied
    to skip the warm-up. [domains > 1] fans the benchmarking loop out
    over OCaml 5 domains (deterministic for fixed seed and domain
    count).

    Inputs for which no measurable configuration exists (e.g. an
    over-restricted [dtypes]) are skipped and counted in
    [dataset.skipped_inputs]; if 100 consecutive inputs make no
    progress, generation raises [Failure] with a descriptive message
    instead of spinning forever. *)

val generate_conv :
  ?domains:int ->
  ?dtypes:Ptx.Types.dtype list ->
  ?noise:float ->
  ?sampler:Sampler.t ->
  Util.Rng.t ->
  Gpu.Device.t ->
  n:int ->
  t
(** CONV analogue of {!generate_gemm}. *)

val throughput_probe :
  Util.Rng.t -> Gpu.Device.t -> n:int -> float
(** Samples-per-second of the full generate-validate-measure loop (the
    §4.2 "50,000 valid kernels in under two hours" claim, which our
    simulated device beats by construction; reported for completeness).
    Measured in wall-clock time, so multi-domain runs are not credited
    with their summed CPU time. *)
