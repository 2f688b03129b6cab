(** GEMM kernel generator (paper §3.2, Figure 3).

    From an (input, config) pair this module emits a mini-PTX program
    implementing C = A·B with:
    - block tiles M_L × N_L, thread tiles M_S × N_S;
    - cooperative staging of M_L×U and U×N_L panels into shared memory,
      transposing in-place when the layout requires it;
    - a fully unrolled inner loop of M_S·N_S·U multiply-accumulates;
    - reduction splitting at all three levels: K_S independent register
      chains, K_L thread groups reduced through shared memory, K_G grid
      slices accumulated with global atomics;
    - bounds handling by PTX predication, divergent branches (the CUDA-C
      simulation of §8.3) or no checks at all.

    The generated program really executes under {!Ptx.Interp} and is
    checked against {!reference} by the test suite across random
    parameterizations. *)

val generate :
  ?bounds:Gemm_params.bounds_mode ->
  ?alpha:float ->
  ?beta:float ->
  ?epilogue:Gemm_params.epilogue ->
  Gemm_params.input ->
  Gemm_params.config ->
  Ptx.Program.t
(** Requires [Gemm_params.structurally_legal input config]. The scalars
    alpha and beta are baked into the kernel as immediates (as a
    JIT-style generator would); beta ≠ 0 additionally requires
    K_G = 1, as does a fused epilogue (bias and/or relu applied in the
    store phase; bias is a per-column vector passed as an extra "BIAS"
    buffer). *)

val run_batched :
  ?bounds:Gemm_params.bounds_mode ->
  batch:int ->
  Gemm_params.input ->
  Gemm_params.config ->
  a:float array ->
  b:float array ->
  float array
(** Execute a strided-batched product (the cublasGemmStridedBatched
    analogue) under the interpreter: [a] holds batch M·K-element
    matrices back to back, [b] batch K·N, the result batch M·N. The
    kernel folds the batch index into the Y grid dimension, launched
    with grid (⌈M/M_L⌉, batch·⌈N/N_L⌉, K_G). *)

val generate_gather :
  ?bounds:Gemm_params.bounds_mode ->
  Gemm_params.input ->
  Gemm_params.config ->
  Ptx.Program.t
(** Implicit-GEMM variant used by {!Conv}: A-side loads are indirected
    through two extra buffer parameters, "LUT_ROW" (per-row base address)
    and "LUT_DELTA" (per-reduction-index offset), so that
    A\[i,j\] = A_buf\[LUT_ROW\[i\] + LUT_DELTA\[j\]\]. Both tables must be
    padded: LUT_ROW to ⌈M/M_L⌉·M_L entries and LUT_DELTA to K+U entries,
    with padding values that keep addresses in range (0 is safe). The
    [a_trans] field of the input is ignored in this mode. *)

val grid : Gemm_params.input -> Gemm_params.config -> int * int * int
(** Launch grid: (⌈M/M_L⌉, ⌈N/N_L⌉, K_G). *)

val block : Gemm_params.config -> int * int * int
(** Launch block: (threads, 1, 1). *)

val run :
  ?bounds:Gemm_params.bounds_mode ->
  ?alpha:float ->
  ?beta:float ->
  ?epilogue:Gemm_params.epilogue ->
  ?bias:float array ->
  ?c_in:float array ->
  ?domains:int ->
  Gemm_params.input ->
  Gemm_params.config ->
  a:float array ->
  b:float array ->
  float array
(** Generate, launch under the interpreter, and return
    C = alpha·A·B + beta·C_in (row-major M×N; alpha defaults to 1, beta
    to 0). [a] has M·K elements (K-major rows unless [a_trans], in which
    case it is stored K×M), [b] has K·N. When the configuration splits
    the reduction across the grid (K_G > 1) the beta term is folded into
    the output buffer on the host before launch, since the kernel then
    accumulates through atomics. *)

val run_counted :
  ?bounds:Gemm_params.bounds_mode ->
  ?alpha:float ->
  ?beta:float ->
  ?epilogue:Gemm_params.epilogue ->
  ?bias:float array ->
  ?domains:int ->
  Gemm_params.input ->
  Gemm_params.config ->
  a:float array ->
  b:float array ->
  ?c_in:float array ->
  unit ->
  float array * Ptx.Interp.counters
(** Like {!run} but also returns the dynamic instruction counters, used by
    tests to cross-check the static cost model. [domains] is forwarded to
    {!Ptx.Interp.run}; results are identical for any value. *)

val reference :
  ?alpha:float ->
  ?beta:float ->
  ?epilogue:Gemm_params.epilogue ->
  ?bias:float array ->
  ?c_in:float array ->
  Gemm_params.input ->
  a:float array ->
  b:float array ->
  float array
(** Straightforward triple-loop GEMM with the same layout conventions and
    output rounding, the oracle for correctness tests. *)
