(** Feature transformation for the performance MLP (paper §5.2).

    Performance models compose hidden hardware constants with input and
    tuning parameters through multiplications, divisions and maximums
    (Eq. 2–3); a feed-forward net cannot easily represent products of raw
    features, but in log space products become sums, so the paper sets
    a₋₁ = log(x) and reports that without it the model "converges to much
    worse solutions — if at all" (Table 2 reproduces both columns).

    A GEMM sample has 16 features: 6 input parameters (M, N, K, data-type
    size, two transposition flags) and 10 tuning parameters. CONV samples
    use the same 16 through their implicit-GEMM view plus the filter
    extent, see {!conv_features}. *)

val dim : int
(** Number of paper features, 16. *)

val input_dim : int
(** Number of input-parameter slots, 6: feature columns 0–5. The ten
    tuning slots follow, tuning parameter [j] in column [input_dim + j]. *)

val gemm_features :
  log:bool -> Codegen.Gemm_params.input -> int array -> float array
(** [gemm_features ~log input config_array]: with [log] the sizes and
    tuning values go through log2 (flags stay 0/1); without it they are
    passed raw (the ablation column of Table 2). *)

val conv_features :
  log:bool -> Codegen.Conv_params.input -> int array -> float array
(** Implicit-GEMM features of a convolution, with R·S folded into the
    data-type slot's spare bits — concretely the same 16 slots, with the
    transposition flags reused for log2(R·S) since convolutions have no
    layout flags. *)

type query
(** Featurization cache for one planning query: the six static input
    slots (shapes, data-type size, layout flags — identical for every
    candidate configuration of that query) precomputed once, so a row
    recomputes only the ten tuning slots, each a memoized-log2 table
    lookup. Values are bit-identical to the uncached
    {!gemm_features}/{!conv_features} (asserted by the differential
    tests). {!Search} reads a query's static slots
    ({!static_slots}) and scores rows from tables of standardized
    {!tuning_slot} values instead of filling rows one by one. *)

val gemm_query : log:bool -> Codegen.Gemm_params.input -> query
(** Precompute the static feature slots of a GEMM input. *)

val conv_query : log:bool -> Codegen.Conv_params.input -> query
(** Precompute the static slots of a convolution's implicit-GEMM view
    (R·S folded into the layout-flag slot, as in {!conv_features}). *)

val static_slots : query -> float array
(** A copy of the query's six static slots, feature columns 0 to
    {!input_dim} − 1, as {!gemm_features}/{!conv_features} compute
    them. *)

val tuning_slot : log:bool -> int -> float
(** The feature value of one tuning parameter's value [v]: log2 of [v]
    under [log], [v] itself without. Tuning parameter [j] of a
    configuration is feature column {!input_dim} [+ j]. *)

val fill_query : query -> int array -> Mlp.Matrix.t -> row:int -> unit
(** [fill_query q config x ~row] writes the {!dim}-wide feature vector
    of [config] (a flat 10-slot tuning configuration) into row [row] of
    the batch matrix [x], un-standardized, for {!Profile.predict_std_matrix}.
    [x] must have {!dim} columns. *)

val query_features : query -> int array -> float array
(** One row through {!fill_query}, returned as a plain array (tests and
    scalar callers). Equals [gemm_features]/[conv_features] of the same
    (input, config) bit-for-bit. *)

type scaler = {
  mean : float;
  std : float;
}
(** Standardization of the regression target. The target is
    log(TFLOPS): performance spans 3+ orders of magnitude and MSE on the
    log is what makes Table 2's values comparable across problems. *)

val fit_target_scaler : float array -> scaler
(** Fit on raw TFLOPS values (must be positive). *)

val target : scaler -> float -> float
(** TFLOPS → standardized log-space target. *)

val untarget : scaler -> float -> float
(** Inverse of {!target}. *)
