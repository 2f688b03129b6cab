(** Runtime kernel inference (paper §6).

    At runtime the input parameters are fixed; the trained model is
    optimized over tuning parameters only, by exhaustive search over the
    legal grid — "guaranteed to find the global optimum within the
    specified search range" — followed by re-benchmarking the top-k
    candidates on the device "to smooth out the inherent noise of our
    predictive model".

    One pipeline implements it (see DESIGN.md, "Planning hot path"):
    - a bound-pruned lattice walk whose surviving leaves are exactly the
      legal set (the deepest pruning levels check every legality
      conjunct). It reads the input only through its dtype and the
      K-split checks [kg = 1 || ceil (k / kg) >= u] that [k] passes, so
      inputs agreeing on those (and on the device and the scoring cap)
      share one legality class. A {!planner} memoizes each class's
      legal-set size and scored rows, as 4-byte configuration codes
      outside the OCaml heap, so a class is walked once per planner;
    - table featurization: per request, one table per tuning parameter
      of the profile's standardized values of that parameter, and the
      request's six standardized static slots
      ({!Features.static_slots}, {!Profile.standardize_feature}). No
      feature row is built;
    - coded-row scoring: the network reads the class entry's codes in
      place, each row the six static slots and the ten table values its
      code selects, with the first layer's sum over the static slots
      and every table value's product with its weights taken once per
      call ({!Mlp.Network.predict_codes}), in row ranges fanned across
      domains.

    Float contract: the pipeline is bit-identical to composing this
    library's reference components — {!legal_gemm_config_array_ref},
    {!Features.gemm_features}, {!Profile.predict_std_one} (the
    pure-OCaml {!Mlp.Network.predict}) and a stable sort by descending
    prediction — each held to its fast counterpart by its own
    differential test. [test_tuner] composes them into a reference
    planner and requires {!exhaustive_gemm} and {!exhaustive_conv} to
    return its chosen config, measurement, candidates and predictions
    bit for bit, with a fresh planner and with one that already holds
    the input's class.

    Each phase runs as one span, [search.<phase>] for the five phases
    of {!result.phases}: its duration is the [phases] entry, the trace
    event's [dur] and the one observation of the [search.<phase>_s]
    histogram. The [search.enumerate] span's meta carries ["class"]:
    ["hit"] when the planner already held the input's class (the phase
    then reads ~0 ms), ["miss"] when this request walked it, and
    ["coalesced"] when it waited for another request's walk; the
    counters [search.class_hit] (hits and coalesced waits) and
    [search.class_miss] (walks) total them. Under [ISAAC_TRACE] every
    re-benchmarked candidate also emits a [config] event carrying both
    its predicted and measured TFLOPS — the data for studying model
    miscalibration on the short-list. *)

type candidate = {
  config : Codegen.Gemm_params.config;
  predicted_tflops : float;
}

type result = {
  best : Codegen.Gemm_params.config;
  best_measurement : Gpu.Executor.measurement;
  candidates : candidate array;   (** top-k by model prediction, ranked *)
  n_legal : int;                  (** size of the legal space: the
                                      leaves the pruned enumeration
                                      emits *)
  n_scored : int;                 (** configurations scored by the model:
                                      all [n_legal], or every
                                      [ceil (n_legal / cap)]-th beyond
                                      the cap *)
  phases : (string * float) list;
  (** wall-clock seconds per pipeline phase, in order: [enumerate]
      (the legality-class lookup, and the walk on a miss), [featurize]
      (the request's standardized static slots and tuning tables),
      [inference] (network forward), [argmax] (top-k selection,
      {!top_k_indices}, plus the k candidate records) and [rebench]
      (on-device short-list timing) — each the duration of the phase's
      [search.<phase>] span. Surfaced by [isaac_query --timing]. *)
}

val top_k_indices : k:int -> float array -> int array
(** [top_k_indices ~k pred] ranks the indices of [pred] by descending
    [Float.compare] of their values, ties to the lower index, and
    returns the first [min k n] ([[||]] when [k <= 0]). This is the
    prefix of [Array.stable_sort] by descending [Float.compare]: NaN
    ranks last and [-0.0] ties with [0.0]. It runs a bounded heap of
    [k] indices over one pass of [pred], so it costs O(n + k log k)
    comparisons for the usual case rather than a full sort's
    O(n log n). The search's [argmax] phase. *)

val legal_gemm_config_array :
  Gpu.Device.t -> Codegen.Gemm_params.input -> Codegen.Gemm_params.config array
(** All fully legal configurations for this input, enumerated in a single
    bound-pruned pass over the space (reverse grid order, matching what
    the historical list API produced; identical to
    {!legal_gemm_config_array_ref} element-for-element). It depends on
    the input only through its dtype and the K-split checks its [k]
    passes, so two inputs of one legality class get equal arrays.
    {!exhaustive_gemm} walks the same enumeration and keeps codes, not
    records; {!oracle_gemm} consumes this array. *)

val legal_conv_config_array :
  Gpu.Device.t -> Codegen.Conv_params.input -> Codegen.Gemm_params.config array
(** CONV analogue of {!legal_gemm_config_array}: CONV legality is GEMM
    legality of the implicit-GEMM view ([Conv_params.gemm_input]), so the
    same pruned enumerator runs on that view. *)

val legal_gemm_config_array_ref :
  Gpu.Device.t -> Codegen.Gemm_params.input -> Codegen.Gemm_params.config array
(** Reference enumeration — one unpruned pass over the whole grid with
    legality decided by building each candidate's full cost record from
    the whole input. The differential tests assert it equals
    {!legal_gemm_config_array} exactly, and the test-side reference
    planner enumerates with it; the library never calls it. *)

val legal_conv_config_array_ref :
  Gpu.Device.t -> Codegen.Conv_params.input -> Codegen.Gemm_params.config array
(** CONV analogue of {!legal_gemm_config_array_ref}. *)

type planner
(** What a planning engine keeps between requests: the legality-class
    memo, one entry per (device, dtype, K-split class, scoring cap)
    seen — the class's legal-set size and its scored rows as
    configuration codes, at most 4 bytes a row outside the OCaml heap,
    so at most 3 dtypes × 25 K-split classes × 4 B × cap (≈ 18 MB at
    the default cap) per device and cap. An entry depends on no
    profile, so GEMM and CONV requests share it. Safe to share across
    domains: lookups are lock-free, and racing misses on one class run
    one walk ({!Plan_cache.find_or_compute}). Each [Isaac] engine holds
    one; the serving daemon builds all its engines on one. *)

val planner : unit -> planner
(** An empty memo. *)

val exhaustive_gemm :
  ?top_k:int ->
  ?cap:int ->
  ?noise:float ->
  ?domains:int ->
  ?planner:planner ->
  Util.Rng.t ->
  Gpu.Device.t ->
  profile:Profile.t ->
  Codegen.Gemm_params.input ->
  result option
(** Full §6 pipeline. [top_k] defaults to 100 (as in the paper); [cap]
    (default 60000, env ISAAC_SEARCH_CAP) bounds how many legal
    configurations are scored — beyond it every [ceil (n_legal / cap)]-th
    legal configuration is scored instead, trading the global-optimum
    guarantee for latency exactly like shrinking the paper's "specified
    search range". The top [top_k] scored configurations, ranked by
    descending prediction with ties to the earlier one, are
    re-benchmarked in rank order with [rng]; a later candidate replaces
    the best only if strictly faster.
    Raises [Invalid_argument] naming the parameter ([top_k], [cap], or
    [ISAAC_SEARCH_CAP] when the cap came from the environment) if
    either is below 1.
    [None] when no configuration is legal (never happens for the spaces
    shipped here). [domains > 1] spreads model scoring over OCaml 5
    domains; it defaults to
    [Util.Parallel.recommended_domains ()], so ISAAC_DOMAINS governs it.
    Results are identical for any [domains] (given equal [rng] state).
    Features follow the profile's [log_features] flag.
    [planner] supplies the legality-class memo. Without it the search
    makes a fresh one for this request, so it walks the class like any
    miss. Results are identical either way. *)

val exhaustive_conv :
  ?top_k:int ->
  ?cap:int ->
  ?noise:float ->
  ?domains:int ->
  ?planner:planner ->
  Util.Rng.t ->
  Gpu.Device.t ->
  profile:Profile.t ->
  Codegen.Conv_params.input ->
  result option
(** CONV analogue of {!exhaustive_gemm}. *)

val oracle_gemm :
  Gpu.Device.t -> Codegen.Gemm_params.input ->
  (Codegen.Gemm_params.config * Gpu.Perf_model.report) option
(** Noise-free argmax of the timing model over the whole legal space: the
    best any search could do. Used by tests ("the MLP search reaches ≥x%
    of the oracle") and by the §8 analysis tables. *)
