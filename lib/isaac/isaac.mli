(** ISAAC: input-aware auto-tuning of compute-bound kernels.

    This is the public entry point of the reproduction, wiring together
    the paper's four components (Figure 1):
    + kernel generation — {!Codegen.Gemm} / {!Codegen.Conv};
    + data generation — {!Tuner.Dataset} (categorical generative model,
      §4);
    + regression analysis — {!Mlp} + {!Tuner.Profile} (log-featured MLP,
      §5);
    + runtime inference — {!Tuner.Search} (exhaustive search over tuning
      parameters with top-k device re-benchmarking, §6).

    Typical use:
    {[
      let rng = Util.Rng.create 42 in
      let engine = Isaac.tune rng Gpu.Device.p100 ~op:`Gemm () in
      let input = Codegen.Gemm_params.input 2560 16 2560 in
      let plan = Option.get (Isaac.plan_gemm engine input) in
      (* plan.config is the chosen kernel; on small problems you can run
         it for real under the PTX interpreter: *)
      let c = Isaac.gemm engine input ~a ~b
    ]} *)

module Plan_cache = Tuner.Plan_cache
(** The sharded, coalescing, LRU-bounded cache the engine serves plans
    from — re-exported so servers and tests can reach its {!Plan_cache.stats}
    and {!Plan_cache.outcome} types. *)

type t
(** A tuned engine: device + trained profile + kernel-plan caches (one
    per op) + the search's {!Tuner.Search.planner}, which memoizes each
    legality class's legal set and scored rows, so a cold input whose
    class the engine has already planned skips enumeration. Safe to
    share across domains: plan lookups and class lookups are lock-free,
    concurrent misses on the same input coalesce onto one planning run,
    and concurrent misses on one class onto one walk; memo entries are
    immutable once published, and a plan never depends on what the memo
    held before. *)

(** The outcome of runtime inference for one input. *)
type plan = {
  config : Codegen.Gemm_params.config;   (** chosen tuning parameters *)
  measurement : Gpu.Executor.measurement; (** device re-benchmark result *)
  predicted_tflops : float;               (** the model's estimate *)
  n_legal : int;                           (** legal configs searched *)
  phases : (string * float) list;
  (** planning wall-clock per pipeline phase ([enumerate], [featurize],
      [inference], [argmax], [rebench]) as reported by
      {!Tuner.Search.result.phases}: the one field that differs between
      two plans of the same input. Shown by [isaac_query --timing]. *)
  kernel_hash : int64;
  (** {!Ptx.Program.hash} of the generated kernel: an O(1) kernel
      identity, served on the wire. Plans for different inputs that
      generate the same kernel carry equal hashes. Every plan has one:
      the hash needs no register allocation or encoding. *)
}

val tune :
  ?samples:int ->
  ?epochs:int ->
  ?arch:int array ->
  ?dtypes:Ptx.Types.dtype list ->
  ?noise:float ->
  ?domains:int ->
  Util.Rng.t ->
  Gpu.Device.t ->
  op:[ `Gemm | `Conv ] ->
  unit ->
  t
(** Run the full auto-tuning pipeline: fit the generative model, benchmark
    [samples] random kernels (default 4000 scaled by REPRO_SCALE; the
    paper uses 50k–200k on real hardware), and train the regression MLP
    ([arch] defaults to {!Tuner.Profile.train}'s 32-64-32 hidden layers).
    [domains > 1] parallelizes the benchmarking stage over OCaml 5
    domains; it defaults to {!Util.Parallel.recommended_domains} — the
    same default as {!Tuner.Search} and the codegen entry points — so set
    [ISAAC_DOMAINS=1] (or pass [~domains:1]) when cross-machine bitwise
    reproducibility matters. Deterministic given the rng and the domain
    count. *)

val of_profile :
  ?cache_entries:int -> ?planner:Tuner.Search.planner -> Gpu.Device.t ->
  Tuner.Profile.t -> t
(** Wrap a previously saved profile. Raises [Invalid_argument] if the
    profile was tuned for a different device. [cache_entries] bounds
    each per-op plan cache (LRU eviction beyond it; unbounded by
    default — library users typically plan a handful of shapes, while
    the serving daemon can pass a budget). Evictions count as
    [plan.evictions] in {!Obs.Telemetry}. [planner] supplies the
    legality-class memo. No memo entry depends on the profile, so
    engines may share one: the serving daemon builds both of its
    engines, and every reloaded one, on one planner. Without it the
    engine starts with an empty memo of its own. The memo is not
    bounded by [cache_entries] but by its keys, at most 3 dtypes × 25
    K-split classes per scoring cap, each at most 4 bytes × cap
    (≈ 18 MB in all at the default cap). *)

val profile : t -> Tuner.Profile.t
val device : t -> Gpu.Device.t

val plan_gemm : t -> Codegen.Gemm_params.input -> plan option
(** Runtime inference for a GEMM input. Results are cached per input, so
    repeated calls are free: the engine's resident plan cache is this
    reproduction's §6 cache, kept in memory only. The search runs
    {!Tuner.Search.exhaustive_gemm} with its defaults, including the
    paper's top-100 re-benchmark, and the engine's planner, so a miss
    whose legality class the planner has seen skips the walk. A miss
    then generates the winner's kernel and hashes it
    ({!plan.kernel_hash}). Traced, the search runs in a [plan] span and
    the hash in a [kernel.hash] span after it, and every span of the
    call carries one request id: the caller's when one is in scope
    ({!Obs.Span.with_request}), else a fresh one.

    Concurrency-safe: lookups are lock-free, and N domains racing a
    cold input trigger exactly one search (the rest park on it and
    receive the identical plan). The search's measurement noise is
    seeded from the (op, input) pair, so a plan is a deterministic
    function of (profile, device, input) — independent of request
    order and domain count. *)

val plan_conv : t -> Codegen.Conv_params.input -> plan option

val plan_gemm_with_status :
  t -> Codegen.Gemm_params.input -> plan option * Plan_cache.outcome
(** {!plan_gemm} plus how the cache served it ([Hit]/[Miss]/[Coalesced])
    — the serving daemon reports this on the wire. *)

val plan_conv_with_status :
  t -> Codegen.Conv_params.input -> plan option * Plan_cache.outcome

val cache_stats : t -> Plan_cache.stats
(** Merged counters of the GEMM and CONV plan caches. Cache-hit ages
    reported to telemetry ([plan.cache_hit_age_s]) are clamped at 0:
    entry timestamps are wall clock ([Unix.gettimeofday], the process
    has no monotonic-clock dependency), so an NTP step backwards
    surfaces as zero-age hits rather than negative ages. *)

val gemm :
  t -> Codegen.Gemm_params.input -> a:float array -> b:float array -> float array
(** Plan, generate the kernel, and execute it under the PTX interpreter.
    Intended for examples/tests on small problems — the interpreter is a
    functional simulator, not a fast CPU BLAS. Raises [Failure] if
    planning fails. *)

val conv :
  t -> Codegen.Conv_params.input -> image:float array -> filter:float array ->
  float array

val explain_gemm : t -> Codegen.Gemm_params.input -> string
(** A human-readable §8.1-style analysis of the planned kernel for this
    input: the chosen parameters, the timing model's introspection
    (occupancy, residency, L2 hit rate, bound resource, pipeline time
    breakdown), the measured register pressure of the generated code, an
    energy estimate, and a comparison against the cuBLAS-like baseline's
    pick. Raises [Failure] if no kernel is legal. *)

val explain_conv : t -> Codegen.Conv_params.input -> string
(** Same against the cuDNN-like baseline. *)
