(** Generative modeling of the legal configuration space (paper §4.1).

    When only the possible space X̂ is explicitly known, uniform sampling
    wastes almost every draw on illegal configurations. The paper's
    remedy is a naive factorized categorical model: treat each tuning
    parameter as an independent categorical variable, estimate each
    marginal from the acceptance proportions of a short uniform warm-up,
    and smooth with a Dirichlet prior (pseudo-count α = 100 per value so
    no probability is ever exactly zero).

    Table 1 reports the resulting acceptance rates; {!acceptance_rate}
    reproduces that measurement.

    Fitting runs in a [sampler.fit] span, and while the {!Obs.Telemetry}
    registry collects the rejection loops count [sampler.accepted],
    [sampler.rejected.legal]/[.verify] and [sampler.exhausted], so a
    trace shows the realized acceptance rate of any run. *)

type t
(** A fitted categorical model over a {!Config_space.t}. *)

val fit :
  ?alpha:float ->
  ?warmup:int ->
  Util.Rng.t ->
  Config_space.t ->
  legal:(int array -> bool) ->
  t
(** [fit rng space ~legal] draws [warmup] (default 10000) uniform
    configurations, keeps the acceptance counts of every parameter value
    among legal draws, and returns the per-parameter marginals smoothed
    by a Dirichlet prior of [alpha] pseudo-counts (default 100, as in the
    paper). *)

val marginal : t -> int -> float array
(** [marginal t i] is the fitted probability distribution over parameter
    [i]'s values (sums to 1). *)

val sample : Util.Rng.t -> t -> int array
(** One draw from the factorized model (not necessarily legal — the
    factorization is naive; callers keep rejecting, just ~100× less
    often). *)

val sample_legal :
  ?max_tries:int -> Util.Rng.t -> t -> legal:(int array -> bool) -> int array option
(** Rejection-sample until [legal] accepts (default 1000 tries). *)

val sample_verified :
  ?max_tries:int ->
  Util.Rng.t ->
  t ->
  legal:(int array -> bool) ->
  verify:(int array -> bool) ->
  int array option
(** Like {!sample_legal}, but additionally requires [verify] — intended
    to be a static-verifier oracle (e.g. {!Dataset.gemm_static_ok}),
    which runs only on configurations [legal] already accepted, so the
    expensive kernel generation + analysis is paid ~1 time per accepted
    draw rather than per rejection. *)

val acceptance_rate :
  trials:int -> sample:(unit -> int array) -> legal:(int array -> bool) -> float
(** Monte-Carlo acceptance estimate used by the Table 1 reproduction. *)
