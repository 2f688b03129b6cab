(** Statistical comparison of two {!Bench_report}s — the logic behind the
    [isaac_bench_diff] CI gate.

    Metrics are matched by name and judged per {!Bench_report.kind}:

    - [Deterministic] metrics are bit-reproducible for a fixed seed and
      scale, so any worse-direction drift beyond [det_tolerance]
      (default 1%) is a significant regression.
    - [Timing] metrics carry machine noise. When both sides have
      bootstrap confidence intervals, a regression is significant only
      if the intervals are disjoint {e and} the relative change exceeds
      [timing_threshold] (default 25%) — the CI-overlap rule of Chen &
      Revels' robust-benchmarking methodology. Without intervals (e.g.
      single-shot experiment wall times, synthesized from the report's
      experiments section as [wall.<key>] comparisons), only the
      generous [wall_threshold] (default 50%) applies.

    Shape checks regress when a check passing in the baseline fails in
    the candidate (always significant — the reproduction lost a claim).
    Metrics present in only one report yield [Missing] / [New] verdicts,
    which never count as significant; strict callers can still refuse
    them. *)

type verdict = Improved | Unchanged | Regressed | Missing | New

val verdict_name : verdict -> string

type comparison = {
  c_name : string;           (** metric name, [wall.<key>] or [check:…] *)
  base : float;
  cand : float;
  rel : float;               (** (cand - base) / |base| *)
  verdict : verdict;
  significant : bool;        (** regressed beyond the statistical gate *)
  note : string;             (** human-readable rationale *)
}

type config = {
  det_tolerance : float;
  timing_threshold : float;
  wall_threshold : float;
}

val default_config : config
(** [{ det_tolerance = 0.01; timing_threshold = 0.25;
      wall_threshold = 0.5 }] *)

val compare_reports :
  ?config:config -> Bench_report.t -> Bench_report.t -> comparison list
(** [compare_reports base cand] — all comparisons, metric order
    following the candidate report (then baseline-only leftovers). *)

val knob_notes : Bench_report.t -> Bench_report.t -> string list
(** [knob_notes base cand]: one line per environment knob
    ([env.knobs]) whose value differs between the two reports, or that
    only one of them records, in knob-name order. A changed knob can move
    deterministic metrics, so [isaac_bench_diff] prints these as notes;
    they never fail the comparison. *)

val regressions : comparison list -> comparison list
(** The significant regressions only. *)

val worsened : comparison list -> comparison list
(** Every [Regressed] verdict, significant or not (strict-mode fodder),
    plus [Missing] metrics. *)
