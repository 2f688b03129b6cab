(** Versioned, machine-readable benchmark reports ([BENCH_<rev>.json]).

    The bench harness assembles one {!t} per run: environment metadata
    (seed, scale, git revision, devices, every {!Util.Env_config} knob
    the run consulted), per-experiment wall times and shape-check
    outcomes, scalar metrics (predicted TFLOPS, acceptance rates,
    micro-benchmark medians with bootstrap confidence intervals) and the
    model-vs-counter attribution rows of {!Gpu.Attribution}.

    Reports serialize through {!Json} and round-trip exactly; {!Regress}
    compares two of them and [isaac_bench_diff] turns that comparison
    into a CI exit code. The schema is versioned: [of_json] accepts any
    report whose [version] is at most {!schema_version} (fields added
    later must be optional), and rejects newer ones. *)

val schema_version : int
(** Current schema version (1). *)

type direction = Higher_better | Lower_better | Neutral
(** Which way improvement points for a metric. [Neutral] metrics are
    informational and never gate. *)

type kind =
  | Deterministic
      (** Bit-reproducible given seed and scale (model predictions,
          acceptance rates, correlations): any drift beyond a small
          tolerance is a genuine behaviour change. *)
  | Timing
      (** Wall-clock measurement: machine- and load-dependent, gated
          only with confidence intervals and generous thresholds. *)

type metric = {
  m_name : string;       (** unique key, e.g. ["fig6.geomean_speedup"] *)
  m_experiment : string; (** owning experiment key, e.g. ["fig6"] *)
  value : float;
  unit_ : string;        (** ["tflops"], ["ns/op"], ["ratio"], … *)
  direction : direction;
  kind : kind;
  ci : (float * float) option;
      (** bootstrap confidence interval for the value, when available *)
  n : int option;        (** sample count behind the value *)
}

type check = { claim : string; paper : string; ours : string; pass : bool }
(** One qualitative shape check, as printed by the harness. *)

type experiment = {
  key : string;
  wall_seconds : float;
  checks : check list;
}

type attribution = {
  term : string;      (** [Perf_model] cost term, e.g. ["mem_seconds"] *)
  counter : string;   (** paired interpreter counter name *)
  a_n : int;          (** configs correlated *)
  pearson_r : float;
  scale : float;      (** mean(term)/mean(counter): implied s per unit *)
  drift : float;      (** coeff. of variation of per-config term/counter *)
}

type env = {
  rev : string;              (** git revision the report was built from *)
  seed : int;
  repro_scale : float;
  device : string;           (** device descriptors exercised *)
  argv : string list;
  knobs : (string * string) list;  (** {!Util.Env_config.snapshot} *)
  ocaml_version : string;
  hostname : string;
}

type t = {
  version : int;
  env : env;
  experiments : experiment list;
  metrics : metric list;
  attribution : attribution list;
}

val filename : rev:string -> string
(** ["BENCH_<rev>.json"]. *)

val find_experiment : t -> string -> experiment option

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
(** Structural validation with field-path error messages; rejects
    reports with a newer [version] or a ["schema"] field other than
    ["isaac-bench-report"]. *)

val write : path:string -> t -> unit
(** Atomic, checksummed write through {!Util.Artifact} (kind
    ["isaac-bench-report"]). The payload stays one deterministic
    {!Json.to_string} line plus a trailing newline, so reports written
    by the same schema version remain byte-comparable; a crash mid-write
    leaves any previous report readable. *)

val load : string -> (t, string) result
(** Read, validate (artifact checksum) and parse; I/O, corruption and
    parse failures are returned as [Error]. Headerless legacy reports
    (e.g. [bench/baseline.json] written before the artifact store) are
    still accepted. *)
