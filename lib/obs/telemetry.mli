(** The process's one registry of counters, histograms and gauges, and
    the always-on serving telemetry that exports it.

    Unlike {!Trace} (a per-run event log meant to be switched on for one
    diagnostic run), this module is designed to stay on in a resident
    serving process: counters and histograms are sharded across atomics
    so the hot path never takes a mutex, and a background domain
    periodically exports merged snapshots (JSONL via {!Json}, plus a
    Prometheus-style text file at [path ^ ".prom"]).

    The registry collects while either sink is open. Set
    [ISAAC_TELEMETRY=path] to export one final snapshot at exit, or
    [ISAAC_TELEMETRY=path,2.5] to also export every 2.5 seconds. Under
    [ISAAC_TRACE], the trace records the registry when it stops: one
    [counter] event per non-zero counter and one [hist] event per
    non-empty histogram, with the values a snapshot would report. The
    registry is cumulative over the process, never reset by a trace.
    With both variables unset, every gated entry point reduces to two
    atomic-bool loads.

    Correctness notes (pinned by [test/test_telemetry.ml]):
    - counter totals are {e exact} for any domain count — increments go
      through [Atomic.fetch_and_add], which cannot lose updates even
      when two domains alias onto the same shard;
    - histogram quantiles carry a ≤ 2% relative error bound (32 linear
      sub-buckets per power-of-two octave; reporting bucket midpoints
      halves the 3.125% bucket width);
    - snapshot merge is associative and commutative (element-wise bucket
      addition). *)

val enabled : unit -> bool
(** Whether the registry is collecting: an exporter was started or a
    {!Trace} sink is open. The one check every instrumented call site
    performs first. *)

val start : ?interval_s:float -> path:string -> unit -> unit
(** Enable telemetry, appending JSONL snapshots to [path] (and writing
    Prometheus text to [path ^ ".prom"] via atomic rename). When
    [interval_s > 0] a background domain exports on that period;
    otherwise snapshots are written only by {!export_now} and {!stop}.
    No-op if already started. Installs an [at_exit] {!stop}. *)

val stop : unit -> unit
(** Export one final snapshot, join the exporter domain, and stop the
    exporter ({!enabled} stays true while a trace is open). No-op when
    no exporter runs. Runs automatically [at_exit]. *)

val export_now : unit -> unit
(** Write a snapshot immediately (no-op when no exporter runs). Export
    errors are reported on stderr, never raised into the instrumented
    caller. *)

val reset : unit -> unit
(** Zero every registered value (counters, histograms, gauges, model
    cells) and clear the flight recorder, keeping handles valid. For
    tests. *)

(** Sharded lock-free counters. Handles are cheap to create and safe to
    keep in module-level bindings; operations on a handle are {e not}
    gated on {!enabled} — wrap call sites in [if Telemetry.enabled ()]
    or use the string-keyed sinks below. *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  (** Merge-on-read sum over all shards. Exact once writers are
      quiescent; monotonically catching-up while they race. *)

  val reset : t -> unit
end

(** Log-bucketed mergeable histograms (HDR-style). *)
module Histo : sig
  type t

  val create : unit -> t

  val observe : t -> float -> unit
  (** Record one observation. NaN is dropped; values ≤ 0 (and
      underflows below 2^-40) clamp into the lowest bucket; overflows
      (≥ 2^24) clamp into the highest. *)

  type snapshot = {
    count : int;
    sum : float;
    min_v : float;  (** +inf when empty; exact, not bucketed *)
    max_v : float;  (** -inf when empty; exact, not bucketed *)
    buckets : (int * int) array;
        (** sparse [(bucket_index, count)], ascending by index *)
  }

  val snapshot : t -> snapshot
  (** Merge all shards into one immutable summary. *)

  val empty_snapshot : snapshot

  val merge : snapshot -> snapshot -> snapshot
  (** Element-wise bucket addition; associative and commutative. *)

  val quantile : snapshot -> float -> float
  (** [quantile s 0.99] walks the cumulative bucket counts and returns
      the midpoint of the bucket containing that rank, clamped to the
      exact observed [min_v]/[max_v]. NaN when empty. Relative error
      ≤ 1/64 (~1.6%) for in-range positive observations. *)

  val mean : snapshot -> float
  (** [sum /. count]; NaN when empty. *)

  val reset : t -> unit

  (** Bucket geometry, exposed for tests. *)

  val n_buckets : int
  val bucket_of : float -> int
  val bucket_lower : int -> float
  (** Inclusive lower edge; [bucket_of (bucket_lower b) = b] exactly
      (edges are dyadic rationals, representable in binary float). *)

  val bucket_mid : int -> float
end

(** Last-write-wins float gauges. *)
module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> float -> unit
  val value : t -> float
  (** NaN until first set. *)

  val reset : t -> unit
end

(** Predicted-vs-measured model-quality channel. Call {!Model.record}
    whenever a prediction is checked against a real measurement (the
    search rebench stage does); drift per op surfaces in snapshots as
    the [model.drift.<op>] gauge. *)
module Model : sig
  val record :
    op:string -> bucket:string -> predicted:float -> measured:float -> unit
  (** Accumulate one residual [|predicted - measured| / measured] into
      the [(op, bucket)] cell. Gated on {!enabled}; non-finite or
      non-positive measurements are dropped. *)

  val drift : op:string -> float option
  (** Mean absolute relative residual across all buckets of [op];
      [None] until something was recorded. *)

  val ops : unit -> string list
  (** Sorted ops with at least one cell. *)
end

(** Fixed-size per-domain ring buffers retaining the most recent
    span/trap events, for post-mortem context in failure reports. *)
module Flight : sig
  type event = {
    ts : float;  (** unix time *)
    req : int;  (** request id, 0 when none was in scope *)
    kind : string;
    name : string;
    detail : string;
  }

  val record : ?req:int -> kind:string -> name:string -> string -> unit
  (** Append one event to the calling domain's ring (64 slots per ring,
      8 rings). Gated on {!enabled}. *)

  val events : unit -> event list
  (** All retained events, oldest first. *)

  val dump : ?limit:int -> unit -> string
  (** Multi-line human-readable rendering of the newest [limit]
      (default 12) events, [""] when none — sized for embedding in a
      trap or artifact error message. *)

  val clear : unit -> unit
end

(** String-keyed sinks over the registry. Handle lookup is lock-free on
    a copy-on-write table; first use of a name takes a mutex once to
    register it. [add]/[incr]/[observe]/[set_gauge] are gated on
    {!enabled}. *)

val counter : string -> Counter.t
(** Find or register. Raises [Invalid_argument] if [name] is already
    registered as a different kind; likewise {!histo} and {!gauge}. *)

val histo : string -> Histo.t
val gauge : string -> Gauge.t
val add : string -> int -> unit
val incr : string -> unit
val observe : string -> float -> unit
val set_gauge : string -> float -> unit

val counter_value : string -> int option
(** [None] if the name was never registered as a counter. *)

val gauge_value : string -> float option
(** [None] if never registered or never set. *)

val snapshot_json : unit -> Json.t
(** The full merged snapshot: [{"schema":"isaac-telemetry","version":1,
    "seq":..,"unix_time":..,"counters":{..},"gauges":{..},
    "hists":{name:{count,sum,min,max,mean,p50,p90,p95,p99}},
    "model":{op:{drift,buckets:{bucket:{n,mae_rel}}}}}]. Empty
    histograms are omitted; counters appear even at zero. *)

val prometheus : unit -> string
(** Prometheus text exposition of the same snapshot ([isaac_] prefix,
    [_total] counters, summary-typed histograms). *)
