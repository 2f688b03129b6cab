(** The process's one registry of counters and histograms, with the
    flight recorder and the model-quality channel: the always-on
    telemetry of a serving process.

    The registry collects while the {!Trace} sink is open
    ([ISAAC_TRACE=path], rotated at [ISAAC_TRACE_MAX_MB] so a
    long-running daemon stays bounded). Counters and histograms are
    sharded across atomics so the hot path never takes a mutex. When the
    trace stops it records the registry as one [telemetry] event
    carrying {!snapshot_json}, the object the daemon's [stats] reply
    embeds under the same key; [isaac_profile] renders either. The
    registry is cumulative over the process, never reset by a trace.
    With no trace open, every gated entry point reduces to one
    atomic-bool load.

    Correctness notes (pinned by [test/test_telemetry.ml]):
    - counter totals are {e exact} for any domain count — increments go
      through [Atomic.fetch_and_add], which cannot lose updates even
      when two domains alias onto the same shard;
    - histogram quantiles carry a ≤ 2% relative error bound (32 linear
      sub-buckets per power-of-two octave; reporting bucket midpoints
      halves the 3.125% bucket width). *)

val enabled : unit -> bool
(** Whether the registry is collecting: {!Trace.enabled}. The one check
    every instrumented call site performs first. *)

val reset : unit -> unit
(** Zero every registered value (counters, histograms, model cells)
    and clear the flight recorder, keeping handles valid. For tests. *)

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

(** Log-bucketed histograms (HDR-style). *)
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

  val quantile : snapshot -> float -> float
  (** [quantile s 0.99] walks the cumulative bucket counts and returns
      the midpoint of the bucket containing that rank, clamped to the
      exact observed [min_v]/[max_v]. NaN when empty. Relative error
      ≤ 1/64 (~1.6%) for in-range positive observations. *)

  val mean : snapshot -> float
  (** [sum /. count]; NaN when empty. *)

  (** Bucket geometry, exposed for tests. *)

  val n_buckets : int
  val bucket_of : float -> int
  val bucket_lower : int -> float
  (** Inclusive lower edge; [bucket_of (bucket_lower b) = b] exactly
      (edges are dyadic rationals, representable in binary float). *)
end

(** Predicted-vs-measured model-quality channel. Call {!Model.record}
    whenever a prediction is checked against a real measurement (the
    search rebench stage does); drift per op surfaces in snapshots as
    [model.<op>.drift], which [isaac_profile] prints as the
    [model.drift.<op>] row. *)
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
    register it. [add]/[incr]/[observe] are gated on {!enabled}. *)

val counter : string -> Counter.t
(** Find or register. Raises [Invalid_argument] if [name] is already
    registered as a different kind; likewise {!histo}. *)

val histo : string -> Histo.t
val add : string -> int -> unit
val incr : string -> unit
val observe : string -> float -> unit

val counter_value : string -> int option
(** [None] if the name was never registered as a counter. *)

val snapshot_json : unit -> Json.t
(** The full merged snapshot: [{"schema":"isaac-telemetry","version":2,
    "unix_time":..,"counters":{..},
    "hists":{name:{count,sum,min,max,mean,p50,p90,p95,p99}},
    "model":{op:{drift,buckets:{bucket:{n,mae_rel}}}}}]. Empty
    histograms are omitted; counters appear even at zero. *)
