(** Plan-serving daemon core — the transport-independent half of
    [isaac_serve].

    One {!t} holds a resident {!Isaac.t} engine per op (GEMM / CONV),
    both backed by the sharded coalescing {!Isaac.Plan_cache}, so any
    number of transport workers (domains reading a Unix socket, or the
    single stdin loop) may call {!handle} concurrently: plan lookups
    are lock-free and racing cold requests coalesce onto one planning
    run.

    {b Protocol} (one JSON object per line, see DESIGN.md "Plan
    serving" for the full schema): requests carry [op] ∈ [ping], [stats],
    [reload], [gemm], [conv], [shutdown] plus an optional [id] echoed
    back verbatim. The [id] must be [null], a string of at most 256
    bytes or an integer in OCaml's [int] range written as
    [string_of_int] prints it (no fraction, exponent, leading zero or
    [-0]); any other [id], other numbers included, gets an error
    reply naming the field with ["id":null]. Dimensions below 1,
    [stride] below 1, [pad] below 0, any of them above
    {!Codegen.Gemm_params.max_dim} (2{^31} − 1, the [int] range of
    cuBLAS), and a CONV whose implicit GEMM has [n·p·q] or [c·r·s]
    above that bound get an error reply naming the field, so no plan
    is cached for them. Plan responses report
    [cache] ∈ ["hit"] / ["miss"] / ["coalesced"], the request
    [latency_s], and the chosen kernel configuration ([plan], [null]
    when no kernel is legal — that negative result is cached too, so
    the retry is a hit).

    {b Telemetry}: [serve.requests] / [serve.coalesced] /
    [serve.errors] / [serve.reloads] counters and a [serve.latency_s]
    histogram; the engines count [plan.evictions] and histogram
    cache-hit ages in [plan.cache_hit_age_s]. [serve.requests] counts
    only plan ops — [ping] / [stats] / [reload] probes don't pollute
    the load counters. *)

type t

val create :
  ?cache_entries:int ->
  ?reload_interval:float ->
  ?gemm_profile:string ->
  ?conv_profile:string ->
  unit ->
  (t, string) result
(** Load the given profile files (at least one required; both must
    target the same device) and build the resident engines.
    [cache_entries] bounds each per-op plan cache (LRU beyond it;
    unbounded by default). [reload_interval] (default 2s) rate-limits the
    on-request hot-reload fingerprint checks. *)

val device : t -> Gpu.Device.t

val handle : t -> string -> string * [ `Continue | `Stop ]
(** Process one request line, returning the one-line JSON response and
    whether the transport should keep going ([`Stop] only for the
    [shutdown] op). Never raises: malformed requests produce an
    [{"ok":false,"error":..}] response whose message is cut to its
    first 256 bytes plus the original length; with the [id] bound,
    no request string can grow its reply without bound. Safe to call from
    multiple domains. *)

val serve_lines : t -> in_channel -> out_channel -> [ `Eof | `Stop ]
(** Serve request lines from [ic] until end of input or a [shutdown]
    request, writing one reply line to [oc] per non-blank request line
    ({!handle}) and flushing after each; both [isaac_serve] transports
    run it. A line longer than 1 MiB is drained to its newline without
    being kept and gets the bounded error reply with ["id":null], so
    one request holds at most 1 MiB of the daemon's memory. Raises
    [Sys_error] when [ic] or [oc] fails. *)

val maybe_reload : ?force:bool -> t -> int
(** Re-check the profile files' {!Util.Artifact.fingerprint}s and swap
    in freshly built engines for any that changed on disk, returning
    how many were reloaded. Rate-limited to one check per
    [reload_interval] unless [force]d (the [reload] request forces).
    In-flight requests finish against the engine they started with; a
    swapped engine starts with a cold plan cache (old plans are stale
    by definition). Reload failures keep the previous engine serving. *)
