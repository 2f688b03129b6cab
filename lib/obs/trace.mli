(** JSONL trace sink, gated by the [ISAAC_TRACE] environment variable.

    When [ISAAC_TRACE=file.jsonl] is set, every subsystem that calls into
    {!Obs} appends one JSON object per line to that file. The trace is
    the {!Telemetry} registry's one sink: the registry collects while it
    is open, and {!stop} records it as one [telemetry] event. When
    [ISAAC_TRACE] is unset, every entry point in this library reduces to
    one boolean load, so instrumented hot paths cost nothing measurable
    (the acceptance bound is < 2% on a full tuning run; the no-op test
    in [test/test_obs.ml] pins this).

    Long-running processes can cap the file size with
    [ISAAC_TRACE_MAX_MB=N]: when an append would push the current file
    past the cap, it is atomically renamed to [file.jsonl.1] (replacing
    any previous rotation) and a fresh file is started with a
    [trace_rotate] marker event, so total disk usage stays under ~2N MB.
    The closing [trace_end] event is exempt: {!stop} appends it without
    the rotation check, so the newest events always stay in the live
    file, which may then exceed the cap by that one ~50-byte line.

    The sink is safe to use concurrently from multiple OCaml 5 domains —
    the tuner's benchmarking loops fan out — and event timestamps are
    monotonized (wall clock clamped to its high-water mark, since this
    Unix build lacks [clock_gettime]) so a clock step backwards can
    never yield a negative duration. See DESIGN.md ("Observability")
    for the field-by-field event schema. *)

val enabled : unit -> bool
(** Whether a sink is currently open. The one check every instrumented
    call site performs first. *)

val start : ?max_bytes:int -> path:string -> unit -> unit
(** Open (truncate) [path] and emit the [trace_start] header event.
    [max_bytes] enables size-capped rotation (see above; the env path
    derives it from [ISAAC_TRACE_MAX_MB]). No-op if a sink is already
    open. Called automatically at program start when [ISAAC_TRACE] is
    set; exposed for tests and embedders. *)

val stop : unit -> unit
(** Run registered finalizers (the registry's [telemetry] event),
    append [trace_end] (never rotating; see above), close the sink.
    No-op when disabled. Runs automatically [at_exit]. *)

val at_stop : (unit -> unit) -> unit
(** Register a finalizer to run inside {!stop} before the sink closes
    (used by {!Telemetry} to write its registry into the trace). *)

val now : unit -> float
(** Monotonized seconds since the trace started (0.0 when disabled). *)

val monotonic : unit -> float
(** The raw monotonized clock (seconds since the epoch, clamped to its
    high-water mark). Usable for durations independently of whether a
    sink is open — {!Span} times every span with it. *)

val emit : string -> (string * Json.t) list -> unit
(** [emit ev fields] appends [{"ev":ev,"ts":now(),...fields}] as one
    line. Thread-safe; no-op when disabled. Callers must ensure field
    names do not collide with ["ev"]/["ts"]. *)

val point : ?unit_:string -> string -> x:float -> y:float -> unit
(** [point series ~x ~y] emits one [point] event immediately (e.g.
    per-epoch training loss, [x] = epoch). [unit_] annotates the y
    axis (["mse"], ["s"], …). Series are low-volume by construction —
    one point per epoch, not per sample. No-op when disabled. *)

val read_file : string -> Json.t list
(** Parse a trace file back into one value per line, skipping blank
    lines. Raises [Json.Parse_error] (with the line number prepended) on
    malformed input and [Sys_error] on I/O failure. *)

val read_file_partial : string -> Json.t list * int
(** Like {!read_file} but lenient: unparseable lines (e.g. a line
    truncated by a crash or rotation race) are skipped rather than
    raised on. Returns the parsed values and the number of skipped
    lines. *)
