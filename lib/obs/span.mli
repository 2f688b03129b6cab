(** Hierarchical timing spans and request-scoped correlation ids: the
    one timing primitive of the library.

    [with_ "x" f] times [f ()] on the monotonized clock. One duration
    feeds every output of the span:
    - while the trace sink is open, a [span] event on completion
      carrying the span's slash-joined ancestry path
      (["tune/tune.dataset/sampler.fit"]) and [dur], one observation of
      the {!Telemetry} histogram ["x_s"], and a flight-recorder entry
      (kind ["span"], or ["span.error"] if [f] raised);
    - with {!with_dur}, the caller, which gets it back.

    Nesting is tracked per domain ({!Domain.DLS}): spans opened inside a
    parallel worker domain start a fresh path rather than attaching to
    the spawning domain's open spans, so paths never interleave across
    domains (the profile report attributes worker time to the worker's
    own top-level span). Spans carry the current request id so one plan
    request's spans correlate across domains.

    When the trace is closed, [with_ name f] is exactly [f ()] — no
    clock read, no allocation beyond the closure the caller already
    built. *)

val with_ :
  ?meta:(unit -> (string * Json.t) list) -> string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f], emitting a [span] event when tracing (with
    a ["req"] field when a request id is in scope), and observing
    [name ^ "_s"] and a flight-recorder entry. The [meta] thunk is
    forced only when tracing, at span close — use it for fields that are costly to render (config
    descriptions, counts). If [f] raises, the span is still closed with
    an ["error":true] field and the exception is re-raised. *)

val with_dur :
  ?meta:(unit -> (string * Json.t) list) ->
  string ->
  (unit -> 'a) ->
  'a * float
(** [with_dur name f] is [with_ name f] that also returns the span's
    duration in seconds: bit-equal to the trace event's [dur] and to
    the one observation of [name ^ "_s"]. Unlike {!with_} it reads the
    clock even when the trace is closed, so callers that report
    per-phase times (the search's [phases]) always get them. *)

val with_request : ?id:int -> (unit -> 'a) -> 'a
(** [with_request f] runs [f] with a request id installed in the calling
    domain (a fresh process-unique id unless [id] is given), restoring
    the previous id afterwards. Nested calls shadow. No-op wrapper when
    the trace is closed. *)

val current_request : unit -> int option
(** The request id in scope on the calling domain, if any. Parallel
    stages capture this before fanning out and install it in each
    worker via {!set_request}. *)

val set_request : int option -> unit
(** Install (or with [None] clear) a request id on the calling domain.
    Intended for worker domains whose lifetime is contained in the
    request; they need not restore the previous value. *)

val current_path : unit -> string
(** Slash-joined names of the open spans of the calling domain, [""] at
    top level. Exposed for tests and for custom events that want to
    attach themselves to the active phase. *)
