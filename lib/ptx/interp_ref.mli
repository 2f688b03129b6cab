(** Reference PTX interpreter: the original decode-per-step engine,
    retained verbatim as the executable specification for the
    bytecode engine in {!Interp}.

    Semantics are identical to {!Interp.run} at [~domains:1] — output
    buffers, all sixteen counters and trap messages must match exactly,
    and [test/test_interp_diff.ml] enforces this differentially over
    sampled GEMM/CONV configurations, random programs and hand-assembled
    faulting kernels. Deliberate differences: this engine is always
    serial, it does not export [interp.*] metrics to the {!Obs} trace
    (it exists to be compared against, not profiled), and its trap
    messages never carry the telemetry flight-recorder context that
    {!Interp.run} appends while {!Obs.Telemetry} is enabled. *)

val run :
  ?max_dynamic:int ->
  Program.t ->
  grid:int * int * int ->
  block:int * int * int ->
  bufs:(string * float array) list ->
  iargs:(string * int) list ->
  Interp.counters
(** See {!Interp.run}; raises {!Interp.Trap} with identical messages. *)
