(** Functional interpreter for mini-PTX programs.

    Executes a kernel over real arrays with CUDA grid/block semantics:
    blocks are independent; within a block, every thread runs until the
    next barrier (or return), then the next barrier phase starts. This is
    exact for data-race-free kernels — every kernel our generators emit
    separates shared-memory writers from readers with [Bar] — and it
    supports thread-divergent control flow between barriers (needed by the
    branch-based bounds-checking mode of §8.3).

    The interpreter doubles as the reproduction's "hardware counter"
    source: it accumulates the dynamic instruction mix per category,
    warp-level global/shared memory transactions, barrier waits and
    predicated-off issue slots, returned per-run and counted in the
    {!Obs.Telemetry} registry (as [interp.*] counters) while it collects.
    Tests cross-check the instruction mix against the static cost
    profiles the timing model consumes; DESIGN.md ("Observability")
    documents how each counter maps onto the cost terms of the paper's
    Eq. 2–3. *)

type counters = {
  mutable ialu : int;
  mutable fma : int;
  mutable fp_other : int;
  mutable ld_global : int;
  mutable st_global : int;
  mutable ld_shared : int;
  mutable st_shared : int;
  mutable atom : int;
  mutable bar : int;        (** barrier waits (executions, per thread) *)
  mutable branch : int;
  mutable pred : int;       (** setp/predicate logic ops *)
  mutable mov : int;
  mutable predicated_off : int;
      (** instructions whose guard evaluated false (issued but masked) *)
  mutable gld_transactions : int;
      (** warp-level global-load transactions: one per distinct 32-word
          segment touched by an access group (the lanes of one warp
          executing one memory instruction once). Fully coalesced warp
          loads cost 1; a stride-32 gather costs up to 32. *)
  mutable gst_transactions : int;
      (** warp-level global-store transactions, same grouping *)
  mutable shared_transactions : int;
      (** serialized shared-memory passes: per access group, the maximum
          over the 32 banks of the distinct-address count — 1 when
          conflict-free, up to 32 under a worst-case bank conflict;
          equal addresses broadcast, as on real hardware. Transaction
          grouping reconstructs warp lockstep from each lane's dynamic
          execution ordinal per pc; this is exact for warp-uniform trip
          counts (all generated kernels) and approximate under
          intra-warp loop divergence. *)
}

val zero_counters : unit -> counters

val total : counters -> int
(** Total dynamically issued instructions (including masked ones, which
    GPUs still issue — predication does not skip issue slots). Memory
    transactions are derived traffic, not issue slots, and are excluded. *)

val summary : counters -> string
(** One-line [key=value] rendering of every counter (the snapshot format
    embedded in {!Trap} messages). *)

exception Trap of string
(** Raised on runtime errors: out-of-bounds memory access, barrier
    divergence, instruction budget exhaustion, unknown parameter.
    Messages for faults inside the body locate the instruction as
    ["pc N (label L + k)"] using the nearest preceding label, and every
    fault raised during execution appends the accumulated counter
    snapshot as ["[dyn: total=… ialu=… …]"] (see {!summary}) so
    divergent or runaway kernels can be diagnosed post mortem. *)

val run :
  ?max_dynamic:int ->
  ?domains:int ->
  Program.t ->
  grid:int * int * int ->
  block:int * int * int ->
  bufs:(string * float array) list ->
  iargs:(string * int) list ->
  counters
(** [run p ~grid ~block ~bufs ~iargs] executes the kernel, mutating the
    arrays bound to the program's buffer parameters. [bufs] must bind every
    buffer parameter by name, [iargs] every scalar parameter.
    [max_dynamic] bounds the total dynamic instruction count (default
    200 million) to catch generator bugs that would loop forever.

    The body is lowered once per launch into one flat packed [int]
    array (shape-specialized opcodes, fused superinstructions for the
    FFMA runs and shared-load staging of generated inner loops, branch
    targets as absolute word offsets, operands collapsed to
    register-or-constant, float immediates pooled) and run by a dense
    jump-table dispatch loop with the register files hoisted into
    locals. The differential suite holds it to the naive
    {!Interp_ref} — bit-identical output buffers, counters and trap
    messages.

    The grid loop fans blocks out across [domains] OCaml domains
    (default {!Util.Parallel.recommended_domains}, so [ISAAC_DOMAINS]
    applies). Per-domain counter shards are summed deterministically, so
    counters, output buffers and [Obs] exports are bit-identical for
    every domain count — kernels using [Atom_global_add] automatically
    fall back to a single domain to keep the floating-point accumulation
    order (and thus the buffers) exact. Trap messages from a parallel
    run carry the faulting domain's counter shard rather than the global
    totals. *)
