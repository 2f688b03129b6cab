(** Static scoreboard: dependency/stall scheduling, critical paths and
    register pressure over mini-PTX.

    Runs after {!Verify} on the same {!Cfg} substrate. Three analyses:

    - {b issue model}: an in-order, single-issue-per-cycle scoreboard per
      basic block (classic CDC-6600 style, no renaming): every
      instruction issues when its operands are ready, RAW and WAW hazards
      stall the issue stage, results complete after a per-class latency
      (ALU/FMA/shared/global). [bar.sync] drains all outstanding results.
      Shared memory is modelled as one pseudo-location: a shared load
      waits for the latest preceding shared store (the generators
      separate writers from readers with barriers, so finer disambiguation
      would not change the schedule). Note that reusing one staging
      register across cooperative loads serializes them here exactly as
      on hardware — the scoreboard has no renaming, by design.

    - {b loop steady state}: natural loops are recovered from back edges
      (an edge to an earlier-or-equal block; correct for the reducible
      CFGs our generators emit). The loop body is simulated twice
      back-to-back and the second copy is measured, so loop-carried
      dependences (FMA accumulator chains, the loop counter) appear in
      the steady-state stall counts exactly once per iteration.

    - {b pressure / ILP}: peak simultaneously-live registers per class
      (delegated to {!Regalloc.pressure}) and a dependence-depth ILP
      estimate (issued instructions over critical dependence chain
      length, an independent-window width).

    The {!summary} is what downstream layers consume: the
    latency-pipeline term of [Gpu.Perf_model], the [~schedule:true]
    extended features of [Tuner.Features], and the scheduling lints
    surfaced through {!Verify}. *)

(** Result-availability latencies in cycles, per instruction class, plus
    the issue cost of one instruction. Defaults approximate a Pascal-era
    SM (the device table's [fma_latency] is 6). *)
type latency = {
  alu : int;     (** integer ALU, predicate logic, moves *)
  fma : int;     (** FMA and other floating-point *)
  shared : int;  (** shared-memory load-to-use *)
  global : int;  (** global-memory load-to-use *)
}

val default_latency : latency

val cat_index : Instr.category -> int
(** Stable index of a category in {!block_sched.mix}, following the
    field order of [Interp.counters]: ialu, fma, fp_other, ld_global,
    st_global, ld_shared, st_shared, atom, bar, branch, pred, mov. *)

type block_sched = {
  block : int;          (** {!Cfg.block} id *)
  issued : int;         (** issue slots (every non-[Label] instruction) *)
  cycles : int;         (** issue cycles incl. stalls, inputs ready at 0 *)
  stall_cycles : int;   (** cycles the issue stage waited on hazards *)
  crit_path : int;      (** dependence critical path in cycles (infinite
                            issue width, latencies only) *)
  dep_depth : int;      (** critical dependence chain in instructions *)
  dual_issue : int;     (** adjacent independent different-pipe pairs *)
  mix : int array;      (** static issue-slot count per category,
                            indexed by {!cat_index} *)
}

type loop_sched = {
  header : int;           (** header block id (the back edge's target) *)
  latch : int;            (** latch block id (the back edge's source) *)
  body : int list;        (** block ids of the body, ascending *)
  body_issued : int;      (** issue slots per iteration *)
  steady_cycles : int;    (** cycles per steady-state iteration *)
  steady_stalls : int;    (** stall cycles per steady-state iteration *)
  steady_fmas : int;      (** FMA issue slots per iteration *)
  carried_crit_path : int;
      (** cycles the dependence critical path grows per iteration: the
          loop-carried chain (accumulators, induction variables) *)
}

type summary = {
  stalls_per_slot : float;  (** steady-state stall cycles per issue slot
                                in the hottest region *)
  fma_issue_rate : float;   (** FMAs per cycle a single warp sustains in
                                the hot region: [fma / (fma + fp_stalls)]
                                where [fp_stalls] are only the stall
                                cycles whose {e binding} dependence was
                                produced by the FP pipe — the accumulator
                                chain hazard. 1.0 when FP dependences are
                                fully covered, 0.0 for FMA-free kernels,
                                and [u/L] for [u] independent accumulators
                                against FMA latency [L] (a strict
                                refinement of the closed-form
                                [min(1, ilp/fma_latency)]). Measured under
                                compute-side latencies — loads are
                                fire-and-forget here, since their latency
                                is charged to the memory/shared pipeline
                                terms (warp multithreading hides it), not
                                the per-warp arithmetic ceiling *)
  crit_path_cycles : int;   (** hot-region dependence critical path per
                                iteration (whole program when loop-free) *)
  dual_issue_frac : float;  (** dual-issue opportunities per issue slot *)
  ilp : float;              (** issued / dependence depth in the hot region *)
  peak_fregs : int;         (** {!Regalloc.pressure} MaxLive *)
  peak_iregs : int;
  peak_pregs : int;
  hot_loop : int option;    (** header id of the loop the summary is
                                taken from; [None] = whole program *)
}

type t = {
  blocks : block_sched array;
  loops : loop_sched list;
  summary : summary;
}

val analyze : ?lat:latency -> Program.t -> (t, string) result
(** Whole-program analysis. [Error] only when the CFG cannot be built
    (same conditions as {!Cfg.build}; a [Verify]-clean program always
    analyzes). *)

val instr_stalls : ?lat:latency -> Program.t -> (int array, string) result
(** Per-original-pc stall cycles from the same per-block first-execution
    schedule {!analyze} reports ([Label] entries are 0; block sums equal
    {!block_sched.stall_cycles}). [Encode] embeds these as per-word
    control info, mirroring real SASS encoders. [Error] iff the CFG
    cannot be built. *)

(** {1 Scheduling lints}

    Computed from the same def-use and liveness information; surfaced as
    warnings by {!Verify} and [isaac_lint]. *)

type lint =
  | Dead_store of { pc : int; reg : Dataflow.reg }
      (** an unguarded definition never read before being overwritten (or
          the end of all paths); for loads, the loaded value is unused *)
  | Unread_register of Dataflow.reg
      (** written somewhere but never read by any instruction *)
  | Unreachable_code of { pc : int }
      (** first instruction of a CFG-unreachable block *)
  | Redundant_barrier of { pc : int }
      (** a [bar.sync] with no shared-memory access since the previous
          barrier of the same block *)

val lint_message : lint -> int option * string
(** Location and human-readable text of a lint. *)

val lint : Program.t -> lint list
(** Empty for programs whose CFG cannot be built (Verify reports those
    as structural errors already). *)

(** {1 Static trip counts}

    A uniform scalar abstract execution per CTA: integer and predicate
    register files over known/unknown lattice values, thread-id-dependent
    values unknown, loads unknown, parameters bound through [iargs].
    Every branch decision must be statically known and uniform, which
    holds for the generators' predicated kernels (the main-loop bound is
    a function of K, U and ctaid only). *)

val block_trips :
  ?max_steps:int ->
  grid:int * int * int ->
  block:int * int * int ->
  iargs:(string * int) list ->
  Program.t ->
  (int array, string) result
(** Per-{!Cfg.block} execution counts summed over every CTA of the grid.
    [Error] when a branch guard is not statically known (e.g. the
    divergent branch-based bounds mode), on a CFG build failure, or past
    [max_steps] (default 4e6) abstract steps. Multiplying a block's
    {!block_sched.mix} by its trip count and the block's thread count
    reproduces the interpreter's dynamic per-category counters exactly —
    including masked instructions, which issue (and count) on both
    sides; the differential test suite asserts this. *)
