(** Static verifier for generated mini-PTX kernels.

    Runs entirely ahead of any interpretation: structural
    well-formedness, definite assignment ({!Dataflow.def_before_use}),
    barrier-divergence detection over the uniformity lattice,
    shared-memory race and bounds checking by enumerating the block's
    threads over closed (tid-only) address expressions, a
    bank-conflict analysis whose aggregate conflict factor feeds the
    shared-memory term of the performance model, and four advisory
    lints (warnings) over reachable blocks: dead stores and never-read
    registers from {!Liveness} (which covers every block, a guarded
    [ret] falling through), unreachable blocks, and redundant
    barriers.

    The contract mirrors the paper's generator invariant: every emitted
    kernel must verify clean, so the tuner can use [run] as a cheap
    static legality oracle before paying for an interpreter run. *)

type kind =
  | Structure           (** validation / CFG construction / fall-off-end *)
  | Use_before_def
  | Barrier_divergence
  | Shared_race
  | Shared_bounds
  | Unanalyzable        (** warning: an address or guard escapes the
                            affine domain, so race/bounds/bank analysis
                            skipped the site *)
  | Dead_store          (** warning: value written but never read before
                            being overwritten *)
  | Unread_register     (** warning: register written but never read *)
  | Unreachable_code    (** warning: block with no path from entry *)
  | Redundant_barrier   (** warning: bar.sync with no shared access since
                            the previous barrier in its block *)

val kind_name : kind -> string

type diag = {
  kind : kind;
  pc : int option;  (** instruction index, when the defect has one *)
  message : string;
}

type bank_stats = {
  sites : int;         (** shared-access sites with analyzable addresses *)
  transactions : int;  (** warp-level shared transactions across those sites *)
  conflicted : int;    (** transactions serialized by a bank conflict *)
  conflict_factor : float;
      (** mean serialization degree, [>= 1.0]: total bank cycles divided
          by conflict-free cycles. [1.0] when nothing is analyzable. *)
}

type report = {
  errors : diag list;
  warnings : diag list;
  bank : bank_stats;
}

val ok : report -> bool
(** No errors (warnings allowed). *)

val run :
  ?iargs:(string * int) list ->
  block:int * int * int ->
  Program.t ->
  report
(** Verify [p] for a launch with the given block shape. [iargs] binds
    scalar parameters by name (e.g. [("M", 1024)]); unbound parameters
    stay symbolic-uniform, which weakens bounds checking but never
    soundness of the uniformity analysis. *)

val to_string : report -> string
(** Multi-line human-readable rendering, one diagnostic per line. *)
