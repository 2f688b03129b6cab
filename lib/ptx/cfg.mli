(** Basic-block control-flow graph over a [Program.t] body.

    Leaders are the entry instruction, every [Label], and every
    instruction following a branch or return (guarded or not — a guarded
    [Bra]/[Ret] may fall through, so it ends its block with two
    successors). The graph is the substrate for the static verifier's
    dataflow passes: definite assignment, the uniformity/affine abstract
    interpretation, barrier-interval tracking and the post-dominator
    computation behind barrier-divergence detection; and for the
    register liveness of {!Liveness}. *)

type block = {
  id : int;
  first : int;  (** index of the block's first instruction (may be a [Label]) *)
  last : int;   (** index of the block's last instruction, inclusive *)
  succs : int list;  (** successor block ids, in program order *)
  mutable preds : int list;  (** predecessor block ids *)
  to_exit : bool;
      (** the block has an edge to the virtual exit node: it ends in a
          [Ret] (guarded or not) or control may fall past the end of the
          body here *)
}

type t = {
  blocks : block array;
  block_of : int array;
      (** instruction index -> id of the containing block *)
  may_fall_off_end : bool;
      (** true when some path leaves the last instruction without an
          unguarded [Ret] or [Bra] — the interpreter traps "fell off end"
          on such a path *)
}

val build : Program.t -> (t, string) result
(** Build the CFG. [Error] is returned for an empty body, a duplicate
    label or a branch to an undefined label (the same conditions
    [Program.validate] reports, so a validated program always builds). *)

val reachable : t -> bool array
(** Per-block reachability from the entry block. *)

val postdominators : t -> int array
(** [postdominators cfg].(b) is the immediate post-dominator of block
    [b], or [-1] when [b] post-dominates every path it lies on (its only
    "post-dominator" is the virtual exit node). Every block from which
    the exit is unreachable (an infinite loop) also maps to [-1]. *)

val divergence_region : t -> ipdom:int array -> int -> int list
(** [divergence_region cfg ~ipdom b] is the set of blocks
    control-dependent on the terminator of block [b]: every block on some
    path from a successor of [b] to [b]'s immediate post-dominator,
    exclusive. [ipdom] is the result of {!postdominators}. If threads
    disagree on [b]'s branch direction, exactly these blocks execute
    under a thread-varying active mask. *)
