(** Backward register liveness for mini-PTX: the one pass behind
    {!pressure}, {!Regalloc.allocate} and {!Verify}'s dead-store and
    unread-register lints.

    - Def/use sets come from {!Dataflow.uses_defs}. A guarded definition
      also reads its destination: threads whose guard is false keep the
      old value.
    - Successors come from {!Cfg}. A guarded [ret] falls through when its
      guard is false, as in both interpreters, so it keeps its
      fall-through successor.
    - Scope: every block, reachable or not. A reachable block's
      successors are reachable, so a reader of reachable blocks sees what
      a pass over those alone would give.

    A block-level fixpoint walks each block backward from its live-out
    set until no block's live-in set grows; one final walk writes the
    live-in set of every pc. Per register class, those sets are word
    bitsets in one flat [int array], so MaxLive is a popcount per row and
    {!Regalloc}'s interval sweeps read whole words. *)

val word_bits : int
(** 63: the bits of an OCaml [int]. *)

type sets = {
  width : int;  (** words per pc: [ceil (regs / word_bits)] *)
  words : int array;
      (** register [r] is live into [pc] when bit [r mod word_bits] of
          [words.(pc * width + r / word_bits)] is set *)
}

type t = {
  cfg : Cfg.t;
  uses : Dataflow.reg list array;
      (** per pc, the registers read, with a guarded definition's
          destination *)
  defs : Dataflow.reg list array;  (** per pc, the registers written *)
  floats : sets;
  ints : sets;
  preds : sets;
}

val analyse : Program.t -> Cfg.t -> t

val live_in : t -> int -> Dataflow.reg -> bool
(** [live_in t pc r]: some path from [pc] reads [r] before writing it. *)

val live_out : t -> int -> Dataflow.reg -> bool
(** [live_out t pc r]: [r] is live into a successor of [pc]. *)

type pressure = {
  fregs : int;  (** simultaneously live float registers (MaxLive) *)
  iregs : int;
  pregs : int;
}

val pressure : Program.t -> pressure
(** MaxLive per register class, the most registers of the class live
    into one pc: what an optimal allocator needs. Raises
    [Invalid_argument] when {!Cfg.build} fails (an empty body, a
    duplicate or undefined label). *)
