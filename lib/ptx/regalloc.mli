(** Linear-scan register allocation for mini-PTX.

    The kernel generators emit SSA-ish code with fresh virtual registers;
    real PTX goes through ptxas, whose allocator determines the physical
    register count that drives occupancy (the "Registers" row of the
    paper's §8.1 table). {!allocate} provides that step for the
    mini-PTX, on top of {!Liveness}'s live-in sets (every block; a
    guarded definition is also a use; a guarded [ret] falls through):

    - each register's live interval is the first to the last pc where
      it is live-in, defined or used, taken in two sweeps over the
      words of its class's sets (forward for the start, backward for
      the stop, masking registers already placed);
    - a linear scan over the intervals, in start order, gives each the
      smallest physical register free over the whole of it;
    - the body is rewritten onto those registers.

    The result validates and is observationally equivalent under the
    interpreter (the test suite executes both and compares outputs).
    {!Liveness.pressure} gives the MaxLive lower bound.

    Caveat: allocation assumes registers are written before they are
    read (the builders always emit an initializing [mov]); a kernel
    relying on the interpreter's implicit zero-initialization could
    observe a recycled physical register instead. *)

val allocate : Program.t -> Program.t
(** Rewrite onto a compact physical register file. The returned program's
    [n_fregs]/[n_iregs]/[n_pregs] equal the allocation's register counts,
    which are at least {!Liveness.pressure} and at most the virtual
    counts. Raises [Invalid_argument] on a program whose CFG does not
    build ({!Cfg.build}). *)
