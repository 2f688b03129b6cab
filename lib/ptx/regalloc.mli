(** Liveness analysis and linear-scan register allocation for mini-PTX.

    The kernel generators emit SSA-ish code with fresh virtual registers;
    real PTX goes through ptxas, whose allocator determines the physical
    register count that drives occupancy (the "Registers" row of the
    paper's §8.1 table). This module provides that step for the mini-PTX:

    - {!pressure} computes MaxLive per register class via a backward
      dataflow fixpoint over the control-flow graph (loops included) —
      the number of physical registers an optimal allocator needs;
    - {!allocate} rewrites a program onto physical registers with a
      linear-scan assignment over live intervals. The result validates
      and is observationally equivalent under the interpreter (the test
      suite executes both and compares outputs).

    Guarded (predicated) definitions are treated as def+use: when the
    guard is false the old value survives, so it must stay live.

    Representation: per register class, the live-in sets of all [n]
    instructions are word bitsets in one flat [int array] of
    [n * ceil(regs / 63)] words (63 bits per OCaml int), updated through
    one reused scratch row, so a fixpoint pass allocates nothing.
    Intervals take two sweeps over those words (first live pc forward,
    last backward) and MaxLive is a popcount per row: O(n × words)
    per pass rather than O(n × regs).

    Caveat: allocation assumes registers are written before they are
    read (the builders always emit an initializing [mov]); a kernel
    relying on the interpreter's implicit zero-initialization could
    observe a recycled physical register instead. *)

type pressure = {
  fregs : int;  (** simultaneously live float registers (MaxLive) *)
  iregs : int;
  pregs : int;
}

val pressure : Program.t -> pressure

val allocate : Program.t -> Program.t
(** Rewrite onto a compact physical register file. The returned program's
    [n_fregs]/[n_iregs]/[n_pregs] equal the allocation's register counts,
    which are at least {!pressure} and at most the virtual counts. *)

val live_ranges : Program.t -> (int * int * int) array
(** Float-register live intervals [(reg, start_pc, end_pc)], loop-extended;
    exposed for tests and for the kernel-explorer example. *)
