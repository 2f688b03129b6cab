(** Forward dataflow analyses over a {!Cfg.t}.

    Two analyses back the static verifier:

    - {b definite assignment}: a must-analysis (meet = intersection over
      predecessors) computing, per program point, the registers written
      on {e every} path from entry; reads outside that set are
      def-before-use defects. Guarded writes count as definitions — the
      generators' idiom is [mov dst, 0] followed by a guarded load into
      the same register, and a masked write still leaves the register
      with its previous (deterministic) value in our semantics.

    - {b symbolic uniformity}: an abstract interpretation of the integer
      and predicate register files in a domain of symbolic expressions
      over the thread-id special registers, opaque uniform unknowns
      (kernel parameters, ctaid, widened loop carries) and opaque varying
      unknowns (memory loads). An expression containing no [Tid] leaf
      and no varying unknown is {e uniform}: all threads of a block
      compute the same value — the lattice behind barrier-divergence
      detection. An expression whose leaves are all [Tid]s and constants
      is {e closed}: it can be evaluated per thread, which is what the
      shared-memory race, bounds and bank-conflict analyses consume. *)

(** {1 Register references} *)

type reg = R_i of int | R_f of int | R_p of int

val pp_reg : reg -> string

val uses_defs : Instr.t -> reg list * reg list
(** Registers one instruction reads and writes. The guard predicate is
    a read; a destination is a write only, even under a guard.
    {!Liveness} builds its sets on these, over every block and with a
    guarded [ret] falling through, and adds a guarded destination to
    the reads. *)

(** {1 Definite assignment} *)

type undefined_use = { pc : int; reg : reg }

val def_before_use : Program.t -> Cfg.t -> undefined_use list
(** Reads of registers not written on every path from entry, in program
    order (one report per [pc, reg] pair). *)

(** {1 Symbolic uniformity / affine analysis} *)

module Sym : sig
  type binop =
    | Add | Sub | Mul | Div | Rem | Min | Max | Shl | Shr | And | Or

  (** Why a value is opaque; doubles as a stable identity so the fixpoint
      terminates and structurally equal unknowns stay equal. *)
  type origin =
    | At_pc of int            (** produced by the instruction at [pc] *)
    | Param of int            (** scalar kernel parameter slot *)
    | Special of Types.special
    | Widen of int * int      (** join at (block, register) *)

  type expr =
    | Const of int
    | Tid of int              (** thread-id axis: 0 = x, 1 = y, 2 = z *)
    | Opaque of origin * bool (** [bool]: uniform across the block's threads *)
    | Bin of binop * expr * expr

  type pexpr =
    | Pconst of bool
    | Pcmp of Types.cmp * expr * expr
    | Pand of pexpr * pexpr
    | Por of pexpr * pexpr
    | Pnot of pexpr
    | Popaque of origin * bool

  val uniform : expr -> bool
  val puniform : pexpr -> bool

  val closed : expr -> bool
  (** No opaque leaves: evaluable per thread. *)

  val eval : tid:int * int * int -> expr -> int option
  (** Per-thread evaluation; [None] on an opaque leaf, division by zero
      or an out-of-range shift. *)

  val peval : tid:int * int * int -> pexpr -> bool option
end

type env = {
  ints : Sym.expr array;
  preds : Sym.pexpr array;
}

type solution

val symbolic :
  ?int_params:int option array ->
  block:int * int * int ->
  Program.t ->
  Cfg.t ->
  solution
(** Run the abstract interpretation to a fixpoint. [int_params] supplies
    concrete values for scalar parameter slots ([None] entries stay
    opaque-uniform); [block] is the launch block shape, used to resolve
    [Ntid_*] and bound thread enumeration. Registers start at [Const 0] /
    [Pconst false], matching the interpreter's zeroed register files. *)

val walk_block :
  solution -> int -> f:(pc:int -> env -> unit) -> unit
(** Replay one block's transfer function, calling [f] with the
    environment {e before} each instruction. *)

val operand_expr : solution -> env -> Types.ioperand -> Sym.expr
(** Abstract value of an integer operand in [env]: register contents,
    constants for immediates and resolved parameters / block-shape
    specials, [Tid] for thread-id specials, opaque-uniform unknowns for
    grid-shape specials and unresolved parameters. *)

val guard_pexpr : env -> Instr.t -> Sym.pexpr option
(** The symbolic predicate under which the instruction executes ([None]
    when unguarded): the guard register's abstract value, negated for
    [(p, false)] guards. *)
