(** Dense binary encoding of the mini-PTX IR.

    Real GPU toolchains ship kernels as bit-packed instruction words,
    not as structured ASTs — that is what makes kernel identities O(1).
    This module gives the mini-PTX IR the same treatment:

    - every instruction packs into one 62-bit word (opcode, guard,
      destination, aux, three discriminated operand fields); immediates
      too wide for an operand field spill into deduplicated constant
      pools, and label names live in a string pool;
    - {!encode}/{!decode} round-trip exactly ([decode (encode p) = p]
      for every valid program that fits the field widths — the
      differential and qcheck suites assert this);
    - {!hash} is a stable FNV-1a 64 over the semantic payload (name
      excluded): the kernel identity a served plan carries.

    Kernels are generated, never read back: nothing parses a packed
    kernel from bytes. A plan is stored as its (input, configuration)
    pair, and whoever needs the kernel regenerates and re-encodes it.

    Encoding fails (with a field/pool diagnostic, mirroring a fixed-width
    ISA's range limits) when a register, pool or label index exceeds its
    field: registers ≥ 256, guard predicates ≥ 64, buffer slots ≥ 16, or
    more than 256 distinct wide constants of one class. The fields size
    a {e physical} register file: generated kernels fit after
    {!Regalloc.allocate} (which is how the planner encodes them),
    while large generated kernels in raw virtual-register form may
    not. *)

type t = {
  name : string;
  dtype : Types.dtype;
  buf_params : string array;
  int_params : string array;
  shared_words : int;
  shared_int_words : int;
  n_fregs : int;
  n_iregs : int;
  n_pregs : int;
  words : int array;   (** one packed instruction word per body entry *)
  ipool : int array;   (** wide integer immediates (deduplicated) *)
  fpool : float array; (** float immediates (deduplicated by bit pattern) *)
  spool : string array;(** label names *)
}

val encode : Program.t -> (t, string) result
(** Pack a program. *)

val decode : t -> (Program.t, string) result
(** Exact inverse of {!encode}. Validates field tags, pool indices and
    (via [Program.validate]) the reconstructed program, so a corrupted
    or adversarial binary is rejected rather than mis-executed. *)

val hash : t -> int64
(** Stable FNV-1a 64 kernel identity over the semantic payload: dtype,
    parameter names, shared sizes, register counts, instruction words
    and constant pools — excluding [name] (so one kernel reused under
    several shape-specific entry names keeps one hash). *)

val hash_hex : int64 -> string
(** 16 lowercase hex digits. *)

val byte_size : t -> int
(** Size of the packed form in bytes: 8 per instruction word, the
    pools and a header. *)

val dump : t -> string
(** Human-readable listing for [isaac_lint --dump-binary]: per word, the
    hex encoding, the disassembled text and a field breakdown
    (opcode/guard/dst/aux/operand kinds). *)
