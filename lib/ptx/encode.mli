(** Dense binary encoding of the mini-PTX IR.

    Real GPU toolchains ship kernels as bit-packed instruction words with
    per-instruction control info (dependency/stall counts), not as
    structured ASTs — that is what makes large kernel corpora tractable
    and cache keys O(1). This module gives the mini-PTX IR the same
    treatment:

    - every instruction packs into one 62-bit word (opcode, guard,
      destination, aux, three discriminated operand fields); immediates
      too wide for an operand field spill into deduplicated constant
      pools, and label names live in a string pool;
    - each word carries one control-info byte: the {!Scoreboard}
      per-instruction stall count (saturated at 255), the nva-style
      "control info" real SASS encoders embed;
    - {!encode}/{!decode} round-trip exactly ([decode (encode p) = p]
      for every valid program that fits the field widths — the
      differential and qcheck suites assert this);
    - {!hash} is a stable FNV-1a 64 over the semantic payload (name and
      control info excluded), giving kernels an O(1) identity for the
      plan cache's cross-shape dedup.

    Encoding fails (with a field/pool diagnostic, mirroring a fixed-width
    ISA's range limits) when a register, pool or label index exceeds its
    field: registers ≥ 256, guard predicates ≥ 64, buffer slots ≥ 16, or
    more than 256 distinct wide constants of one class. The fields size
    a {e physical} register file: generated kernels fit after
    {!Regalloc.allocate} (which is how the plan cache encodes them),
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
  ctrl : int array;    (** control-info byte per word: stall cycles *)
  ipool : int array;   (** wide integer immediates (deduplicated) *)
  fpool : float array; (** float immediates (deduplicated by bit pattern) *)
  spool : string array;(** label names *)
}

val encode : ?lat:Scoreboard.latency -> Program.t -> (t, string) result
(** Pack a program. [lat] feeds the {!Scoreboard} stall model behind the
    control-info bytes (stalls are 0 when the CFG cannot be built). *)

val decode : t -> (Program.t, string) result
(** Exact inverse of {!encode}. Validates field tags, pool indices and
    (via [Program.validate]) the reconstructed program, so a corrupted
    or adversarial binary is rejected rather than mis-executed. *)

val hash : t -> int64
(** Stable FNV-1a 64 kernel identity over the semantic payload: dtype,
    parameter names, shared sizes, register counts, instruction words
    and constant pools — excluding [name] (so one kernel reused under
    several shape-specific entry names dedups) and [ctrl] (derived
    metadata). *)

val hash_program : ?lat:Scoreboard.latency -> Program.t -> (int64, string) result
(** [encode] then {!hash}. *)

val hash_hex : int64 -> string
(** 16 lowercase hex digits. *)

val to_bytes : t -> string
(** Serialize to the dense wire format (8 bytes per instruction word +
    1 control byte + pools + header). This is the payload persisted in
    plan caches and kernel-corpus artifacts. *)

val of_bytes : string -> (t, string) result
(** Parse {!to_bytes} output; never raises. Tag/bounds failures are
    reported, but full validation happens in {!decode}. *)

val byte_size : t -> int
(** [String.length (to_bytes t)] without materializing the string twice. *)

val dump : t -> string
(** Human-readable listing for [isaac_lint --dump-binary]: per word, the
    hex encoding, the control info, the disassembled text and a field
    breakdown (opcode/guard/dst/aux/operand kinds). *)

(** {1 Kernel-corpus artifacts}

    A deduplicated set of packed kernels persisted through
    [Util.Artifact] — the binary companion a dataset or plan cache
    references by hash. *)

val corpus_kind : string
(** ["isaac-packed-kernels"]. *)

val save_corpus : ?fsync:bool -> path:string -> t list -> unit
(** Atomically write a corpus (deduplicated by {!hash}, order of first
    occurrence preserved). Raises [Sys_error] on I/O failure, like
    [Util.Artifact.write]. *)

val load_corpus : path:string -> (t list, string) result
(** Read a corpus back; every entry's stored hash is re-verified. *)
