(** Kernel programs: an instruction body plus its signature and resource
    metadata. Produced by {!Builder}, consumed by {!Interp} (functional
    execution), {!Disasm} (pretty printing) and the GPU timing model
    (resource usage). *)

open Types

type t = {
  name : string;
  dtype : dtype;                (** compute data-type *)
  buf_params : string array;    (** global buffer parameters, by slot *)
  int_params : string array;    (** scalar integer parameters, by slot *)
  shared_words : int;           (** shared-memory size in float words *)
  shared_int_words : int;       (** shared-memory size in int words *)
  body : Instr.t array;
  n_fregs : int;                (** virtual float registers per thread *)
  n_iregs : int;
  n_pregs : int;
}

val validate : t -> (unit, string) result
(** Structural checks: every branch target is a defined, unique label;
    every register index is below the declared counts; every parameter
    slot is in range. The builder always produces valid programs; this
    guards hand-written ones and is exercised by tests. *)

val find_labels : t -> (string, int) Hashtbl.t
(** Map from label name to body index (index of the [Label] instruction). *)

val hash : t -> int64
(** The kernel's identity: FNV-1a 64 over a structural walk of the
    program, folding in one 32-bit word per field (two for an
    immediate). The walk covers the dtype, the parameter names, the
    shared-memory sizes and register counts, and each instruction's
    guard, opcode and operands, with immediates by their bits and
    branch targets by the body index of their label. It leaves out the
    entry name and label names, so one kernel generated under several
    shape-specific names keeps one hash. Every program has a hash: it
    needs no register allocation and no encoding. Served as a plan's
    [kernel_hash]. *)
