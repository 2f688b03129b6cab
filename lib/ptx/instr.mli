(** Instruction set of the mini-PTX IR.

    Every instruction may carry a guard predicate, mirroring PTX's
    [@%p]/[@!%p] predication — the mechanism §8.3 of the paper identifies
    as the reason PTX-level bounds checking costs ~2% instead of the
    15–20% of branch-based CUDA C checks. *)

open Types

(** Operation codes. Global memory operands are a pair of a buffer
    parameter slot (static) and a dynamic element offset. *)
type op =
  (* integer ALU *)
  | Mov of ireg * ioperand                        (** d <- a *)
  | Iadd of ireg * ioperand * ioperand            (** d <- a + b *)
  | Isub of ireg * ioperand * ioperand
  | Imul of ireg * ioperand * ioperand
  | Imad of ireg * ioperand * ioperand * ioperand (** d <- a*b + c *)
  | Idiv of ireg * ioperand * ioperand            (** truncated division *)
  | Irem of ireg * ioperand * ioperand
  | Imin of ireg * ioperand * ioperand
  | Imax of ireg * ioperand * ioperand
  | Ishl of ireg * ioperand * ioperand
  | Ishr of ireg * ioperand * ioperand
  | Iand of ireg * ioperand * ioperand
  | Ior of ireg * ioperand * ioperand
  (* predicates *)
  | Setp of cmp * preg * ioperand * ioperand      (** p <- a `cmp` b *)
  | And_p of preg * preg * preg                   (** p <- p1 && p2 *)
  | Or_p of preg * preg * preg
  | Not_p of preg * preg
  (* floating point *)
  | Movf of freg * foperand
  | Fadd of freg * foperand * foperand
  | Fsub of freg * foperand * foperand
  | Fmul of freg * foperand * foperand
  | Ffma of freg * foperand * foperand * foperand (** d <- a*b + c *)
  | Fmax of freg * foperand * foperand
  | Fmin of freg * foperand * foperand
  (* memory *)
  | Ld_global of freg * int * ioperand            (** d <- buf[slot][addr] *)
  | Ld_global_i of ireg * int * ioperand          (** integer gather (indirection tables) *)
  | Ld_shared of freg * ioperand
  | Ld_shared_i of ireg * ioperand
  | St_global of int * ioperand * foperand        (** buf[slot][addr] <- v *)
  | St_shared of ioperand * foperand
  | St_shared_i of ioperand * ioperand
  | Atom_global_add of int * ioperand * foperand  (** buf[slot][addr] += v *)
  (* control *)
  | Label of string
  | Bra of string                                 (** branch (honours guard) *)
  | Bar                                           (** block-wide barrier *)
  | Ret

type t = {
  op : op;
  guard : (preg * bool) option;
      (** [Some (p, sense)]: execute iff the thread's predicate register
          [p] equals [sense]. [None]: always execute. *)
}

val mk : ?guard:preg * bool -> op -> t
(** Build an instruction, unguarded by default. *)

val opcode : op -> int
(** Stable binary opcode number used by {!Encode}'s packed instruction
    words. Follows constructor order; persisted artifacts and kernel
    hashes depend on it, so existing numbers never change. *)

val opcode_name : int -> string
(** Short mnemonic for an opcode number (["?"] when out of range); used
    by the [--dump-binary] field breakdown. *)

(** Category used by dynamic instruction counting in the interpreter and by
    the static analysis; the timing model consumes these mixes. *)
type category =
  | Cat_ialu | Cat_fma | Cat_fp_other
  | Cat_ld_global | Cat_st_global | Cat_ld_shared | Cat_st_shared
  | Cat_atom | Cat_bar | Cat_branch | Cat_pred | Cat_mov

val categorize : op -> category option
(** [None] for [Label] (assembler directive, costs nothing). *)
