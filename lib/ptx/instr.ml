open Types

type op =
  | Mov of ireg * ioperand
  | Iadd of ireg * ioperand * ioperand
  | Isub of ireg * ioperand * ioperand
  | Imul of ireg * ioperand * ioperand
  | Imad of ireg * ioperand * ioperand * ioperand
  | Idiv of ireg * ioperand * ioperand
  | Irem of ireg * ioperand * ioperand
  | Imin of ireg * ioperand * ioperand
  | Imax of ireg * ioperand * ioperand
  | Ishl of ireg * ioperand * ioperand
  | Ishr of ireg * ioperand * ioperand
  | Iand of ireg * ioperand * ioperand
  | Ior of ireg * ioperand * ioperand
  | Setp of cmp * preg * ioperand * ioperand
  | And_p of preg * preg * preg
  | Or_p of preg * preg * preg
  | Not_p of preg * preg
  | Movf of freg * foperand
  | Fadd of freg * foperand * foperand
  | Fsub of freg * foperand * foperand
  | Fmul of freg * foperand * foperand
  | Ffma of freg * foperand * foperand * foperand
  | Fmax of freg * foperand * foperand
  | Fmin of freg * foperand * foperand
  | Ld_global of freg * int * ioperand
  | Ld_global_i of ireg * int * ioperand
  | Ld_shared of freg * ioperand
  | Ld_shared_i of ireg * ioperand
  | St_global of int * ioperand * foperand
  | St_shared of ioperand * foperand
  | St_shared_i of ioperand * ioperand
  | Atom_global_add of int * ioperand * foperand
  | Label of string
  | Bra of string
  | Bar
  | Ret

type t = { op : op; guard : (preg * bool) option }

let mk ?guard op = { op; guard }

type category =
  | Cat_ialu | Cat_fma | Cat_fp_other
  | Cat_ld_global | Cat_st_global | Cat_ld_shared | Cat_st_shared
  | Cat_atom | Cat_bar | Cat_branch | Cat_pred | Cat_mov

(* Stable binary opcode numbering (the wire format of [Encode]). The
   numbers follow the constructor order above and MUST NOT be reshuffled:
   persisted packed kernels and their FNV-64 hashes depend on them. New
   operations append at the end. *)
let opcode = function
  | Mov _ -> 0 | Iadd _ -> 1 | Isub _ -> 2 | Imul _ -> 3 | Imad _ -> 4
  | Idiv _ -> 5 | Irem _ -> 6 | Imin _ -> 7 | Imax _ -> 8 | Ishl _ -> 9
  | Ishr _ -> 10 | Iand _ -> 11 | Ior _ -> 12 | Setp _ -> 13 | And_p _ -> 14
  | Or_p _ -> 15 | Not_p _ -> 16 | Movf _ -> 17 | Fadd _ -> 18 | Fsub _ -> 19
  | Fmul _ -> 20 | Ffma _ -> 21 | Fmax _ -> 22 | Fmin _ -> 23
  | Ld_global _ -> 24 | Ld_global_i _ -> 25 | Ld_shared _ -> 26
  | Ld_shared_i _ -> 27 | St_global _ -> 28 | St_shared _ -> 29
  | St_shared_i _ -> 30 | Atom_global_add _ -> 31 | Label _ -> 32
  | Bra _ -> 33 | Bar -> 34 | Ret -> 35

let opcode_name = function
  | 0 -> "mov" | 1 -> "iadd" | 2 -> "isub" | 3 -> "imul" | 4 -> "imad"
  | 5 -> "idiv" | 6 -> "irem" | 7 -> "imin" | 8 -> "imax" | 9 -> "ishl"
  | 10 -> "ishr" | 11 -> "iand" | 12 -> "ior" | 13 -> "setp" | 14 -> "andp"
  | 15 -> "orp" | 16 -> "notp" | 17 -> "movf" | 18 -> "fadd" | 19 -> "fsub"
  | 20 -> "fmul" | 21 -> "ffma" | 22 -> "fmax" | 23 -> "fmin"
  | 24 -> "ldg" | 25 -> "ldgi" | 26 -> "lds" | 27 -> "ldsi" | 28 -> "stg"
  | 29 -> "sts" | 30 -> "stsi" | 31 -> "atom" | 32 -> "label" | 33 -> "bra"
  | 34 -> "bar" | 35 -> "ret" | _ -> "?"

let categorize = function
  | Mov _ | Movf _ -> Some Cat_mov
  | Iadd _ | Isub _ | Imul _ | Imad _ | Idiv _ | Irem _
  | Imin _ | Imax _ | Ishl _ | Ishr _ | Iand _ | Ior _ -> Some Cat_ialu
  | Setp _ | And_p _ | Or_p _ | Not_p _ -> Some Cat_pred
  | Ffma _ -> Some Cat_fma
  | Fadd _ | Fsub _ | Fmul _ | Fmax _ | Fmin _ -> Some Cat_fp_other
  | Ld_global _ | Ld_global_i _ -> Some Cat_ld_global
  | St_global _ -> Some Cat_st_global
  | Ld_shared _ | Ld_shared_i _ -> Some Cat_ld_shared
  | St_shared _ | St_shared_i _ -> Some Cat_st_shared
  | Atom_global_add _ -> Some Cat_atom
  | Bar -> Some Cat_bar
  | Bra _ -> Some Cat_branch
  | Ret -> Some Cat_branch
  | Label _ -> None
