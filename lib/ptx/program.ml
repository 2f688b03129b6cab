open Types

type t = {
  name : string;
  dtype : dtype;
  buf_params : string array;
  int_params : string array;
  shared_words : int;
  shared_int_words : int;
  body : Instr.t array;
  n_fregs : int;
  n_iregs : int;
  n_pregs : int;
}

let find_labels t =
  let labels = Hashtbl.create 16 in
  Array.iteri
    (fun i instr ->
      match instr.Instr.op with
      | Instr.Label name -> Hashtbl.replace labels name i
      | _ -> ())
    t.body;
  labels

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let labels = Hashtbl.create 16 in
  let exception Bad of string in
  try
    Array.iter
      (fun instr ->
        match instr.Instr.op with
        | Instr.Label name ->
          if Hashtbl.mem labels name then raise (Bad ("duplicate label " ^ name));
          Hashtbl.replace labels name ()
        | _ -> ())
      t.body;
    let check_f r = if r < 0 || r >= t.n_fregs then raise (Bad "freg out of range") in
    let check_i r = if r < 0 || r >= t.n_iregs then raise (Bad "ireg out of range") in
    let check_p r = if r < 0 || r >= t.n_pregs then raise (Bad "preg out of range") in
    let check_slot s =
      if s < 0 || s >= Array.length t.buf_params then raise (Bad "buffer slot out of range")
    in
    let check_io = function
      | Ireg r -> check_i r
      | Iimm _ | Ispecial _ -> ()
      | Iparam p ->
        if p < 0 || p >= Array.length t.int_params then raise (Bad "int param out of range")
    in
    let check_fo = function Freg r -> check_f r | Fimm _ -> () in
    Array.iter
      (fun { Instr.op; guard } ->
        (match guard with Some (p, _) -> check_p p | None -> ());
        match op with
        | Instr.Mov (d, a) -> check_i d; check_io a
        | Iadd (d, a, b) | Isub (d, a, b) | Imul (d, a, b) | Idiv (d, a, b)
        | Irem (d, a, b) | Imin (d, a, b) | Imax (d, a, b)
        | Ishl (d, a, b) | Ishr (d, a, b) | Iand (d, a, b) | Ior (d, a, b) ->
          check_i d; check_io a; check_io b
        | Imad (d, a, b, c) -> check_i d; check_io a; check_io b; check_io c
        | Setp (_, p, a, b) -> check_p p; check_io a; check_io b
        | And_p (d, a, b) | Or_p (d, a, b) -> check_p d; check_p a; check_p b
        | Not_p (d, a) -> check_p d; check_p a
        | Movf (d, a) -> check_f d; check_fo a
        | Fadd (d, a, b) | Fsub (d, a, b) | Fmul (d, a, b)
        | Fmax (d, a, b) | Fmin (d, a, b) ->
          check_f d; check_fo a; check_fo b
        | Ffma (d, a, b, c) -> check_f d; check_fo a; check_fo b; check_fo c
        | Ld_global (d, slot, addr) -> check_f d; check_slot slot; check_io addr
        | Ld_global_i (d, slot, addr) -> check_i d; check_slot slot; check_io addr
        | Ld_shared (d, addr) -> check_f d; check_io addr
        | Ld_shared_i (d, addr) -> check_i d; check_io addr
        | St_global (slot, addr, v) -> check_slot slot; check_io addr; check_fo v
        | St_shared (addr, v) -> check_io addr; check_fo v
        | St_shared_i (addr, v) -> check_io addr; check_io v
        | Atom_global_add (slot, addr, v) -> check_slot slot; check_io addr; check_fo v
        | Bra target ->
          if not (Hashtbl.mem labels target) then raise (Bad ("undefined label " ^ target))
        | Label _ | Bar | Ret -> ())
      t.body;
    Ok ()
  with Bad msg -> err "%s: %s" t.name msg
