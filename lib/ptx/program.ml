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

let special_index = function
  | Tid_x -> 0 | Tid_y -> 1 | Tid_z -> 2
  | Ctaid_x -> 3 | Ctaid_y -> 4 | Ctaid_z -> 5
  | Ntid_x -> 6 | Ntid_y -> 7 | Ntid_z -> 8
  | Nctaid_x -> 9 | Nctaid_y -> 10 | Nctaid_z -> 11

let cmp_index = function Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

(* The walk folds 32-bit words into FNV-1a 64 in a fixed order: the
   dtype, each parameter list (its length, then per name its length and
   bytes), the resource counts and the body length, then per
   instruction its guard, opcode and operands. An operand is a kind
   word and its payload: a register or slot number, an integer
   immediate, a float immediate's bits or a special register's index. A
   count, register or slot number is one word, its low 32 bits; an
   immediate is two, its low and high 32 bits. A branch's target is the
   body index of its label (-1 if undefined), so label names, like the
   entry name, are left out. One step xors a word into the state and
   multiplies by the FNV prime. Words of 32 bits put every difference in
   the low half of the state, where the multiply spreads it upward; a
   64-bit word that differed only in its top bits (a float's sign, say)
   would leave a difference there that a second one could cancel. *)
let hash t =
  (* The 64-bit state as two 32-bit halves in native ints, so a step
     allocates nothing: for [h = hi * 2^32 + lo] and the prime
     [2^40 + 0x1b3], [(h lxor w) * prime] has low half [l * 0x1b3] mod
     2^32, where [l = lo lxor w], and high half
     [hi * 0x1b3 + (l * 0x1b3) / 2^32 + l * 2^8] mod 2^32. *)
  let hi = ref 0xcbf29ce4 and lo = ref 0x84222325 in
  let word w =
    let l = !lo lxor (w land 0xffff_ffff) in
    let m = l * 0x1b3 in
    lo := m land 0xffff_ffff;
    hi := ((!hi * 0x1b3) + (m lsr 32) + (l lsl 8)) land 0xffff_ffff
  in
  let wide w = word w; word (w asr 32) in
  let names a =
    word (Array.length a);
    Array.iter (fun s -> word (String.length s); String.iter (fun c -> word (Char.code c)) s) a
  in
  let io = function
    | Ireg r -> word 0; word r
    | Iimm v -> word 1; wide v
    | Iparam p -> word 2; word p
    | Ispecial s -> word 3; word (special_index s)
  in
  let fo = function
    | Freg r -> word 0; word r
    | Fimm v ->
      let b = Int64.bits_of_float v in
      word 1;
      word (Int64.to_int b);
      word (Int64.to_int (Int64.shift_right_logical b 32))
  in
  let labels = find_labels t in
  word (match t.dtype with F16 -> 0 | F32 -> 1 | F64 -> 2);
  names t.buf_params;
  names t.int_params;
  List.iter word
    [ t.shared_words; t.shared_int_words; t.n_fregs; t.n_iregs; t.n_pregs;
      Array.length t.body ];
  Array.iter
    (fun { Instr.op; guard } ->
      (match guard with
       | None -> word 0
       | Some (p, sense) -> word (if sense then 1 else 2); word p);
      word (Instr.opcode op);
      match op with
      | Instr.Mov (d, a) -> word d; io a
      | Iadd (d, a, c) | Isub (d, a, c) | Imul (d, a, c) | Idiv (d, a, c)
      | Irem (d, a, c) | Imin (d, a, c) | Imax (d, a, c)
      | Ishl (d, a, c) | Ishr (d, a, c) | Iand (d, a, c) | Ior (d, a, c) ->
        word d; io a; io c
      | Imad (d, a, c, e) -> word d; io a; io c; io e
      | Setp (cmp, p, a, c) -> word (cmp_index cmp); word p; io a; io c
      | And_p (d, a, c) | Or_p (d, a, c) -> word d; word a; word c
      | Not_p (d, a) -> word d; word a
      | Movf (d, a) -> word d; fo a
      | Fadd (d, a, c) | Fsub (d, a, c) | Fmul (d, a, c)
      | Fmax (d, a, c) | Fmin (d, a, c) ->
        word d; fo a; fo c
      | Ffma (d, a, c, e) -> word d; fo a; fo c; fo e
      | Ld_global (d, slot, addr) | Ld_global_i (d, slot, addr) ->
        word d; word slot; io addr
      | Ld_shared (d, addr) | Ld_shared_i (d, addr) -> word d; io addr
      | St_global (slot, addr, v) | Atom_global_add (slot, addr, v) ->
        word slot; io addr; fo v
      | St_shared (addr, v) -> io addr; fo v
      | St_shared_i (addr, v) -> io addr; io v
      | Bra target ->
        word (Option.value ~default:(-1) (Hashtbl.find_opt labels target))
      | Label _ | Bar | Ret -> ())
    t.body;
  Int64.logor (Int64.shift_left (Int64.of_int !hi) 32) (Int64.of_int !lo)
