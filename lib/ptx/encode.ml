open Types

(* Packed word layout (62 bits, fits an OCaml native int), low to high:

     [ 0.. 5]  opcode (Instr.opcode)
     [ 6.. 7]  guard kind: 0 none, 1 @%p, 2 @!%p
     [ 8..13]  guard predicate register
     [14..21]  destination register (ireg/freg/preg per opcode)
     [22..25]  aux: memory buffer slot, or Setp comparison code
     [26..37]  src0 \
     [38..49]  src1  } operand fields: [0..7] payload, [8..11] kind
     [50..61]  src2 /

   Operand kinds. Wide immediates spill to the constant pools; small
   integer immediates ride inline, biased by 128. *)

let k_none = 0
let k_ireg = 1
let k_freg = 2
let k_preg = 3
let k_imm = 4 (* inline, payload = value + 128, value in [-128, 127] *)
let k_ipool = 5
let k_fpool = 6
let k_special = 7
let k_param = 8
let k_str = 9

let sh_gkind = 6
let sh_gpreg = 8
let sh_dst = 14
let sh_aux = 22
let sh_src0 = 26
let sh_src1 = 38
let sh_src2 = 50

let special_index = function
  | Tid_x -> 0 | Tid_y -> 1 | Tid_z -> 2
  | Ctaid_x -> 3 | Ctaid_y -> 4 | Ctaid_z -> 5
  | Ntid_x -> 6 | Ntid_y -> 7 | Ntid_z -> 8
  | Nctaid_x -> 9 | Nctaid_y -> 10 | Nctaid_z -> 11

let special_of_index =
  [| Tid_x; Tid_y; Tid_z; Ctaid_x; Ctaid_y; Ctaid_z;
     Ntid_x; Ntid_y; Ntid_z; Nctaid_x; Nctaid_y; Nctaid_z |]

let cmp_code = function Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5
let cmp_of_code = [| Eq; Ne; Lt; Le; Gt; Ge |]

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
  words : int array;
  ipool : int array;
  fpool : float array;
  spool : string array;
}

(* ------------------------------------------------------------------ *)
(* Encode                                                             *)
(* ------------------------------------------------------------------ *)

exception Enc of string

let enc_fail pc fmt =
  Printf.ksprintf (fun s -> raise (Enc (Printf.sprintf "pc %d: %s" pc s))) fmt

let encode (p : Program.t) =
  try
    let itbl = Hashtbl.create 16 and ipool = ref [] and ni = ref 0 in
    let ftbl = Hashtbl.create 16 and fpool = ref [] and nf = ref 0 in
    let stbl = Hashtbl.create 16 and spool = ref [] and ns = ref 0 in
    let intern_i pc v =
      match Hashtbl.find_opt itbl v with
      | Some i -> i
      | None ->
        if !ni >= 256 then enc_fail pc "integer constant pool overflow (256)";
        let i = !ni in
        Hashtbl.add itbl v i; ipool := v :: !ipool; incr ni; i
    in
    let intern_f pc v =
      let key = Int64.bits_of_float v in
      match Hashtbl.find_opt ftbl key with
      | Some i -> i
      | None ->
        if !nf >= 256 then enc_fail pc "float constant pool overflow (256)";
        let i = !nf in
        Hashtbl.add ftbl key i; fpool := v :: !fpool; incr nf; i
    in
    let intern_s pc v =
      match Hashtbl.find_opt stbl v with
      | Some i -> i
      | None ->
        if !ns >= 256 then enc_fail pc "label pool overflow (256)";
        let i = !ns in
        Hashtbl.add stbl v i; spool := v :: !spool; incr ns; i
    in
    let reg pc what kind r =
      if r < 0 || r > 255 then
        enc_fail pc "%s register %d exceeds the 8-bit operand field" what r;
      (kind lsl 8) lor r
    in
    let iop pc = function
      | Ireg r -> reg pc "integer" k_ireg r
      | Iimm v ->
        if v >= -128 && v <= 127 then (k_imm lsl 8) lor (v + 128)
        else (k_ipool lsl 8) lor intern_i pc v
      | Iparam s ->
        if s < 0 || s > 255 then enc_fail pc "int parameter slot %d out of field" s;
        (k_param lsl 8) lor s
      | Ispecial s -> (k_special lsl 8) lor special_index s
    in
    let fop pc = function
      | Freg r -> reg pc "float" k_freg r
      | Fimm v -> (k_fpool lsl 8) lor intern_f pc v
    in
    let pop pc r = reg pc "predicate" k_preg r in
    let sop pc l = (k_str lsl 8) lor intern_s pc l in
    let words =
      Array.mapi
        (fun pc ({ Instr.op; guard } : Instr.t) ->
          let g =
            match guard with
            | None -> 0
            | Some (pr, sense) ->
              if pr < 0 || pr > 63 then
                enc_fail pc "guard predicate %d exceeds the 6-bit field" pr;
              ((if sense then 1 else 2) lsl sh_gkind) lor (pr lsl sh_gpreg)
          in
          let dst what r =
            if r < 0 || r > 255 then
              enc_fail pc "%s destination %d exceeds the 8-bit field" what r;
            r lsl sh_dst
          in
          let slot s =
            if s < 0 || s > 15 then
              enc_fail pc "buffer slot %d exceeds the 4-bit aux field" s;
            s lsl sh_aux
          in
          let s0 f = f lsl sh_src0 and s1 f = f lsl sh_src1 and s2 f = f lsl sh_src2 in
          let base = Instr.opcode op lor g in
          let io = iop pc and fo = fop pc and po = pop pc in
          match op with
          | Instr.Mov (d, a) -> base lor dst "ireg" d lor s0 (io a)
          | Iadd (d, a, b) | Isub (d, a, b) | Imul (d, a, b) | Idiv (d, a, b)
          | Irem (d, a, b) | Imin (d, a, b) | Imax (d, a, b) | Ishl (d, a, b)
          | Ishr (d, a, b) | Iand (d, a, b) | Ior (d, a, b) ->
            base lor dst "ireg" d lor s0 (io a) lor s1 (io b)
          | Imad (d, a, b, c) ->
            base lor dst "ireg" d lor s0 (io a) lor s1 (io b) lor s2 (io c)
          | Setp (c, d, a, b) ->
            base lor dst "preg" d lor (cmp_code c lsl sh_aux)
            lor s0 (io a) lor s1 (io b)
          | And_p (d, a, b) | Or_p (d, a, b) ->
            base lor dst "preg" d lor s0 (po a) lor s1 (po b)
          | Not_p (d, a) -> base lor dst "preg" d lor s0 (po a)
          | Movf (d, a) -> base lor dst "freg" d lor s0 (fo a)
          | Fadd (d, a, b) | Fsub (d, a, b) | Fmul (d, a, b) | Fmax (d, a, b)
          | Fmin (d, a, b) ->
            base lor dst "freg" d lor s0 (fo a) lor s1 (fo b)
          | Ffma (d, a, b, c) ->
            base lor dst "freg" d lor s0 (fo a) lor s1 (fo b) lor s2 (fo c)
          | Ld_global (d, sl, a) -> base lor dst "freg" d lor slot sl lor s0 (io a)
          | Ld_global_i (d, sl, a) -> base lor dst "ireg" d lor slot sl lor s0 (io a)
          | Ld_shared (d, a) -> base lor dst "freg" d lor s0 (io a)
          | Ld_shared_i (d, a) -> base lor dst "ireg" d lor s0 (io a)
          | St_global (sl, a, v) -> base lor slot sl lor s0 (io a) lor s1 (fo v)
          | St_shared (a, v) -> base lor s0 (io a) lor s1 (fo v)
          | St_shared_i (a, v) -> base lor s0 (io a) lor s1 (io v)
          | Atom_global_add (sl, a, v) ->
            base lor slot sl lor s0 (io a) lor s1 (fo v)
          | Label l -> base lor s0 (sop pc l)
          | Bra l -> base lor s0 (sop pc l)
          | Bar | Ret -> base)
        p.body
    in
    Ok
      { name = p.name;
        dtype = p.dtype;
        buf_params = Array.copy p.buf_params;
        int_params = Array.copy p.int_params;
        shared_words = p.shared_words;
        shared_int_words = p.shared_int_words;
        n_fregs = p.n_fregs;
        n_iregs = p.n_iregs;
        n_pregs = p.n_pregs;
        words;
        ipool = Array.of_list (List.rev !ipool);
        fpool = Array.of_list (List.rev !fpool);
        spool = Array.of_list (List.rev !spool) }
  with Enc msg -> Error (Printf.sprintf "%s: encode: %s" p.name msg)

(* ------------------------------------------------------------------ *)
(* Decode                                                             *)
(* ------------------------------------------------------------------ *)

exception Dec of string

let dec_fail pc fmt =
  Printf.ksprintf (fun s -> raise (Dec (Printf.sprintf "pc %d: %s" pc s))) fmt

let field_kind f = (f lsr 8) land 15
let field_payload f = f land 255

let decode t =
  try
    let body =
      Array.mapi
        (fun pc w ->
          let opc = w land 63 in
          let guard =
            match (w lsr sh_gkind) land 3 with
            | 0 -> None
            | 1 -> Some ((w lsr sh_gpreg) land 63, true)
            | 2 -> Some ((w lsr sh_gpreg) land 63, false)
            | _ -> dec_fail pc "bad guard kind"
          in
          let d = (w lsr sh_dst) land 255 in
          let aux = (w lsr sh_aux) land 15 in
          let f0 = (w lsr sh_src0) land 0xfff in
          let f1 = (w lsr sh_src1) land 0xfff in
          let f2 = (w lsr sh_src2) land 0xfff in
          let iop f =
            let v = field_payload f in
            match field_kind f with
            | k when k = k_ireg -> Ireg v
            | k when k = k_imm -> Iimm (v - 128)
            | k when k = k_ipool ->
              if v >= Array.length t.ipool then dec_fail pc "int pool index %d out of range" v;
              Iimm t.ipool.(v)
            | k when k = k_param -> Iparam v
            | k when k = k_special ->
              if v >= 12 then dec_fail pc "special index %d out of range" v;
              Ispecial special_of_index.(v)
            | k -> dec_fail pc "bad integer operand kind %d" k
          in
          let fop f =
            let v = field_payload f in
            match field_kind f with
            | k when k = k_freg -> Freg v
            | k when k = k_fpool ->
              if v >= Array.length t.fpool then dec_fail pc "float pool index %d out of range" v;
              Fimm t.fpool.(v)
            | k -> dec_fail pc "bad float operand kind %d" k
          in
          let pop f =
            if field_kind f <> k_preg then dec_fail pc "bad predicate operand kind %d" (field_kind f);
            field_payload f
          in
          let str f =
            let v = field_payload f in
            if field_kind f <> k_str then dec_fail pc "bad string operand kind %d" (field_kind f);
            if v >= Array.length t.spool then dec_fail pc "string pool index %d out of range" v;
            t.spool.(v)
          in
          let cmp () =
            if aux > 5 then dec_fail pc "bad comparison code %d" aux;
            cmp_of_code.(aux)
          in
          let op =
            match opc with
            | 0 -> Instr.Mov (d, iop f0)
            | 1 -> Iadd (d, iop f0, iop f1)
            | 2 -> Isub (d, iop f0, iop f1)
            | 3 -> Imul (d, iop f0, iop f1)
            | 4 -> Imad (d, iop f0, iop f1, iop f2)
            | 5 -> Idiv (d, iop f0, iop f1)
            | 6 -> Irem (d, iop f0, iop f1)
            | 7 -> Imin (d, iop f0, iop f1)
            | 8 -> Imax (d, iop f0, iop f1)
            | 9 -> Ishl (d, iop f0, iop f1)
            | 10 -> Ishr (d, iop f0, iop f1)
            | 11 -> Iand (d, iop f0, iop f1)
            | 12 -> Ior (d, iop f0, iop f1)
            | 13 -> Setp (cmp (), d, iop f0, iop f1)
            | 14 -> And_p (d, pop f0, pop f1)
            | 15 -> Or_p (d, pop f0, pop f1)
            | 16 -> Not_p (d, pop f0)
            | 17 -> Movf (d, fop f0)
            | 18 -> Fadd (d, fop f0, fop f1)
            | 19 -> Fsub (d, fop f0, fop f1)
            | 20 -> Fmul (d, fop f0, fop f1)
            | 21 -> Ffma (d, fop f0, fop f1, fop f2)
            | 22 -> Fmax (d, fop f0, fop f1)
            | 23 -> Fmin (d, fop f0, fop f1)
            | 24 -> Ld_global (d, aux, iop f0)
            | 25 -> Ld_global_i (d, aux, iop f0)
            | 26 -> Ld_shared (d, iop f0)
            | 27 -> Ld_shared_i (d, iop f0)
            | 28 -> St_global (aux, iop f0, fop f1)
            | 29 -> St_shared (iop f0, fop f1)
            | 30 -> St_shared_i (iop f0, iop f1)
            | 31 -> Atom_global_add (aux, iop f0, fop f1)
            | 32 -> Label (str f0)
            | 33 -> Bra (str f0)
            | 34 -> Bar
            | 35 -> Ret
            | n -> dec_fail pc "unknown opcode %d" n
          in
          { Instr.op; guard })
        t.words
    in
    let p =
      { Program.name = t.name;
        dtype = t.dtype;
        buf_params = Array.copy t.buf_params;
        int_params = Array.copy t.int_params;
        shared_words = t.shared_words;
        shared_int_words = t.shared_int_words;
        body;
        n_fregs = t.n_fregs;
        n_iregs = t.n_iregs;
        n_pregs = t.n_pregs }
    in
    match Program.validate p with
    | Ok () -> Ok p
    | Error e -> Error (Printf.sprintf "%s: decode: %s" t.name e)
  with Dec msg -> Error (Printf.sprintf "%s: decode: %s" t.name msg)

(* ------------------------------------------------------------------ *)
(* Byte stream: the size metric and the hash input                    *)
(* ------------------------------------------------------------------ *)

(* The leading version byte is part of every hash: dropping or changing
   it would change every kernel identity. *)
let format_version = 1

let dtype_tag = function F16 -> 0 | F32 -> 1 | F64 -> 2

let add_str16 b s =
  Buffer.add_uint16_le b (String.length s);
  Buffer.add_string b s

(* [semantic] drops the entry name — the byte stream {!hash} covers. *)
let serialize ~semantic t =
  let b = Buffer.create (64 + (8 * Array.length t.words)) in
  Buffer.add_uint8 b format_version;
  Buffer.add_uint8 b (dtype_tag t.dtype);
  add_str16 b (if semantic then "" else t.name);
  Buffer.add_uint8 b (Array.length t.buf_params);
  Array.iter (add_str16 b) t.buf_params;
  Buffer.add_uint8 b (Array.length t.int_params);
  Array.iter (add_str16 b) t.int_params;
  Buffer.add_int32_le b (Int32.of_int t.shared_words);
  Buffer.add_int32_le b (Int32.of_int t.shared_int_words);
  Buffer.add_uint16_le b t.n_fregs;
  Buffer.add_uint16_le b t.n_iregs;
  Buffer.add_uint16_le b t.n_pregs;
  Buffer.add_int32_le b (Int32.of_int (Array.length t.words));
  Array.iter (fun w -> Buffer.add_int64_le b (Int64.of_int w)) t.words;
  Buffer.add_uint16_le b (Array.length t.ipool);
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.of_int v)) t.ipool;
  Buffer.add_uint16_le b (Array.length t.fpool);
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) t.fpool;
  Buffer.add_uint16_le b (Array.length t.spool);
  Array.iter (add_str16 b) t.spool;
  Buffer.contents b

let byte_size t = String.length (serialize ~semantic:false t)

let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let hash t = fnv64 (serialize ~semantic:true t)
let hash_hex h = Printf.sprintf "%016Lx" h

(* ------------------------------------------------------------------ *)
(* Dump                                                               *)
(* ------------------------------------------------------------------ *)

let field_describe t f =
  let v = field_payload f in
  let k = field_kind f in
  if k = k_none then "-"
  else if k = k_ireg then Printf.sprintf "r%d" v
  else if k = k_freg then Printf.sprintf "f%d" v
  else if k = k_preg then Printf.sprintf "p%d" v
  else if k = k_imm then Printf.sprintf "imm:%d" (v - 128)
  else if k = k_ipool then
    Printf.sprintf "ipool[%d]=%s" v
      (if v < Array.length t.ipool then string_of_int t.ipool.(v) else "?")
  else if k = k_fpool then
    Printf.sprintf "fpool[%d]=%s" v
      (if v < Array.length t.fpool then Printf.sprintf "%.17g" t.fpool.(v) else "?")
  else if k = k_special then
    Printf.sprintf "special:%s"
      (if v < 12 then Disasm.special_name special_of_index.(v) else "?")
  else if k = k_param then Printf.sprintf "param:%d" v
  else if k = k_str then
    Printf.sprintf "str[%d]=%s" v
      (if v < Array.length t.spool then t.spool.(v) else "?")
  else Printf.sprintf "kind%d:%d" k v

let dump t =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "// packed kernel %s  dtype=%s  words=%d  bytes=%d  hash=%s\n"
    t.name (dtype_name t.dtype) (Array.length t.words) (byte_size t)
    (hash_hex (hash t));
  Printf.bprintf b "// pools: int=%d float=%d str=%d\n"
    (Array.length t.ipool) (Array.length t.fpool) (Array.length t.spool);
  let prog = match decode t with Ok p -> Some p | Error _ -> None in
  Array.iteri
    (fun i w ->
      let text =
        match prog with
        | Some p -> String.trim (Disasm.instr p.dtype p.body.(i))
        | None -> "<undecodable>"
      in
      Printf.bprintf b "%04d  %016x  %s\n" i w text;
      let gk = (w lsr sh_gkind) land 3 in
      let guard =
        match gk with
        | 0 -> "-"
        | 1 -> Printf.sprintf "@p%d" ((w lsr sh_gpreg) land 63)
        | _ -> Printf.sprintf "@!p%d" ((w lsr sh_gpreg) land 63)
      in
      Printf.bprintf b
        "      op=%d(%s) guard=%s dst=%d aux=%d s0=%s s1=%s s2=%s\n"
        (w land 63)
        (Instr.opcode_name (w land 63))
        guard
        ((w lsr sh_dst) land 255)
        ((w lsr sh_aux) land 15)
        (field_describe t ((w lsr sh_src0) land 0xfff))
        (field_describe t ((w lsr sh_src1) land 0xfff))
        (field_describe t ((w lsr sh_src2) land 0xfff)))
    t.words;
  Buffer.contents b
