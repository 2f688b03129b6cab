open Types

type pressure = { fregs : int; iregs : int; pregs : int }

(* def/use sets of one instruction, per register class. Guarded defs are
   also uses (the old value survives a false guard). *)
let def_use (instr : Instr.t) =
  let df = ref [] and uf = ref [] in
  let di = ref [] and ui = ref [] in
  let dp = ref [] and up = ref [] in
  let use_io = function Ireg r -> ui := r :: !ui | Iimm _ | Iparam _ | Ispecial _ -> () in
  let use_fo = function Freg r -> uf := r :: !uf | Fimm _ -> () in
  (match instr.op with
   | Instr.Mov (d, a) -> di := [ d ]; use_io a
   | Iadd (d, a, b) | Isub (d, a, b) | Imul (d, a, b) | Idiv (d, a, b)
   | Irem (d, a, b) | Imin (d, a, b) | Imax (d, a, b) | Ishl (d, a, b)
   | Ishr (d, a, b) | Iand (d, a, b) | Ior (d, a, b) ->
     di := [ d ]; use_io a; use_io b
   | Imad (d, a, b, c) -> di := [ d ]; use_io a; use_io b; use_io c
   | Setp (_, p, a, b) -> dp := [ p ]; use_io a; use_io b
   | And_p (d, a, b) | Or_p (d, a, b) -> dp := [ d ]; up := [ a; b ]
   | Not_p (d, a) -> dp := [ d ]; up := [ a ]
   | Movf (d, a) -> df := [ d ]; use_fo a
   | Fadd (d, a, b) | Fsub (d, a, b) | Fmul (d, a, b)
   | Fmax (d, a, b) | Fmin (d, a, b) ->
     df := [ d ]; use_fo a; use_fo b
   | Ffma (d, a, b, c) -> df := [ d ]; use_fo a; use_fo b; use_fo c
   | Ld_global (d, _, addr) -> df := [ d ]; use_io addr
   | Ld_global_i (d, _, addr) -> di := [ d ]; use_io addr
   | Ld_shared (d, addr) -> df := [ d ]; use_io addr
   | Ld_shared_i (d, addr) -> di := [ d ]; use_io addr
   | St_global (_, addr, v) -> use_io addr; use_fo v
   | St_shared (addr, v) -> use_io addr; use_fo v
   | St_shared_i (addr, v) -> use_io addr; use_io v
   | Atom_global_add (_, addr, v) -> use_io addr; use_fo v
   | Label _ | Bra _ | Bar | Ret -> ());
  (match instr.guard with
   | Some (p, _) ->
     up := p :: !up;
     (* guarded defs keep the old value live *)
     uf := !df @ !uf;
     ui := !di @ !ui;
     up := !dp @ !up
   | None -> ());
  ((!df, !uf), (!di, !ui), (!dp, !up))

let successors (p : Program.t) labels pc =
  let n = Array.length p.body in
  match p.body.(pc).Instr.op with
  | Instr.Ret -> []
  | Bra target ->
    let t = Hashtbl.find labels target in
    (match p.body.(pc).guard with
     | None -> [ t ]
     | Some _ -> if pc + 1 < n then [ t; pc + 1 ] else [ t ])
  | _ -> if pc + 1 < n then [ pc + 1 ] else []

(* Live-in sets of one register class as word bitsets, all pcs in one
   flat array: register r of the set at pc is bit (r mod 63) of
   [words.(pc * width + r / 63)]. *)
type sets = { width : int; words : int array }

let word_bits = 63 (* OCaml 5 is 64-bit only: an int holds 63 bits *)

let sets_for n nregs =
  let width = (nregs + word_bits - 1) / word_bits in
  { width; words = Array.make (n * width) 0 }

(* SWAR population count of a 63-bit word. The classic 64-bit masks
   apply unchanged except the first, whose bit 62 would select the
   absent bit 63; OCaml arithmetic wraps mod 2^63, and the final sum
   (<= 63) sits in bits 56-61 of the product. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x =
    (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333)
  in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* [f (base + b)] for every set bit b of [w], lowest first. *)
let rec iter_bits base w f =
  if w <> 0 then begin
    let low = w land -w in
    f (base + popcount (low - 1));
    iter_bits base (w lxor low) f
  end

(* One transfer step at pc through the shared [scratch] row:
   in(pc) ∪= uses ∪ (∪ in(succ) − defs). True if in(pc) grew. *)
let step s scratch pc succs defs uses =
  let w = s.width and words = s.words in
  Array.fill scratch 0 w 0;
  List.iter
    (fun succ ->
      let o = succ * w in
      for j = 0 to w - 1 do
        scratch.(j) <- scratch.(j) lor words.(o + j)
      done)
    succs;
  List.iter
    (fun r ->
      let j = r / word_bits in
      scratch.(j) <- scratch.(j) land lnot (1 lsl (r mod word_bits)))
    defs;
  List.iter
    (fun r ->
      let j = r / word_bits in
      scratch.(j) <- scratch.(j) lor (1 lsl (r mod word_bits)))
    uses;
  let o = pc * w and grew = ref false in
  for j = 0 to w - 1 do
    let d = words.(o + j) in
    let u = d lor scratch.(j) in
    if u <> d then begin
      words.(o + j) <- u;
      grew := true
    end
  done;
  !grew

(* Backward liveness fixpoint, per register class. *)
let compute_liveness (p : Program.t) =
  let n = Array.length p.body in
  let labels = Program.find_labels p in
  let sf = sets_for n p.n_fregs
  and si = sets_for n p.n_iregs
  and sp = sets_for n p.n_pregs in
  let scratch = Array.make (max sf.width (max si.width sp.width)) 0 in
  let dus = Array.map def_use p.body in
  let succs = Array.init n (successors p labels) in
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = n - 1 downto 0 do
      let (df, uf), (di, ui), (dp, up) = dus.(pc) in
      let ss = succs.(pc) in
      if step sf scratch pc ss df uf then changed := true;
      if step si scratch pc ss di ui then changed := true;
      if step sp scratch pc ss dp up then changed := true
    done
  done;
  ((sf, si, sp), dus)

let max_live s =
  let best = ref 0 in
  if s.width > 0 then
    for pc = 0 to (Array.length s.words / s.width) - 1 do
      let count = ref 0 in
      for j = pc * s.width to ((pc + 1) * s.width) - 1 do
        count := !count + popcount s.words.(j)
      done;
      best := max !best !count
    done;
  !best

let pressure p =
  let (sf, si, sp), _ = compute_liveness p in
  { fregs = max_live sf; iregs = max_live si; pregs = max_live sp }

(* Live intervals: [start, stop] over instruction positions. A register
   is "occupied" at pc if live-in at pc, or defined or used at pc. The
   live-in part takes two sweeps over the words, with [seen] masking
   the registers already placed: forward, the first set that holds a
   register gives its start; backward, the last one gives its stop. *)
let intervals s dus ~select ~nregs =
  let n = Array.length dus and w = s.width in
  let start = Array.make nregs max_int and stop = Array.make nregs (-1) in
  Array.iteri
    (fun pc du ->
      let defs, uses = select du in
      let touch r =
        if pc < start.(r) then start.(r) <- pc;
        if pc > stop.(r) then stop.(r) <- pc
      in
      List.iter touch defs;
      List.iter touch uses)
    dus;
  let seen = Array.make w 0 in
  let sweep pc place =
    for j = 0 to w - 1 do
      let fresh = s.words.((pc * w) + j) land lnot seen.(j) in
      if fresh <> 0 then begin
        seen.(j) <- seen.(j) lor fresh;
        iter_bits (j * word_bits) fresh place
      end
    done
  in
  for pc = 0 to n - 1 do
    sweep pc (fun r -> if pc < start.(r) then start.(r) <- pc)
  done;
  Array.fill seen 0 w 0;
  for pc = n - 1 downto 0 do
    sweep pc (fun r -> if pc > stop.(r) then stop.(r) <- pc)
  done;
  let out = ref [] in
  for r = nregs - 1 downto 0 do
    if stop.(r) >= 0 then out := (r, start.(r), stop.(r)) :: !out
  done;
  Array.of_list !out

let live_ranges p =
  let (sf, _, _), dus = compute_liveness p in
  intervals sf dus
    ~select:(fun ((df, uf), _, _) -> (df, uf))
    ~nregs:p.n_fregs

(* Linear scan over intervals: assign the smallest physical register free
   over the whole interval. *)
let linear_scan ivals =
  let ivals = Array.copy ivals in
  Array.sort (fun (_, s1, _) (_, s2, _) -> compare s1 s2) ivals;
  let assignment = Hashtbl.create 64 in
  (* active: (stop, phys) list *)
  let active = ref [] in
  let free = ref [] in
  let next = ref 0 in
  Array.iter
    (fun (r, start, stop) ->
      let still, expired = List.partition (fun (e, _) -> e >= start) !active in
      List.iter (fun (_, phys) -> free := phys :: !free) expired;
      active := still;
      let phys =
        match !free with
        | phys :: rest ->
          free := rest;
          phys
        | [] ->
          let phys = !next in
          incr next;
          phys
      in
      active := (stop, phys) :: !active;
      Hashtbl.replace assignment r phys)
    ivals;
  (assignment, !next)

let allocate (p : Program.t) =
  let (sf, si, sp), dus = compute_liveness p in
  let iv_f =
    intervals sf dus ~select:(fun ((f, uf), _, _) -> (f, uf)) ~nregs:p.n_fregs
  in
  let iv_i =
    intervals si dus ~select:(fun (_, (i, ui), _) -> (i, ui)) ~nregs:p.n_iregs
  in
  let iv_p =
    intervals sp dus ~select:(fun (_, _, (pp, up)) -> (pp, up)) ~nregs:p.n_pregs
  in
  let map_f, nf = linear_scan iv_f in
  let map_i, ni = linear_scan iv_i in
  let map_p, np = linear_scan iv_p in
  let mf r = match Hashtbl.find_opt map_f r with Some x -> x | None -> 0 in
  let mi r = match Hashtbl.find_opt map_i r with Some x -> x | None -> 0 in
  let mp r = match Hashtbl.find_opt map_p r with Some x -> x | None -> 0 in
  let io = function
    | Ireg r -> Ireg (mi r)
    | (Iimm _ | Iparam _ | Ispecial _) as x -> x
  in
  let fo = function Freg r -> Freg (mf r) | Fimm _ as x -> x in
  let rewrite (instr : Instr.t) =
    let op =
      match instr.op with
      | Instr.Mov (d, a) -> Instr.Mov (mi d, io a)
      | Iadd (d, a, b) -> Iadd (mi d, io a, io b)
      | Isub (d, a, b) -> Isub (mi d, io a, io b)
      | Imul (d, a, b) -> Imul (mi d, io a, io b)
      | Imad (d, a, b, c) -> Imad (mi d, io a, io b, io c)
      | Idiv (d, a, b) -> Idiv (mi d, io a, io b)
      | Irem (d, a, b) -> Irem (mi d, io a, io b)
      | Imin (d, a, b) -> Imin (mi d, io a, io b)
      | Imax (d, a, b) -> Imax (mi d, io a, io b)
      | Ishl (d, a, b) -> Ishl (mi d, io a, io b)
      | Ishr (d, a, b) -> Ishr (mi d, io a, io b)
      | Iand (d, a, b) -> Iand (mi d, io a, io b)
      | Ior (d, a, b) -> Ior (mi d, io a, io b)
      | Setp (c, pr, a, b) -> Setp (c, mp pr, io a, io b)
      | And_p (d, a, b) -> And_p (mp d, mp a, mp b)
      | Or_p (d, a, b) -> Or_p (mp d, mp a, mp b)
      | Not_p (d, a) -> Not_p (mp d, mp a)
      | Movf (d, a) -> Movf (mf d, fo a)
      | Fadd (d, a, b) -> Fadd (mf d, fo a, fo b)
      | Fsub (d, a, b) -> Fsub (mf d, fo a, fo b)
      | Fmul (d, a, b) -> Fmul (mf d, fo a, fo b)
      | Fmax (d, a, b) -> Fmax (mf d, fo a, fo b)
      | Fmin (d, a, b) -> Fmin (mf d, fo a, fo b)
      | Ffma (d, a, b, c) -> Ffma (mf d, fo a, fo b, fo c)
      | Ld_global (d, slot, addr) -> Ld_global (mf d, slot, io addr)
      | Ld_global_i (d, slot, addr) -> Ld_global_i (mi d, slot, io addr)
      | Ld_shared (d, addr) -> Ld_shared (mf d, io addr)
      | Ld_shared_i (d, addr) -> Ld_shared_i (mi d, io addr)
      | St_global (slot, addr, v) -> St_global (slot, io addr, fo v)
      | St_shared (addr, v) -> St_shared (io addr, fo v)
      | St_shared_i (addr, v) -> St_shared_i (io addr, io v)
      | Atom_global_add (slot, addr, v) -> Atom_global_add (slot, io addr, fo v)
      | (Label _ | Bra _ | Bar | Ret) as x -> x
    in
    let guard = Option.map (fun (pr, sense) -> (mp pr, sense)) instr.guard in
    { Instr.op; guard }
  in
  { p with
    body = Array.map rewrite p.body;
    n_fregs = max 1 nf;
    n_iregs = max 1 ni;
    n_pregs = max 1 np }
