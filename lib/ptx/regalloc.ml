open Types

(* [f (base + b)] for every set bit b of [w], lowest first. *)
let rec iter_bits base w f =
  if w <> 0 then begin
    if w land 1 <> 0 then f base;
    iter_bits (base + 1) (w lsr 1) f
  end

(* Live intervals of one register class: [start, stop] over instruction
   positions. A register is "occupied" at pc if live-in at pc, or
   defined or used at pc; [index] gives a register's number in the
   class, or -1 for another class. The live-in part takes two sweeps
   over the words, with [seen] masking the registers already placed:
   forward, the first set that holds a register gives its start;
   backward, the last one gives its stop. *)
let intervals (lv : Liveness.t) (s : Liveness.sets) ~index ~nregs =
  let n = Array.length lv.defs and w = s.width in
  let start = Array.make nregs max_int and stop = Array.make nregs (-1) in
  let touch pc reg =
    let r = index reg in
    if r >= 0 then begin
      if pc < start.(r) then start.(r) <- pc;
      if pc > stop.(r) then stop.(r) <- pc
    end
  in
  for pc = 0 to n - 1 do
    List.iter (touch pc) lv.defs.(pc);
    List.iter (touch pc) lv.uses.(pc)
  done;
  let seen = Array.make w 0 in
  let sweep pc place =
    for j = 0 to w - 1 do
      let fresh = s.words.((pc * w) + j) land lnot seen.(j) in
      if fresh <> 0 then begin
        seen.(j) <- seen.(j) lor fresh;
        iter_bits (j * Liveness.word_bits) fresh place
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
  let lv =
    match Cfg.build p with
    | Ok cfg -> Liveness.analyse p cfg
    | Error msg -> invalid_arg ("Regalloc.allocate: " ^ msg)
  in
  let scan s index nregs = linear_scan (intervals lv s ~index ~nregs) in
  let map_f, nf =
    scan lv.floats (function Dataflow.R_f r -> r | _ -> -1) p.n_fregs
  in
  let map_i, ni =
    scan lv.ints (function Dataflow.R_i r -> r | _ -> -1) p.n_iregs
  in
  let map_p, np =
    scan lv.preds (function Dataflow.R_p r -> r | _ -> -1) p.n_pregs
  in
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
