let word_bits = 63 (* OCaml 5 is 64-bit only: an int holds 63 bits *)

type sets = { width : int; words : int array }

type t = {
  cfg : Cfg.t;
  uses : Dataflow.reg list array;
  defs : Dataflow.reg list array;
  floats : sets;
  ints : sets;
  preds : sets;
}

(* The sets of a register's class, and its index there. *)
let locate t = function
  | Dataflow.R_f r -> (t.floats, r)
  | R_i r -> (t.ints, r)
  | R_p r -> (t.preds, r)

let bit r = 1 lsl (r mod word_bits)

let live_in t pc reg =
  let s, r = locate t reg in
  s.words.((pc * s.width) + (r / word_bits)) land bit r <> 0

let live_out t pc reg =
  let blk = t.cfg.Cfg.blocks.(t.cfg.block_of.(pc)) in
  if pc < blk.last then live_in t (pc + 1) reg
  else List.exists (fun s -> live_in t t.cfg.blocks.(s).first reg) blk.succs

let analyse (p : Program.t) (cfg : Cfg.t) =
  let ud = Array.map Dataflow.uses_defs p.body in
  let defs = Array.map snd ud in
  let uses =
    Array.mapi
      (fun pc (uses, defs) ->
        if p.body.(pc).Instr.guard = None then uses else defs @ uses)
      ud
  in
  let with_rows rows =
    let sets nregs =
      let width = (nregs + word_bits - 1) / word_bits in
      { width; words = Array.make (rows * width) 0 }
    in
    { cfg; uses; defs; floats = sets p.n_fregs; ints = sets p.n_iregs;
      preds = sets p.n_pregs }
  in
  let t = with_rows (Array.length p.body) in
  (* The set a backward walk carries, one row per class. *)
  let live = with_rows 1 in
  let classes t = [ t.floats; t.ints; t.preds ] in
  let set v reg =
    let l, r = locate live reg in
    let j = r / word_bits in
    l.words.(j) <-
      (if v then l.words.(j) lor bit r else l.words.(j) land lnot (bit r))
  in
  (* Walks block [b] backwards from its live-out set, the union of its
     successors' first rows; [f pc] runs with [live] holding the live-in
     set of [pc]. *)
  let walk b f =
    let blk = cfg.blocks.(b) in
    List.iter2
      (fun s l ->
        Array.fill l.words 0 l.width 0;
        List.iter
          (fun succ ->
            let o = cfg.blocks.(succ).first * s.width in
            for j = 0 to s.width - 1 do
              l.words.(j) <- l.words.(j) lor s.words.(o + j)
            done)
          blk.succs)
      (classes t) (classes live);
    for pc = blk.last downto blk.first do
      List.iter (set false) defs.(pc);
      List.iter (set true) uses.(pc);
      f pc
    done
  in
  (* Merges [live] into the row of [pc]; true if the row grew. *)
  let store pc =
    let grew = ref false in
    List.iter2
      (fun s l ->
        for j = 0 to s.width - 1 do
          let o = (pc * s.width) + j in
          let u = s.words.(o) lor l.words.(j) in
          if u <> s.words.(o) then begin
            s.words.(o) <- u;
            grew := true
          end
        done)
      (classes t) (classes live);
    !grew
  in
  (* Block fixpoint on the first row of each block, its live-in set. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for b = Array.length cfg.blocks - 1 downto 0 do
      walk b ignore;
      if store cfg.blocks.(b).first then changed := true
    done
  done;
  Array.iteri (fun b _ -> walk b (fun pc -> ignore (store pc))) cfg.blocks;
  t

type pressure = { fregs : int; iregs : int; pregs : int }

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
  match Cfg.build p with
  | Error msg -> invalid_arg ("Liveness.pressure: " ^ msg)
  | Ok cfg ->
    let t = analyse p cfg in
    { fregs = max_live t.floats; iregs = max_live t.ints;
      pregs = max_live t.preds }
