(* Random valid mini-PTX programs, shared by the suites that test the
   packed encoding (test_encode) and liveness (test_regalloc). Registers
   are drawn inside a fixed file. *)

open Ptx.Types
module I = Ptx.Instr

let nf = 8 and ni = 8 and np = 4

(* One instruction of any kind but [Label], [Bra] and [Ret], unguarded
   or under predicate 0 or (negated) 1. *)
let instr : I.t QCheck.Gen.t =
  QCheck.Gen.(
    let ireg = map (fun r -> Ireg r) (int_bound (ni - 1)) in
    let imm =
      frequency
        [ (3, map (fun v -> Iimm (v - 100)) (int_bound 200));
          (1, map (fun v -> Iimm ((v * 7919) - 400_000)) (int_bound 100_000)) ]
    in
    let ioperand =
      frequency
        [ (4, ireg); (2, imm);
          (1, map (fun s -> Iparam (s mod 2)) (int_bound 10));
          (1,
           map
             (fun s ->
               Ispecial
                 [| Tid_x; Tid_y; Tid_z; Ctaid_x; Ctaid_y; Ctaid_z; Ntid_x;
                    Ntid_y; Ntid_z; Nctaid_x; Nctaid_y; Nctaid_z |].(s mod 12))
             (int_bound 11)) ]
    in
    let foperand =
      frequency
        [ (3, map (fun r -> Freg r) (int_bound (nf - 1)));
          (1, map (fun v -> Fimm ((float_of_int v *. 0.37) -. 9.0)) (int_bound 1000)) ]
    in
    let dst_i = int_bound (ni - 1) and dst_f = int_bound (nf - 1) in
    let dst_p = int_bound (np - 1) in
    let cmp = map (fun c -> [| Eq; Ne; Lt; Le; Gt; Ge |].(c mod 6)) (int_bound 5) in
    let op =
      frequency
        [ (3, map2 (fun d a -> I.Mov (d, a)) dst_i ioperand);
          (3, map3 (fun d a b -> I.Iadd (d, a, b)) dst_i ioperand ioperand);
          (2, map3 (fun d a b -> I.Isub (d, a, b)) dst_i ioperand ioperand);
          (2, map3 (fun d a b -> I.Imul (d, a, b)) dst_i ioperand ioperand);
          (1, map3 (fun d a b -> I.Idiv (d, a, b)) dst_i ioperand ioperand);
          (1, map3 (fun d a b -> I.Irem (d, a, b)) dst_i ioperand ioperand);
          (1, map3 (fun d a b -> I.Imin (d, a, b)) dst_i ioperand ioperand);
          (1, map3 (fun d a b -> I.Imax (d, a, b)) dst_i ioperand ioperand);
          (1, map3 (fun d a b -> I.Ishl (d, a, b)) dst_i ioperand ioperand);
          (1, map3 (fun d a b -> I.Ishr (d, a, b)) dst_i ioperand ioperand);
          (1, map3 (fun d a b -> I.Iand (d, a, b)) dst_i ioperand ioperand);
          (1, map3 (fun d a b -> I.Ior (d, a, b)) dst_i ioperand ioperand);
          (2,
           (fun st ->
             I.Imad (dst_i st, ioperand st, ioperand st, ioperand st)));
          (2,
           (fun st -> I.Setp (cmp st, dst_p st, ioperand st, ioperand st)));
          (1, map3 (fun d a b -> I.And_p (d, a, b)) dst_p dst_p dst_p);
          (1, map3 (fun d a b -> I.Or_p (d, a, b)) dst_p dst_p dst_p);
          (1, map2 (fun d a -> I.Not_p (d, a)) dst_p dst_p);
          (2, map2 (fun d a -> I.Movf (d, a)) dst_f foperand);
          (2, map3 (fun d a b -> I.Fadd (d, a, b)) dst_f foperand foperand);
          (1, map3 (fun d a b -> I.Fsub (d, a, b)) dst_f foperand foperand);
          (1, map3 (fun d a b -> I.Fmul (d, a, b)) dst_f foperand foperand);
          (1, map3 (fun d a b -> I.Fmax (d, a, b)) dst_f foperand foperand);
          (1, map3 (fun d a b -> I.Fmin (d, a, b)) dst_f foperand foperand);
          (2,
           (fun st ->
             I.Ffma (dst_f st, foperand st, foperand st, foperand st)));
          (1, map2 (fun d a -> I.Ld_global (d, 0, a)) dst_f ioperand);
          (1, map2 (fun d a -> I.Ld_global_i (d, 0, a)) dst_i ioperand);
          (1, map2 (fun d a -> I.Ld_shared (d, a)) dst_f ioperand);
          (1, map2 (fun d a -> I.Ld_shared_i (d, a)) dst_i ioperand);
          (1, map2 (fun a v -> I.St_global (1, a, v)) ioperand foperand);
          (1, map2 (fun a v -> I.St_shared (a, v)) ioperand foperand);
          (1, map2 (fun a v -> I.St_shared_i (a, v)) ioperand ioperand);
          (1, map2 (fun a v -> I.Atom_global_add (1, a, v)) ioperand foperand);
          (1, return I.Bar) ]
    in
    map2
      (fun g (o : I.op) ->
        match g with
        | 0 -> I.mk o
        | 1 -> I.mk ~guard:(0, true) o
        | _ -> I.mk ~guard:(1, false) o)
      (int_bound 5) op)

(* [l]'s first [k] elements, and the rest. *)
let split k l =
  (List.filteri (fun i _ -> i < k) l, List.filteri (fun i _ -> i >= k) l)

(* [steps], the first [looped] of them inside a loop closed by a
   backward branch under predicate 2, then [ret]. Nothing bounds the
   loop, so these programs are for static checks, not for runs. *)
let program ~looped steps =
  let body, tail = split looped steps in
  let body =
    if body = [] then []
    else (I.mk (I.Label "top") :: body) @ [ I.mk ~guard:(2, true) (I.Bra "top") ]
  in
  { Ptx.Program.name = "rand";
    dtype = F32;
    buf_params = [| "IN"; "OUT" |];
    int_params = [| "M"; "N" |];
    shared_words = 16;
    shared_int_words = 4;
    body = Array.of_list (body @ tail @ [ I.mk I.Ret ]);
    n_fregs = nf;
    n_iregs = ni;
    n_pregs = np }

let steps = QCheck.Gen.(list_size (int_range 1 40) instr)

(* 1 to 40 random instructions, all in the loop or none. *)
let gen : Ptx.Program.t QCheck.Gen.t =
  QCheck.Gen.map2
    (fun steps with_loop ->
      program ~looped:(if with_loop then List.length steps else 0) steps)
    steps QCheck.Gen.bool

(* [gen] with one exit from straight-line flow inserted among the
   steps: either a guarded [ret], which falls through when its guard is
   false, or an unconditional forward [bra] over some of the steps after
   it, which leaves them unreachable. The loop, if any, closes at a
   random step, so the steps after it read what it leaves live. *)
let gen_with_exits : Ptx.Program.t QCheck.Gen.t =
 fun st ->
  let open QCheck.Gen in
  let steps = steps st in
  let with_loop = bool st in
  let before, after = split (int_bound (List.length steps) st) steps in
  let steps =
    if bool st then
      let guard = (int_bound (np - 1) st, bool st) in
      before @ (I.mk ~guard I.Ret :: after)
    else
      let skipped, rest = split (int_bound (List.length after) st) after in
      before @ (I.mk (I.Bra "skip") :: skipped) @ (I.mk (I.Label "skip") :: rest)
  in
  let looped = if with_loop then int_range 1 (List.length steps) st else 0 in
  program ~looped steps
