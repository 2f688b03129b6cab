(* Differential testing of the interpreter, three ways:

   1. Random straight-line programs are executed by Ptx.Interp, by
      Ptx.Interp_ref, and by a direct OCaml evaluation of the same
      operation sequence; all three must agree bit-for-bit. This pins
      the semantics of every ALU operation, predicate logic, guarded
      execution, and shared-memory data flow under randomized
      composition — beyond what the hand-written unit tests cover.

   2. Real generated kernels (GEMM in all three bounds modes, kl/ks
      reduction splits, a kg>1 atomics split, and implicit-GEMM CONV)
      are launched through the decode-per-step reference engine and
      through the bytecode engine at domains=1 and domains=4; output
      buffers must be bitwise identical and all 16 dynamic counters
      exactly equal. This is the contract that lets the bytecode engine
      replace the reference everywhere.

   3. Hand-assembled faulting kernels — including faults and budget
      exhaustion inside every fused bytecode superinstruction — must
      raise byte-identical Trap messages from both engines. *)

open Ptx.Types
module B = Ptx.Builder
module I = Ptx.Instr

(* A program step, interpretable both ways. Register indices are taken
   modulo the current file size. *)
type step =
  | SIadd of int * int
  | SIsub of int * int
  | SImul of int * int
  | SImadi of int * int * int       (* a*imm + b *)
  | SIdivi of int * int             (* a / imm, imm in 1..7 *)
  | SIremi of int * int
  | SImin of int * int
  | SImax of int * int
  | SIandi of int * int
  | SIori of int * int
  | SIshli of int * int             (* shift 0..4 *)
  | SFadd of int * int
  | SFsub of int * int
  | SFmul of int * int
  | SFfma of int * int * int
  | SSetp of int * int * int        (* cmp index, a, b *)
  | SAndp of int * int
  | SNotp of int
  | SGuardedMovf of int * float     (* guarded by last predicate *)
  | SStLdShared of int * int        (* store f[a] to shared slot, load back into new f *)

let n_seed_i = 6
let n_seed_f = 6
let n_preds = 4

let cmps = [| Eq; Ne; Lt; Le; Gt; Ge |]

(* Build the PTX program and the model in lock-step. *)
let run_both steps =
  let b = B.create ~name:"diff" ~dtype:F64 in
  let out_slot = B.buf_param b "OUT" in
  B.set_shared b ~words:8 ~int_words:0;
  (* Seed registers with deterministic values. *)
  let iregs = ref [] and imodel = ref [] in
  let fregs = ref [] and fmodel = ref [] in
  for v = 0 to n_seed_i - 1 do
    let r = B.mov_i b (Iimm ((v * 37) - 55)) in
    iregs := !iregs @ [ r ];
    imodel := !imodel @ [ (v * 37) - 55 ]
  done;
  for v = 0 to n_seed_f - 1 do
    let r = B.mov_f b (Fimm (float_of_int v *. 0.75 -. 2.0)) in
    fregs := !fregs @ [ r ];
    fmodel := !fmodel @ [ (float_of_int v *. 0.75) -. 2.0 ]
  done;
  let preds = Array.init n_preds (fun _ -> B.fresh_p b) in
  let pmodel = Array.make n_preds false in
  let last_pred = ref 0 in
  let pick l i = List.nth l (i mod List.length l) in
  let push_i r v =
    iregs := !iregs @ [ r ];
    imodel := !imodel @ [ v ]
  in
  let push_f r v =
    fregs := !fregs @ [ r ];
    fmodel := !fmodel @ [ v ]
  in
  List.iter
    (fun step ->
      let ia i = pick !iregs i and iv i = pick !imodel i in
      let fa i = pick !fregs i and fv i = pick !fmodel i in
      match step with
      | SIadd (x, y) -> push_i (B.add_i b (Ireg (ia x)) (Ireg (ia y))) (iv x + iv y)
      | SIsub (x, y) -> push_i (B.sub_i b (Ireg (ia x)) (Ireg (ia y))) (iv x - iv y)
      | SImul (x, y) -> push_i (B.mul_i b (Ireg (ia x)) (Ireg (ia y))) (iv x * iv y)
      | SImadi (x, m, y) ->
        let m = (m mod 5) + 1 in
        push_i (B.mad_i b (Ireg (ia x)) (Iimm m) (Ireg (ia y))) ((iv x * m) + iv y)
      | SIdivi (x, d) ->
        let d = (abs d mod 7) + 1 in
        push_i (B.div_i b (Ireg (ia x)) (Iimm d)) (iv x / d)
      | SIremi (x, d) ->
        let d = (abs d mod 7) + 1 in
        push_i (B.rem_i b (Ireg (ia x)) (Iimm d)) (iv x mod d)
      | SImin (x, y) -> push_i (B.min_i b (Ireg (ia x)) (Ireg (ia y))) (min (iv x) (iv y))
      | SImax (x, y) ->
        let d = B.fresh_i b in
        B.emit b (I.Imax (d, Ireg (ia x), Ireg (ia y)));
        push_i d (max (iv x) (iv y))
      | SIandi (x, m) ->
        let d = B.fresh_i b in
        let m = abs m land 0xFFFF in
        B.emit b (I.Iand (d, Ireg (ia x), Iimm m));
        push_i d (iv x land m)
      | SIori (x, m) ->
        let d = B.fresh_i b in
        let m = abs m land 0xFFFF in
        B.emit b (I.Ior (d, Ireg (ia x), Iimm m));
        push_i d (iv x lor m)
      | SIshli (x, k) ->
        let d = B.fresh_i b in
        let k = abs k mod 5 in
        B.emit b (I.Ishl (d, Ireg (ia x), Iimm k));
        push_i d (iv x lsl k)
      | SFadd (x, y) ->
        let d = B.fresh_f b in
        B.emit b (I.Fadd (d, Freg (fa x), Freg (fa y)));
        push_f d (fv x +. fv y)
      | SFsub (x, y) ->
        let d = B.fresh_f b in
        B.emit b (I.Fsub (d, Freg (fa x), Freg (fa y)));
        push_f d (fv x -. fv y)
      | SFmul (x, y) ->
        let d = B.fresh_f b in
        B.emit b (I.Fmul (d, Freg (fa x), Freg (fa y)));
        push_f d (fv x *. fv y)
      | SFfma (x, y, z) ->
        let d = B.fresh_f b in
        B.emit b (I.Ffma (d, Freg (fa x), Freg (fa y), Freg (fa z)));
        push_f d ((fv x *. fv y) +. fv z)
      | SSetp (c, x, y) ->
        let c = c mod Array.length cmps in
        let p = (x + y) mod n_preds in
        B.emit b (I.Setp (cmps.(c), preds.(p), Ireg (ia x), Ireg (ia y)));
        pmodel.(p) <- eval_cmp cmps.(c) (iv x) (iv y);
        last_pred := p
      | SAndp (x, y) ->
        let px = x mod n_preds and py = y mod n_preds in
        let pd = (x + (2 * y)) mod n_preds in
        B.emit b (I.And_p (preds.(pd), preds.(px), preds.(py)));
        pmodel.(pd) <- pmodel.(px) && pmodel.(py);
        last_pred := pd
      | SNotp x ->
        let px = x mod n_preds in
        B.emit b (I.Not_p (preds.(px), preds.(px)));
        pmodel.(px) <- not pmodel.(px);
        last_pred := px
      | SGuardedMovf (x, v) ->
        (* Guarded overwrite of an existing float register. *)
        let tgt_pos = x mod List.length !fregs in
        let tgt = List.nth !fregs tgt_pos in
        B.emit b ~guard:(preds.(!last_pred), true) (I.Movf (tgt, Fimm v));
        if pmodel.(!last_pred) then
          fmodel := List.mapi (fun i old -> if i = tgt_pos then v else old) !fmodel
      | SStLdShared (x, slot) ->
        let slot = abs slot mod 8 in
        B.emit b (I.St_shared (Iimm slot, Freg (fa x)));
        let d = B.fresh_f b in
        B.emit b (I.Ld_shared (d, Iimm slot));
        push_f d (fv x))
    steps;
  (* Verify results in-kernel: integer registers are compared against the
     model with equality probes (storing 1.0 on success), float registers
     are stored directly and compared bitwise on the host. *)
  let n_i = List.length !iregs and n_f = List.length !fregs in
  let out_len = n_i + n_f in
  List.iteri
    (fun idx r ->
      let expect = List.nth !imodel idx in
      let p = B.setp b Eq (Ireg r) (Iimm expect) in
      B.emit b ~guard:(p, true) (I.St_global (out_slot, Iimm idx, Fimm 1.0)))
    !iregs;
  List.iteri
    (fun idx r -> B.emit b (I.St_global (out_slot, Iimm (n_i + idx), Freg r)))
    !fregs;
  let program = B.finish b in
  (match Ptx.Program.validate program with
   | Ok () -> ()
   | Error e -> failwith e);
  let out = Array.make out_len 0.0 in
  let c =
    Ptx.Interp.run program ~grid:(1, 1, 1) ~block:(1, 1, 1) ~bufs:[ ("OUT", out) ]
      ~iargs:[]
  in
  (* Cross-check against the decode-per-step reference engine: same
     bits out, same counters. *)
  let out_ref = Array.make out_len 0.0 in
  let c_ref =
    Ptx.Interp_ref.run program ~grid:(1, 1, 1) ~block:(1, 1, 1)
      ~bufs:[ ("OUT", out_ref) ] ~iargs:[]
  in
  (* Check: int probes all 1.0; float slots bitwise-equal to the model
     (shared stores round to f64 = identity here). *)
  let ok = ref (c = c_ref) in
  for idx = 0 to out_len - 1 do
    if Int64.bits_of_float out.(idx) <> Int64.bits_of_float out_ref.(idx) then
      ok := false
  done;
  for idx = 0 to n_i - 1 do
    if out.(idx) <> 1.0 then ok := false
  done;
  List.iteri
    (fun idx v ->
      let got = out.(n_i + idx) in
      if not (got = v || (Float.is_nan got && Float.is_nan v)) then ok := false)
    !fmodel;
  !ok

(* QCheck generator for steps. *)
let step_gen =
  QCheck.Gen.(
    let i2 f = map2 f (int_bound 40) (int_bound 40) in
    let i3 f = map3 f (int_bound 40) (int_bound 40) (int_bound 40) in
    frequency
      [ (3, i2 (fun a b -> SIadd (a, b)));
        (2, i2 (fun a b -> SIsub (a, b)));
        (2, i2 (fun a b -> SImul (a, b)));
        (2, i3 (fun a b c -> SImadi (a, b, c)));
        (1, i2 (fun a b -> SIdivi (a, b)));
        (1, i2 (fun a b -> SIremi (a, b)));
        (1, i2 (fun a b -> SImin (a, b)));
        (1, i2 (fun a b -> SImax (a, b)));
        (1, i2 (fun a b -> SIandi (a, b)));
        (1, i2 (fun a b -> SIori (a, b)));
        (1, i2 (fun a b -> SIshli (a, b)));
        (3, i2 (fun a b -> SFadd (a, b)));
        (2, i2 (fun a b -> SFsub (a, b)));
        (2, i2 (fun a b -> SFmul (a, b)));
        (2, i3 (fun a b c -> SFfma (a, b, c)));
        (2, i3 (fun c a b -> SSetp (c, a, b)));
        (1, i2 (fun a b -> SAndp (a, b)));
        (1, map (fun a -> SNotp a) (int_bound 40));
        (2, map2 (fun a v -> SGuardedMovf (a, float_of_int v *. 0.125))
             (int_bound 40) (int_bound 64));
        (2, i2 (fun a b -> SStLdShared (a, b))) ])

let prop_differential =
  QCheck.Test.make ~name:"interpreter matches direct evaluation" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) step_gen))
    run_both

(* --- generated kernels: reference engine vs bytecode engine ------------- *)

module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params

let quick name f = Alcotest.test_case name `Quick f

(* Bitwise output equality plus exact equality of all 16 counters (the
   counters record contains only ints, so structural equality is it). *)
let check_same name (out_ref, c_ref) (out_got, c_got) =
  Array.iteri
    (fun i v ->
      if Int64.bits_of_float v <> Int64.bits_of_float out_got.(i) then
        Alcotest.failf "%s: output[%d] differs: %h vs %h" name i v out_got.(i))
    out_ref;
  if c_ref <> c_got then
    Alcotest.failf "%s: counters differ:\n  ref: %s\n  got: %s" name
      (Ptx.Interp.summary c_ref) (Ptx.Interp.summary c_got)

(* Launch the same program + inputs through the naive reference and the
   bytecode engine at 1 and 4 domains, and insist all three runs are
   indistinguishable. Fresh output buffers per launch so an atomics
   kernel (kg > 1) accumulates from zero each time. *)
let diff_launch name program ~grid ~block ~bufs ~iargs ~out_len =
  let launch run =
    let out = Array.make out_len 0.0 in
    let c = run (bufs out) in
    (out, c)
  in
  let reference =
    launch (fun bufs -> Ptx.Interp_ref.run program ~grid ~block ~bufs ~iargs)
  in
  List.iter
    (fun domains ->
      let got =
        launch (fun bufs ->
            Ptx.Interp.run ~domains program ~grid ~block ~bufs ~iargs)
      in
      check_same (Printf.sprintf "%s [domains=%d]" name domains) reference got)
    [ 1; 4 ]

let gemm_case ?bounds name (m, n, k) (cfg : GP.config) =
  let input = GP.input m n k in
  if not (GP.structurally_legal input cfg) then
    Alcotest.failf "%s: config not structurally legal" name;
  let program = Codegen.Gemm.generate ?bounds input cfg in
  let grid = Codegen.Gemm.grid input cfg and block = Codegen.Gemm.block cfg in
  let rng = Util.Rng.create (Hashtbl.hash name) in
  let a = Array.init (m * k) (fun _ -> Util.Rng.uniform rng) in
  let b = Array.init (k * n) (fun _ -> Util.Rng.uniform rng) in
  diff_launch name program ~grid ~block
    ~bufs:(fun out -> [ ("A", a); ("B", b); ("C", out) ])
    ~iargs:[ ("M", m); ("N", n); ("K", k) ]
    ~out_len:(m * n)

let base_cfg =
  { GP.ms = 2; ns = 2; ks = 1; ml = 16; nl = 16; u = 8; kl = 1; kg = 1;
    vec = 1; db = 1 }

let test_gemm_diff () =
  (* Exact shape, every bounds mode. *)
  gemm_case "gemm 32^3" (32, 32, 32) base_cfg;
  gemm_case ~bounds:GP.Unchecked "gemm 32^3 unchecked" (32, 32, 32) base_cfg;
  (* Ragged shape: predication and divergent branches both exercised,
     multi-block grid in both x and y. *)
  gemm_case ~bounds:GP.Predicated "gemm 33x17x24 predicated" (33, 17, 24) base_cfg;
  gemm_case ~bounds:GP.Branch "gemm 33x17x24 branch" (33, 17, 24) base_cfg;
  (* Vectorized + double-buffered staging. *)
  gemm_case "gemm 32^3 vec2 db2" (32, 32, 32)
    { base_cfg with ns = 4; vec = 2; db = 2 };
  (* K_L > 1: shared-memory reduction tree; K_S > 1: register chains. *)
  gemm_case "gemm 32^3 kl2" (32, 32, 32) { base_cfg with kl = 2 };
  gemm_case "gemm 33x17x24 ks2" (33, 17, 24) { base_cfg with ks = 2 }

let test_gemm_diff_atomics () =
  (* kg > 1 reduces across the grid with global atomics: the bytecode
     engine must detect this and fall back to serial execution even at
     domains=4, keeping results identical to the reference. *)
  gemm_case "gemm 32^3 kg2 atomics" (32, 32, 32) { base_cfg with kg = 2 }

let conv_case name (i : CP.input) (cfg : GP.config) =
  if not (CP.structurally_legal i cfg) then
    Alcotest.failf "%s: config not structurally legal" name;
  let gi = CP.gemm_input i in
  let program = Codegen.Conv.generate i cfg in
  let lut_row, lut_delta = Codegen.Conv.tables i cfg in
  let rng = Util.Rng.create (Hashtbl.hash name) in
  let image =
    Array.init (i.n * i.c * CP.h i * CP.w i) (fun _ -> Util.Rng.uniform rng)
  in
  let filter = Array.init (CP.crs i * i.k) (fun _ -> Util.Rng.uniform rng) in
  let padded = Codegen.Conv.pad_image i image in
  let ceil_div a b = (a + b - 1) / b in
  let grid = (ceil_div gi.m cfg.ml, ceil_div gi.n cfg.nl, cfg.kg) in
  let block = (GP.threads_per_block cfg, 1, 1) in
  diff_launch name program ~grid ~block
    ~bufs:(fun out ->
      [ ("A", padded); ("B", filter); ("C", out); ("LUT_ROW", lut_row);
        ("LUT_DELTA", lut_delta) ])
    ~iargs:[ ("M", gi.m); ("N", gi.n); ("K", gi.k) ]
    ~out_len:(CP.npq i * i.k)

let test_conv_diff () =
  (* Padded 3x3 conv: the gather kernel indirects every A load through
     the LUTs. *)
  conv_case "conv 5x5 pad1"
    (CP.input ~pad:1 ~n:1 ~c:2 ~k:4 ~p:5 ~q:5 ~r:3 ~s:3 ())
    base_cfg;
  (* Strided, multi-image, multi-block. *)
  conv_case "conv stride2"
    (CP.input ~stride:2 ~n:2 ~c:3 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 ())
    base_cfg

(* --- trap messages: reference engine vs bytecode engine ----------------- *)

(* A hand-assembled kernel over one 4-word buffer [C] and 8 shared
   words. Built as a raw record rather than through [Program.validate],
   so the undefined-label case can exist at all. *)
let raw_program name body =
  { Ptx.Program.name; dtype = F32; buf_params = [| "C" |]; int_params = [||];
    shared_words = 8; shared_int_words = 0; body = Array.of_list body;
    n_fregs = 8; n_iregs = 8; n_pregs = 2 }

let u = I.mk

let trap_message f =
  match f () with
  | (_ : Ptx.Interp.counters) -> None
  | exception Ptx.Interp.Trap msg -> Some msg

(* Both engines must trap, with byte-identical messages: the faulting
   pc and label, the operands, and the full counter snapshot. One
   domain, so the bytecode engine's snapshot is the global total. *)
let trap_parity ?max_dynamic ?(block = (1, 1, 1))
    ?(bufs = fun () -> [ ("C", Array.make 4 0.0) ]) name body =
  let program = raw_program name body in
  let grid = (1, 1, 1) in
  let want =
    trap_message (fun () ->
        Ptx.Interp_ref.run ?max_dynamic program ~grid ~block ~bufs:(bufs ())
          ~iargs:[])
  and got =
    trap_message (fun () ->
        Ptx.Interp.run ?max_dynamic ~domains:1 program ~grid ~block
          ~bufs:(bufs ()) ~iargs:[])
  in
  match (want, got) with
  | None, _ -> Alcotest.failf "%s: reference did not trap" name
  | Some w, Some g when String.equal w g -> ()
  | Some w, g ->
    Alcotest.failf "%s: trap messages differ:\n  ref: %s\n  got: %s" name w
      (Option.value g ~default:"(no trap)")

let test_trap_parity () =
  trap_parity "oob global store"
    [ u (I.St_global (0, Iimm 100, Fimm 1.0)); u I.Ret ];
  trap_parity "oob shared store after a label"
    [ u (I.Label "body"); u (I.Mov (0, Iimm 0));
      u (I.St_shared (Iimm 9, Fimm 1.0)); u I.Ret ];
  trap_parity "division by zero"
    [ u (I.Mov (0, Iimm 7)); u (I.Mov (1, Iimm 0));
      u (I.Idiv (2, Ireg 0, Ireg 1)); u I.Ret ];
  trap_parity ~max_dynamic:1000 "budget exhaustion"
    [ u (I.Label "top"); u (I.Bra "top") ];
  trap_parity ~block:(2, 1, 1) "barrier divergence"
    [ u (I.Mov (0, Ispecial Tid_x)); u (I.Setp (Eq, 0, Ireg 0, Iimm 0));
      I.mk ~guard:(0, true) (I.Bra "skip"); u I.Bar; u (I.Label "skip");
      u I.Ret ];
  trap_parity ~bufs:(fun () -> []) "missing buffer" [ u I.Ret ];
  trap_parity "undefined label"
    [ u (I.Mov (0, Iimm 1)); u (I.Bra "nowhere"); u I.Ret ];
  trap_parity "fell off end" [ u (I.Mov (0, Iimm 1)) ];
  (* Fused superinstructions: each body below lowers to exactly the named
     fusion (the instruction before it is a [Mov], which fuses with
     nothing), and the fault or the budget's last permit falls on an
     inner component, not the fused instruction's first word. *)
  trap_parity "oob shared load in lds_add"
    [ u (I.Mov (0, Iimm 100)); u (I.Ld_shared (0, Ireg 0));
      u (I.Iadd (1, Ireg 1, Iimm 4)); u I.Ret ];
  trap_parity "oob shared load in add_lds"
    [ u (I.Mov (0, Iimm 96)); u (I.Iadd (0, Ireg 0, Iimm 4));
      u (I.Ld_shared (0, Ireg 0)); u I.Ret ];
  trap_parity "oob shared load in mad_lds"
    [ u (I.Mov (0, Iimm 10)); u (I.Mov (1, Iimm 3));
      u (I.Imad (2, Ireg 0, Iimm 10, Ireg 1)); u (I.Ld_shared (0, Ireg 2));
      u I.Ret ];
  trap_parity "oob second shared load in add_lds_add_lds"
    [ u (I.Mov (0, Iimm 0)); u (I.Iadd (0, Ireg 0, Iimm 1));
      u (I.Ld_shared (0, Ireg 0)); u (I.Iadd (0, Ireg 0, Iimm 100));
      u (I.Ld_shared (1, Ireg 0)); u I.Ret ];
  trap_parity "oob first shared load in mad_lds_add_lds"
    [ u (I.Mov (0, Iimm 10)); u (I.Mov (1, Iimm 0));
      u (I.Imad (2, Ireg 0, Iimm 10, Ireg 1)); u (I.Ld_shared (0, Ireg 2));
      u (I.Iadd (2, Ireg 2, Iimm 1)); u (I.Ld_shared (1, Ireg 2)); u I.Ret ];
  (* Three permits: the Mov, then the quad's iadd and first load; its
     second iadd finds the pool dry. *)
  trap_parity ~max_dynamic:4 "budget exhaustion inside a quad"
    [ u (I.Mov (0, Iimm 0)); u (I.Iadd (0, Ireg 0, Iimm 1));
      u (I.Ld_shared (0, Ireg 0)); u (I.Iadd (0, Ireg 0, Iimm 1));
      u (I.Ld_shared (1, Ireg 0)); u I.Ret ];
  (* Two permits for a run of four FFMAs: the run must fall back to
     per-FFMA charging and trap on the third. *)
  trap_parity ~max_dynamic:3 "budget exhaustion inside an FFMA run"
    [ u (I.Ffma (1, Freg 0, Freg 0, Freg 0));
      u (I.Ffma (2, Freg 1, Freg 1, Freg 1));
      u (I.Ffma (3, Freg 2, Freg 2, Freg 2));
      u (I.Ffma (4, Freg 3, Freg 3, Freg 3)); u I.Ret ]

let () =
  Alcotest.run "interp-diff"
    [ ("differential", [ QCheck_alcotest.to_alcotest prop_differential ]);
      ( "kernels",
        [ quick "gemm: ref vs compiled, serial and 4 domains" test_gemm_diff;
          quick "gemm kg>1: atomics force serial fallback" test_gemm_diff_atomics;
          quick "conv: ref vs compiled, serial and 4 domains" test_conv_diff ] );
      ("traps", [ quick "messages match reference (15 cases)" test_trap_parity ])
    ]
