(* Tests for liveness analysis and linear-scan register allocation:
   pressure bounds, allocation compactness, semantic preservation under
   the interpreter on full generated GEMM kernels, agreement with the
   cost model's register estimates, a guarded [ret] that must fall
   through, and the liveness pass against a naive reference on random
   programs. *)

module GP = Codegen.Gemm_params
let quick name f = Alcotest.test_case name `Quick f
let rng = Util.Rng.create 555

let cfg ?(ms = 2) ?(ns = 2) ?(ks = 1) ?(ml = 16) ?(nl = 16) ?(u = 8) ?(kl = 1)
    ?(kg = 1) ?(vec = 1) ?(db = 1) () =
  { GP.ms; ns; ks; ml; nl; u; kl; kg; vec; db }

let gemm_program i c = Codegen.Gemm.generate i c

let test_pressure_below_virtual () =
  let p = gemm_program (GP.input 33 29 41) (cfg ()) in
  let pr = Ptx.Liveness.pressure p in
  Alcotest.(check bool) "fregs" true (pr.fregs <= p.n_fregs);
  Alcotest.(check bool) "iregs" true (pr.iregs <= p.n_iregs);
  Alcotest.(check bool) "pregs" true (pr.pregs <= p.n_pregs);
  Alcotest.(check bool) "nontrivial program" true (p.n_iregs > 50);
  (* The generator emits fresh registers per unrolled step; a real
     allocator collapses them by an order of magnitude. *)
  Alcotest.(check bool) "massive compaction" true (pr.iregs * 4 < p.n_iregs)

let test_allocate_validates_and_compacts () =
  let p = gemm_program (GP.input 20 24 37) (cfg ~ks:2 ~kl:2 ~kg:2 ~u:8 ()) in
  let q = Ptx.Regalloc.allocate p in
  (match Ptx.Program.validate q with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let pr = Ptx.Liveness.pressure p in
  Alcotest.(check bool) "alloc >= pressure" true
    (q.n_fregs >= pr.fregs && q.n_iregs >= pr.iregs && q.n_pregs >= pr.pregs);
  Alcotest.(check bool) "alloc far below virtual" true (q.n_iregs * 4 < p.n_iregs)

(* The allocated kernel must compute exactly the same result. *)
let check_equivalence (i : GP.input) c =
  let a = Array.init (i.m * i.k) (fun _ -> Util.Rng.uniform rng -. 0.5) in
  let b = Array.init (i.k * i.n) (fun _ -> Util.Rng.uniform rng -. 0.5) in
  let run program =
    let out = Array.make (i.m * i.n) 0.0 in
    let (_ : Ptx.Interp.counters) =
      Ptx.Interp.run program
        ~grid:(Codegen.Gemm.grid i c)
        ~block:(Codegen.Gemm.block c)
        ~bufs:[ ("A", a); ("B", b); ("C", out) ]
        ~iargs:[ ("M", i.m); ("N", i.n); ("K", i.k) ]
    in
    out
  in
  let p = gemm_program i c in
  let original = run p in
  let allocated = run (Ptx.Regalloc.allocate p) in
  Array.iteri
    (fun idx v ->
      if v <> original.(idx) then
        Alcotest.failf "allocation changed semantics at %d: %g vs %g" idx v
          original.(idx))
    allocated

let test_equivalence_basic () = check_equivalence (GP.input 33 29 41) (cfg ())

let test_equivalence_splits () =
  check_equivalence (GP.input 24 24 160) (cfg ~ks:2 ~kl:2 ~kg:2 ~u:8 ())

let test_equivalence_transposed () =
  check_equivalence (GP.input ~a_trans:true ~b_trans:true 20 18 25) (cfg ())

let test_equivalence_branch_bounds () =
  let i = GP.input 17 23 29 in
  let c = cfg () in
  let a = Array.init (i.m * i.k) (fun _ -> Util.Rng.uniform rng) in
  let b = Array.init (i.k * i.n) (fun _ -> Util.Rng.uniform rng) in
  let p = Codegen.Gemm.generate ~bounds:GP.Branch i c in
  let run program =
    let out = Array.make (i.m * i.n) 0.0 in
    let (_ : Ptx.Interp.counters) =
      Ptx.Interp.run program ~grid:(Codegen.Gemm.grid i c)
        ~block:(Codegen.Gemm.block c)
        ~bufs:[ ("A", a); ("B", b); ("C", out) ]
        ~iargs:[ ("M", i.m); ("N", i.n); ("K", i.k) ]
    in
    out
  in
  Alcotest.(check bool) "divergent kernel preserved" true
    (run p = run (Ptx.Regalloc.allocate p))

(* Accumulators dominate float pressure: for an ms x ns x ks thread tile
   the measured MaxLive must be at least ms*ns*ks (the accumulators are
   live across the whole main loop) and in the same ballpark as the cost
   model's estimate. *)
let test_pressure_tracks_accumulators () =
  List.iter
    (fun (ms, ns, ks) ->
      let c = cfg ~ms ~ns ~ks ~ml:(ms * 8) ~nl:(ns * 8) () in
      let i = GP.input 64 64 64 in
      if GP.structurally_legal i c then begin
        let pr = Ptx.Liveness.pressure (gemm_program i c) in
        let acc = ms * ns * ks in
        Alcotest.(check bool)
          (Printf.sprintf "%dx%dx%d >= acc" ms ns ks)
          true (pr.fregs >= acc);
        Alcotest.(check bool)
          (Printf.sprintf "%dx%dx%d within estimate ballpark" ms ns ks)
          true
          (pr.fregs + pr.iregs <= 2 * GP.regs_estimate i c + 16)
      end)
    [ (1, 1, 1); (2, 2, 1); (2, 2, 4); (4, 4, 1); (8, 8, 1) ]

let test_idempotent_pressure () =
  (* Allocating twice changes nothing further. *)
  let p = gemm_program (GP.input 24 24 40) (cfg ~kl:2 ()) in
  let q = Ptx.Regalloc.allocate p in
  let r = Ptx.Regalloc.allocate q in
  Alcotest.(check bool) "second allocation is stable" true
    (r.n_fregs <= q.n_fregs && r.n_iregs <= q.n_iregs && r.n_pregs <= q.n_pregs)

(* Exact allocator output on 46 seeded kernels: GEMM and CONV, both
   bounds modes, every dtype (fp16 with vec = 2 among them), K splits
   at every level and transposed layouts. Per kernel, the FNV-1a hash
   of the packed encoding of [allocate p] pins the register assignment
   itself, and the [pressure] triple pins MaxLive per class. The values
   were recorded before liveness moved to word bitsets; any change to
   liveness, interval construction or linear-scan order shows up here
   by name. *)
module CP = Codegen.Conv_params

type kernel = Gemm of GP.input | Conv of CP.input

let f16, f32, f64 = Ptx.Types.(F16, F32, F64)

let gemm dtype ~at ~bt m n k =
  Gemm (GP.input ~dtype ~a_trans:at ~b_trans:bt m n k)

let conv dtype ~stride ~pad n c k p q r s =
  Conv (CP.input ~dtype ~stride ~pad ~n ~c ~k ~p ~q ~r ~s ())

let pinned =
  [ (gemm f32 ~at:false ~bt:false 512 512 512, GP.Predicated,
     [| 2; 8; 4; 16; 8; 16; 4; 1; 1; 2 |], "c63b3037d65be865", (75, 12, 3));
    (gemm f32 ~at:false ~bt:false 512 512 512, GP.Predicated,
     [| 1; 8; 4; 64; 32; 32; 2; 1; 1; 1 |], "356d6f530cfeded9", (42, 12, 3));
    (gemm f32 ~at:false ~bt:false 512 512 512, GP.Predicated,
     [| 4; 8; 2; 16; 128; 8; 1; 16; 2; 2 |], "f6ef5bcdaffcdc17", (76, 12, 2));
    (gemm f32 ~at:false ~bt:false 512 512 512, GP.Branch,
     [| 2; 8; 1; 128; 128; 8; 1; 32; 1; 1 |], "e67f939b85555c1b", (26, 12, 2));
    (gemm f32 ~at:false ~bt:false 512 512 512, GP.Branch,
     [| 8; 2; 2; 8; 16; 16; 8; 16; 1; 2 |], "9b0f0c6c2f69e0d2", (43, 12, 3));
    (gemm f32 ~at:false ~bt:false 512 512 512, GP.Branch,
     [| 8; 2; 1; 32; 16; 32; 1; 8; 4; 2 |], "50a5efdf31d13ab2", (26, 12, 2));
    (gemm f32 ~at:true ~bt:false 2560 16 2560, GP.Predicated,
     [| 8; 4; 1; 64; 128; 4; 1; 8; 1; 1 |], "bc3bb0dc3cee52fd", (44, 12, 2));
    (gemm f32 ~at:true ~bt:false 2560 16 2560, GP.Predicated,
     [| 4; 4; 2; 8; 64; 32; 4; 4; 2; 1 |], "ef8ed1d5d1b92eb7", (41, 12, 3));
    (gemm f32 ~at:true ~bt:false 2560 16 2560, GP.Predicated,
     [| 4; 8; 1; 128; 8; 16; 1; 16; 1; 2 |], "8cc1c20997241d1d", (44, 12, 2));
    (gemm f32 ~at:true ~bt:false 2560 16 2560, GP.Branch,
     [| 4; 4; 2; 32; 16; 4; 1; 2; 1; 1 |], "9dfa2df1ca3fd8cc", (40, 12, 2));
    (gemm f32 ~at:true ~bt:false 2560 16 2560, GP.Branch,
     [| 8; 4; 4; 128; 16; 16; 2; 64; 1; 2 |], "64b2ef0e2546751d", (141, 12, 3));
    (gemm f32 ~at:true ~bt:false 2560 16 2560, GP.Branch,
     [| 4; 8; 4; 32; 64; 4; 1; 4; 2; 1 |], "43dd779d81e3d348", (140, 12, 2));
    (gemm f16 ~at:false ~bt:true 1024 64 512, GP.Predicated,
     [| 4; 4; 1; 64; 64; 8; 1; 16; 2; 1 |], "4bc32937657c6753", (24, 12, 2));
    (gemm f16 ~at:false ~bt:true 1024 64 512, GP.Predicated,
     [| 8; 4; 4; 16; 128; 32; 2; 8; 1; 2 |], "1181b728db3e2e16", (141, 12, 3));
    (gemm f16 ~at:false ~bt:true 1024 64 512, GP.Predicated,
     [| 4; 8; 1; 32; 128; 32; 2; 2; 1; 2 |], "4d3f6c6acac74e2a", (45, 12, 3));
    (gemm f16 ~at:false ~bt:true 1024 64 512, GP.Branch,
     [| 8; 2; 1; 16; 32; 16; 4; 4; 2; 2 |], "dafd13886420c812", (27, 12, 3));
    (gemm f16 ~at:false ~bt:true 1024 64 512, GP.Branch,
     [| 4; 4; 2; 8; 16; 32; 4; 16; 4; 1 |], "9df9de3e03a5fde6", (41, 12, 3));
    (gemm f16 ~at:false ~bt:true 1024 64 512, GP.Branch,
     [| 8; 4; 1; 128; 32; 32; 1; 2; 4; 2 |], "d7758d569e4f3ea9", (44, 12, 2));
    (gemm f64 ~at:false ~bt:false 256 256 256, GP.Predicated,
     [| 8; 4; 2; 64; 8; 32; 8; 4; 2; 1 |], "f24e366919184356", (77, 12, 3));
    (gemm f64 ~at:false ~bt:false 256 256 256, GP.Predicated,
     [| 4; 1; 2; 32; 16; 16; 2; 8; 1; 2 |], "b624a4a90ee9219c", (14, 12, 3));
    (gemm f64 ~at:false ~bt:false 256 256 256, GP.Branch,
     [| 4; 8; 1; 32; 32; 4; 1; 16; 4; 2 |], "a92d3bfbde66f89f", (44, 12, 2));
    (gemm f64 ~at:false ~bt:false 256 256 256, GP.Branch,
     [| 8; 4; 2; 16; 32; 16; 2; 16; 4; 1 |], "5b0b94e254e4d3ba", (77, 12, 3));
    (gemm f32 ~at:true ~bt:true 35 29 1000, GP.Predicated,
     [| 8; 2; 1; 8; 8; 8; 8; 2; 2; 2 |], "2e4cd8690eb30e3f", (27, 12, 3));
    (gemm f32 ~at:true ~bt:true 35 29 1000, GP.Predicated,
     [| 8; 8; 2; 16; 64; 8; 4; 64; 2; 1 |], "9c919e0d64d70aea", (145, 12, 3));
    (gemm f32 ~at:true ~bt:true 35 29 1000, GP.Predicated,
     [| 4; 2; 2; 8; 16; 8; 4; 32; 1; 2 |], "8a34986a2793ea49", (23, 12, 3));
    (gemm f32 ~at:true ~bt:true 35 29 1000, GP.Branch,
     [| 4; 8; 1; 64; 16; 16; 4; 2; 2; 2 |], "b2268519b33999de", (45, 12, 3));
    (gemm f32 ~at:true ~bt:true 35 29 1000, GP.Branch,
     [| 8; 4; 2; 32; 8; 32; 4; 16; 1; 1 |], "161af641bd6d309d", (77, 12, 3));
    (gemm f32 ~at:true ~bt:true 35 29 1000, GP.Branch,
     [| 8; 2; 1; 32; 8; 32; 8; 16; 1; 2 |], "734c2a22a7ce0baf", (27, 12, 3));
    (gemm f16 ~at:false ~bt:false 100 70 300, GP.Predicated,
     [| 8; 8; 2; 32; 64; 8; 1; 4; 2; 2 |], "199bc2f3eda2a714", (144, 12, 2));
    (gemm f16 ~at:false ~bt:false 100 70 300, GP.Predicated,
     [| 2; 8; 2; 64; 32; 16; 2; 16; 1; 2 |], "c6194852c3a4ff3a", (43, 12, 3));
    (gemm f16 ~at:false ~bt:false 100 70 300, GP.Branch,
     [| 4; 8; 4; 64; 32; 32; 4; 1; 2; 1 |], "058eb5700b4c5cbc", (141, 12, 3));
    (gemm f16 ~at:false ~bt:false 100 70 300, GP.Branch,
     [| 2; 8; 4; 128; 32; 32; 2; 2; 2; 2 |], "595182cc0922d4fc", (75, 12, 3));
    (conv f32 ~stride:1 ~pad:0 2 16 32 8 8 3 3, GP.Predicated,
     [| 8; 2; 2; 32; 8; 16; 2; 8; 2; 2 |], "935d171fac17ae55", (43, 12, 3));
    (conv f32 ~stride:1 ~pad:0 2 16 32 8 8 3 3, GP.Predicated,
     [| 4; 8; 2; 8; 128; 16; 2; 8; 1; 1 |], "03d2d8b7e31ccbfe", (77, 12, 3));
    (conv f32 ~stride:1 ~pad:0 2 16 32 8 8 3 3, GP.Predicated,
     [| 4; 8; 4; 64; 64; 32; 2; 2; 4; 1 |], "57a571755e11c629", (141, 12, 3));
    (conv f32 ~stride:1 ~pad:0 2 16 32 8 8 3 3, GP.Branch,
     [| 4; 8; 4; 8; 128; 4; 1; 2; 1; 2 |], "5057e4dd75c31bb0", (140, 12, 2));
    (conv f32 ~stride:1 ~pad:0 2 16 32 8 8 3 3, GP.Branch,
     [| 2; 8; 2; 16; 32; 32; 4; 4; 4; 1 |], "9cf79503788d8d77", (43, 12, 3));
    (conv f32 ~stride:1 ~pad:0 2 16 32 8 8 3 3, GP.Branch,
     [| 4; 8; 1; 16; 64; 16; 2; 4; 4; 2 |], "6e0f119c13c12463", (45, 12, 3));
    (conv f16 ~stride:2 ~pad:2 1 3 64 28 28 5 5, GP.Predicated,
     [| 8; 8; 1; 64; 32; 16; 2; 1; 2; 1 |], "f5b9449971bad46e", (81, 12, 3));
    (conv f16 ~stride:2 ~pad:2 1 3 64 28 28 5 5, GP.Predicated,
     [| 4; 4; 2; 32; 64; 32; 2; 2; 4; 1 |], "5d5c46db460d7b73", (41, 12, 3));
    (conv f16 ~stride:2 ~pad:2 1 3 64 28 28 5 5, GP.Branch,
     [| 8; 8; 1; 8; 64; 32; 4; 2; 2; 1 |], "78708410cf04d690", (81, 12, 3));
    (conv f16 ~stride:2 ~pad:2 1 3 64 28 28 5 5, GP.Branch,
     [| 8; 1; 2; 64; 8; 32; 2; 2; 2; 1 |], "487c668bba1d643a", (26, 12, 3));
    (conv f32 ~stride:1 ~pad:1 8 64 64 14 14 3 3, GP.Predicated,
     [| 2; 2; 2; 16; 16; 4; 1; 16; 1; 1 |], "5d9827c6ed702d5f", (12, 12, 2));
    (conv f32 ~stride:1 ~pad:1 8 64 64 14 14 3 3, GP.Predicated,
     [| 2; 8; 2; 64; 8; 32; 4; 16; 1; 1 |], "1bee6c526731077c", (43, 12, 3));
    (conv f32 ~stride:1 ~pad:1 8 64 64 14 14 3 3, GP.Branch,
     [| 2; 2; 2; 16; 8; 4; 1; 8; 1; 1 |], "adbeb4b260706e18", (12, 12, 2));
    (conv f32 ~stride:1 ~pad:1 8 64 64 14 14 3 3, GP.Branch,
     [| 1; 8; 1; 8; 8; 8; 4; 2; 1; 2 |], "25d6ae798ba2c361", (18, 12, 3)) ]

let test_pinned_output () =
  List.iter
    (fun (kernel, bounds, config, hash, (fregs, iregs, pregs)) ->
      let c = GP.config_of_array config in
      let p, name =
        match kernel with
        | Gemm i -> (Codegen.Gemm.generate ~bounds i c, GP.describe_name i c)
        | Conv i -> (Codegen.Conv.generate ~bounds i c, "conv " ^ GP.describe c)
      in
      let name =
        Printf.sprintf "%s (%s)" name
          (if bounds = GP.Branch then "branch" else "predicated")
      in
      (match Ptx.Encode.encode (Ptx.Regalloc.allocate p) with
       | Error e -> Alcotest.failf "%s: %s" name e
       | Ok e ->
         Alcotest.(check string) (name ^ ": kernel hash") hash
           (Ptx.Encode.hash_hex (Ptx.Encode.hash e)));
      let pr = Ptx.Liveness.pressure p in
      Alcotest.(check (triple int int int)) (name ^ ": pressure")
        (fregs, iregs, pregs) (pr.fregs, pr.iregs, pr.pregs))
    pinned

(* --- liveness at a guarded ret ------------------------------------------ *)

module I = Ptx.Instr

(* A guarded [ret] falls through when its guard is false. Here it never
   fires, at the head of a 3-trip loop whose body reads f0, set before
   the loop: f0 stays live around the whole loop, so f2, written later
   in the body, must not take f0's register. *)
let test_guarded_ret_falls_through () =
  let open Ptx.Types in
  let p =
    { Ptx.Program.name = "guarded_ret";
      dtype = F32;
      buf_params = [| "C" |];
      int_params = [||];
      shared_words = 0;
      shared_int_words = 0;
      body =
        [| I.mk (I.Mov (0, Iimm 0));
           I.mk (I.Setp (Ne, 0, Iimm 0, Iimm 0)) (* p0: always false *);
           I.mk (I.Movf (0, Fimm 1.0));
           I.mk (I.Movf (1, Fimm 0.0));
           I.mk (I.Movf (3, Fimm 0.0));
           I.mk (I.Label "loop");
           I.mk ~guard:(0, true) I.Ret;
           I.mk (I.Fadd (1, Freg 1, Freg 0));
           I.mk (I.Movf (2, Fimm 7.0));
           I.mk (I.Fadd (3, Freg 3, Freg 2));
           I.mk (I.Iadd (0, Ireg 0, Iimm 1));
           I.mk (I.Setp (Lt, 1, Ireg 0, Iimm 3));
           I.mk ~guard:(1, true) (I.Bra "loop");
           I.mk (I.St_global (0, Iimm 0, Freg 1));
           I.mk (I.St_global (0, Iimm 1, Freg 3));
           I.mk I.Ret |];
      n_fregs = 4;
      n_iregs = 1;
      n_pregs = 2 }
  in
  let run program =
    let c = Array.make 2 0.0 in
    let (_ : Ptx.Interp.counters) =
      Ptx.Interp.run program ~grid:(1, 1, 1) ~block:(1, 1, 1)
        ~bufs:[ ("C", c) ] ~iargs:[]
    in
    c
  in
  Alcotest.(check (array (float 0.0))) "original" [| 3.0; 21.0 |] (run p);
  Alcotest.(check (array (float 0.0))) "allocated" [| 3.0; 21.0 |]
    (run (Ptx.Regalloc.allocate p));
  Alcotest.(check int) "live floats" 4 (Ptx.Liveness.pressure p).fregs

(* --- liveness against a naive reference on random programs ------------- *)

(* Live-in and live-out sets of every pc: per-pc [bool array]s over the
   integer, then float, then predicate registers, successors read
   straight off the body, iterated to a fixpoint. A guarded definition
   also reads its destination. *)
let reference_liveness (p : Ptx.Program.t) =
  let n = Array.length p.body in
  let ni = p.n_iregs and nf = p.n_fregs in
  let nregs = ni + nf + p.n_pregs in
  let idx = function
    | Ptx.Dataflow.R_i r -> r
    | R_f r -> ni + r
    | R_p r -> ni + nf + r
  in
  let labels = Ptx.Program.find_labels p in
  let succs pc =
    let next = if pc + 1 < n then [ pc + 1 ] else [] in
    match p.body.(pc) with
    | { I.op = Bra l; guard = None } -> [ Hashtbl.find labels l ]
    | { op = Bra l; guard = Some _ } -> Hashtbl.find labels l :: next
    | { op = Ret; guard = None } -> []
    | _ -> next (* a guarded ret falls through when its guard is false *)
  in
  let live_in = Array.init n (fun _ -> Array.make nregs false) in
  let live_out pc =
    let out = Array.make nregs false in
    List.iter
      (fun s -> Array.iteri (fun r l -> if l then out.(r) <- true) live_in.(s))
      (succs pc);
    out
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = n - 1 downto 0 do
      let uses, defs = Ptx.Dataflow.uses_defs p.body.(pc) in
      let uses = if p.body.(pc).guard = None then uses else defs @ uses in
      let live = live_out pc in
      List.iter (fun r -> live.(idx r) <- false) defs;
      List.iter (fun r -> live.(idx r) <- true) uses;
      if live <> live_in.(pc) then begin
        live_in.(pc) <- live;
        changed := true
      end
    done
  done;
  (live_in, Array.init n live_out, idx)

let test_liveness_matches_reference () =
  let st = Random.State.make [| 31 |] in
  let guarded_rets = ref 0 and unreachable = ref 0 in
  for _ = 1 to 2000 do
    let p = Random_program.gen_with_exits st in
    let cfg =
      match Ptx.Cfg.build p with Ok cfg -> cfg | Error e -> Alcotest.fail e
    in
    if Array.exists (fun (i : I.t) -> i.op = Ret && i.guard <> None) p.body
    then incr guarded_rets;
    if Array.mem false (Ptx.Cfg.reachable cfg) then incr unreachable;
    let lv = Ptx.Liveness.analyse p cfg in
    let live_in, live_out, idx = reference_liveness p in
    let regs =
      List.init p.n_iregs (fun r -> Ptx.Dataflow.R_i r)
      @ List.init p.n_fregs (fun r -> Ptx.Dataflow.R_f r)
      @ List.init p.n_pregs (fun r -> Ptx.Dataflow.R_p r)
    in
    let check what pass reference pc reg =
      if pass lv pc reg <> reference.(pc).(idx reg) then
        Alcotest.failf "%s of %s at pc %d: pass %b, reference %b in\n%s" what
          (Ptx.Dataflow.pp_reg reg) pc (pass lv pc reg)
          reference.(pc).(idx reg) (Ptx.Disasm.program p)
    in
    Array.iteri
      (fun pc _ ->
        List.iter
          (fun reg ->
            check "live-in" Ptx.Liveness.live_in live_in pc reg;
            check "live-out" Ptx.Liveness.live_out live_out pc reg)
          regs)
      p.body;
    let max_live select =
      Array.fold_left
        (fun best live ->
          max best
            (List.length
               (List.filter (fun reg -> select reg && live.(idx reg)) regs)))
        0 live_in
    in
    let pr = Ptx.Liveness.pressure p in
    Alcotest.(check (triple int int int))
      ("MaxLive of\n" ^ Ptx.Disasm.program p)
      ( max_live (function Ptx.Dataflow.R_f _ -> true | _ -> false),
        max_live (function Ptx.Dataflow.R_i _ -> true | _ -> false),
        max_live (function Ptx.Dataflow.R_p _ -> true | _ -> false) )
      (pr.fregs, pr.iregs, pr.pregs)
  done;
  (* The draw must hold both exits the generator inserts. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d of 2000 with a guarded ret" !guarded_rets)
    true (!guarded_rets >= 500);
  Alcotest.(check bool)
    (Printf.sprintf "%d of 2000 with an unreachable block" !unreachable)
    true (!unreachable >= 500)

let () =
  Alcotest.run "regalloc"
    [ ("pressure",
       [ quick "below virtual counts" test_pressure_below_virtual;
         quick "tracks accumulators" test_pressure_tracks_accumulators ]);
      ("allocation",
       [ quick "validates + compacts" test_allocate_validates_and_compacts;
         quick "semantics: basic" test_equivalence_basic;
         quick "semantics: all splits" test_equivalence_splits;
         quick "semantics: transposed" test_equivalence_transposed;
         quick "semantics: divergent branches" test_equivalence_branch_bounds;
         quick "idempotent" test_idempotent_pressure;
         quick "pinned output on 46 kernels" test_pinned_output ]);
      ("liveness",
       [ quick "guarded ret falls through" test_guarded_ret_falls_through;
         quick "random programs match a reference"
           test_liveness_matches_reference ]) ]
