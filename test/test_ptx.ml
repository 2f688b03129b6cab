(* Tests of the mini-PTX layer: half rounding, program validation,
   interpreter semantics (ALU ops, predication, barriers, shared memory,
   atomics, loops), traps, and the disassembler. *)

open Ptx.Types
module I = Ptx.Instr
module B = Ptx.Builder

let quick name f = Alcotest.test_case name `Quick f

(* --- half-precision rounding ----------------------------------------- *)

let test_round_half_exact () =
  List.iter
    (fun v -> Alcotest.(check (float 0.0)) "exact" v (round_half v))
    [ 0.0; 1.0; -1.0; 0.5; 2.0; 1024.0; 65504.0; -0.25 ]

let test_round_half_rounds () =
  (* 1 + 2^-11 is not representable in binary16: it must round to 1 or
     the next half value 1 + 2^-10. *)
  let v = 1.0 +. (1.0 /. 2048.0) in
  let r = round_half v in
  Alcotest.(check bool) "rounds to neighbour" true (r = 1.0 || r = 1.0 +. (1.0 /. 1024.0))

let test_round_half_overflow () =
  Alcotest.(check bool) "overflows to inf" true (round_half 1e6 = Float.infinity);
  Alcotest.(check bool) "neg overflow" true (round_half (-1e6) = Float.neg_infinity)

let prop_round_half_idempotent =
  QCheck.Test.make ~name:"round_half idempotent"
    QCheck.(float_range (-60000.0) 60000.0)
    (fun v ->
      let r = round_half v in
      Float.is_nan r || round_half r = r)

let prop_round_half_error_bound =
  QCheck.Test.make ~name:"round_half relative error < 2^-10"
    QCheck.(float_range 1e-3 60000.0)
    (fun v -> Float.abs (round_half v -. v) /. v <= 1.0 /. 1024.0 +. 1e-9)

(* --- small hand-built kernels ----------------------------------------- *)

(* C[tid] = A[tid] + B[tid] over one block. *)
let vector_add n =
  let b = B.create ~name:"vadd" ~dtype:F32 in
  let a_slot = B.buf_param b "A" in
  let b_slot = B.buf_param b "B" in
  let c_slot = B.buf_param b "C" in
  let tid = B.mov_i b (Ispecial Tid_x) in
  let fa = B.fresh_f b and fb = B.fresh_f b in
  B.emit b (I.Ld_global (fa, a_slot, Ireg tid));
  B.emit b (I.Ld_global (fb, b_slot, Ireg tid));
  let fc = B.fresh_f b in
  B.emit b (I.Fadd (fc, Freg fa, Freg fb));
  B.emit b (I.St_global (c_slot, Ireg tid, Freg fc));
  ignore n;
  B.finish b

let test_vector_add () =
  let n = 64 in
  let p = vector_add n in
  let a = Array.init n float_of_int in
  let b = Array.init n (fun i -> float_of_int (i * 10)) in
  let c = Array.make n 0.0 in
  let (_ : Ptx.Interp.counters) =
    Ptx.Interp.run p ~grid:(1, 1, 1) ~block:(n, 1, 1)
      ~bufs:[ ("A", a); ("B", b); ("C", c) ]
      ~iargs:[]
  in
  Array.iteri
    (fun i v -> Alcotest.(check (float 0.0)) "sum" (float_of_int (11 * i)) v)
    c

(* Block-wide reduction through shared memory with a barrier: thread 0
   sums all staged values. *)
let test_shared_reduction () =
  let n = 32 in
  let b = B.create ~name:"reduce" ~dtype:F32 in
  let a_slot = B.buf_param b "A" in
  let c_slot = B.buf_param b "C" in
  B.set_shared b ~words:n ~int_words:0;
  let tid = B.mov_i b (Ispecial Tid_x) in
  let v = B.fresh_f b in
  B.emit b (I.Ld_global (v, a_slot, Ireg tid));
  B.emit b (I.St_shared (Ireg tid, Freg v));
  B.emit b I.Bar;
  let p0 = B.setp b Eq (Ireg tid) (Iimm 0) in
  let acc = B.mov_f b (Fimm 0.0) in
  let tmp = B.fresh_f b in
  for i = 0 to n - 1 do
    B.emit b ~guard:(p0, true) (I.Ld_shared (tmp, Iimm i));
    B.emit b ~guard:(p0, true) (I.Fadd (acc, Freg acc, Freg tmp))
  done;
  B.emit b ~guard:(p0, true) (I.St_global (c_slot, Iimm 0, Freg acc));
  let p = B.finish b in
  let a = Array.init n (fun i -> float_of_int (i + 1)) in
  let c = Array.make 1 0.0 in
  let (_ : Ptx.Interp.counters) =
    Ptx.Interp.run p ~grid:(1, 1, 1) ~block:(n, 1, 1)
      ~bufs:[ ("A", a); ("C", c) ] ~iargs:[]
  in
  Alcotest.(check (float 1e-9)) "sum 1..32" (float_of_int (n * (n + 1) / 2)) c.(0)

(* Atomic accumulation across blocks. *)
let test_atomics_across_blocks () =
  let b = B.create ~name:"atom" ~dtype:F32 in
  let c_slot = B.buf_param b "C" in
  B.emit b (I.Atom_global_add (c_slot, Iimm 0, Fimm 1.0));
  let p = B.finish b in
  let c = Array.make 1 0.0 in
  let counters =
    Ptx.Interp.run p ~grid:(7, 3, 2) ~block:(8, 2, 1) ~bufs:[ ("C", c) ] ~iargs:[]
  in
  let total_threads = 7 * 3 * 2 * 8 * 2 in
  Alcotest.(check (float 0.0)) "all atoms landed" (float_of_int total_threads) c.(0);
  Alcotest.(check int) "atom counter" total_threads counters.atom

(* A loop with a runtime trip count: C[0] = sum_{i<K} i. *)
let test_loop () =
  let b = B.create ~name:"loop" ~dtype:F32 in
  let c_slot = B.buf_param b "C" in
  let pk = B.int_param b "K" in
  let i = B.mov_i b (Iimm 0) in
  let acc = B.mov_f b (Fimm 0.0) in
  let fi = B.fresh_f b in
  let top = B.fresh_label b "top" in
  let done_ = B.fresh_label b "done" in
  let p_enter = B.setp b Lt (Ireg i) pk in
  B.emit b ~guard:(p_enter, false) (I.Bra done_);
  B.place_label b top;
  (* fi <- i via repeated integer add trick: store as float by building
     the value with FMA on 1.0 would need conversion; instead use shared
     trick: accumulate 1.0 each iteration times loop counter. Simpler:
     acc += i by adding fi which we maintain as a running float copy. *)
  B.emit b (I.Fadd (acc, Freg acc, Freg fi));
  B.emit b (I.Fadd (fi, Freg fi, Fimm 1.0));
  B.emit b (I.Iadd (i, Ireg i, Iimm 1));
  let p_loop = B.setp b Lt (Ireg i) pk in
  B.emit b ~guard:(p_loop, true) (I.Bra top);
  B.place_label b done_;
  B.emit b (I.St_global (c_slot, Iimm 0, Freg acc));
  let p = B.finish b in
  let c = Array.make 1 (-1.0) in
  let (_ : Ptx.Interp.counters) =
    Ptx.Interp.run p ~grid:(1, 1, 1) ~block:(1, 1, 1) ~bufs:[ ("C", c) ]
      ~iargs:[ ("K", 10) ]
  in
  Alcotest.(check (float 1e-9)) "sum 0..9" 45.0 c.(0);
  (* zero-trip loop *)
  let c = Array.make 1 (-1.0) in
  let (_ : Ptx.Interp.counters) =
    Ptx.Interp.run p ~grid:(1, 1, 1) ~block:(1, 1, 1) ~bufs:[ ("C", c) ]
      ~iargs:[ ("K", 0) ]
  in
  Alcotest.(check (float 1e-9)) "zero-trip" 0.0 c.(0)

(* Predication: guarded stores only fire where the predicate holds. *)
let test_predication () =
  let b = B.create ~name:"pred" ~dtype:F32 in
  let c_slot = B.buf_param b "C" in
  let tid = B.mov_i b (Ispecial Tid_x) in
  let p_even = B.fresh_p b in
  let r = B.rem_i b (Ireg tid) (Iimm 2) in
  B.emit b (I.Setp (Eq, p_even, Ireg r, Iimm 0));
  B.emit b ~guard:(p_even, true) (I.St_global (c_slot, Ireg tid, Fimm 1.0));
  B.emit b ~guard:(p_even, false) (I.St_global (c_slot, Ireg tid, Fimm 2.0));
  let p = B.finish b in
  let c = Array.make 8 0.0 in
  let counters =
    Ptx.Interp.run p ~grid:(1, 1, 1) ~block:(8, 1, 1) ~bufs:[ ("C", c) ] ~iargs:[]
  in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 0.0)) "parity value"
        (if i mod 2 = 0 then 1.0 else 2.0) v)
    c;
  Alcotest.(check int) "masked instruction count" 8 counters.predicated_off

(* Integer ALU semantics. *)
let test_int_alu () =
  let b = B.create ~name:"ialu" ~dtype:F32 in
  let c_slot = B.buf_param b "C" in
  (* Verify a chain of integer ops through a predicate: the kernel writes
     1.0 iff every intermediate value is what the semantics dictate. *)
  let x = B.mad_i b (Iimm 7) (Iimm 6) (Iimm 3) in
  let shifted = B.fresh_i b in
  B.emit b (I.Ishl (shifted, Ireg x, Iimm 1));        (* 90 *)
  let masked = B.fresh_i b in
  B.emit b (I.Iand (masked, Ireg shifted, Iimm 0xFF)); (* 90 *)
  let q = B.div_i b (Ireg masked) (Iimm 4) in          (* 22 *)
  let r = B.rem_i b (Ireg masked) (Iimm 4) in          (* 2 *)
  let mn = B.min_i b (Ireg q) (Ireg r) in              (* 2 *)
  let mx = B.fresh_i b in
  B.emit b (I.Imax (mx, Ireg q, Ireg r));              (* 22 *)
  let sum = B.add_i b (Ireg mn) (Ireg mx) in           (* 24 *)
  let p_ok = B.setp b Eq (Ireg sum) (Iimm 24) in
  B.emit b ~guard:(p_ok, true) (I.St_global (c_slot, Iimm 0, Fimm 1.0));
  let p = B.finish b in
  let c = Array.make 1 0.0 in
  let (_ : Ptx.Interp.counters) =
    Ptx.Interp.run p ~grid:(1, 1, 1) ~block:(1, 1, 1) ~bufs:[ ("C", c) ] ~iargs:[]
  in
  Alcotest.(check (float 0.0)) "alu chain" 1.0 c.(0)

(* --- traps ------------------------------------------------------------ *)

let expect_trap name f =
  match f () with
  | exception Ptx.Interp.Trap _ -> ()
  | _ -> Alcotest.failf "%s: expected Trap" name

let test_trap_oob_global () =
  let b = B.create ~name:"oob" ~dtype:F32 in
  let c_slot = B.buf_param b "C" in
  B.emit b (I.St_global (c_slot, Iimm 100, Fimm 1.0));
  let p = B.finish b in
  expect_trap "oob store" (fun () ->
      Ptx.Interp.run p ~grid:(1, 1, 1) ~block:(1, 1, 1)
        ~bufs:[ ("C", Array.make 4 0.0) ] ~iargs:[])

let test_trap_missing_buffer () =
  let p = vector_add 4 in
  expect_trap "missing buffer" (fun () ->
      Ptx.Interp.run p ~grid:(1, 1, 1) ~block:(4, 1, 1)
        ~bufs:[ ("A", Array.make 4 0.0) ] ~iargs:[])

let test_trap_budget () =
  let b = B.create ~name:"inf" ~dtype:F32 in
  let (_ : int) = B.buf_param b "C" in
  let top = B.fresh_label b "top" in
  B.place_label b top;
  B.emit b (I.Bra top);
  let p = B.finish b in
  expect_trap "infinite loop" (fun () ->
      Ptx.Interp.run ~max_dynamic:10_000 p ~grid:(1, 1, 1) ~block:(1, 1, 1)
        ~bufs:[ ("C", Array.make 1 0.0) ] ~iargs:[])

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let expect_trap_msg name f check =
  match f () with
  | exception Ptx.Interp.Trap msg ->
    if not (check msg) then Alcotest.failf "%s: unexpected trap message %S" name msg
  | _ -> Alcotest.failf "%s: expected Trap" name

(* Trap messages locate the fault by pc and nearest preceding label. *)
let test_trap_message_location () =
  let b = B.create ~name:"locmsg" ~dtype:F32 in
  let (_ : int) = B.buf_param b "C" in
  B.set_shared b ~words:4 ~int_words:0;
  let l = B.fresh_label b "body" in
  B.place_label b l;
  B.emit b (I.Mov (B.fresh_i b, Iimm 0));
  B.emit b (I.St_shared (Iimm 9, Fimm 1.0));
  let p = B.finish b in
  expect_trap_msg "oob shared store" (fun () ->
      Ptx.Interp.run p ~grid:(1, 1, 1) ~block:(1, 1, 1)
        ~bufs:[ ("C", Array.make 1 0.0) ] ~iargs:[])
    (fun msg -> contains msg "pc " && contains msg ("label " ^ l))

let test_trap_barrier_divergence () =
  (* Threads disagree on whether they hit the barrier: tid 0 jumps over
     it. *)
  let b = B.create ~name:"diverge" ~dtype:F32 in
  let (_ : int) = B.buf_param b "C" in
  B.set_shared b ~words:4 ~int_words:0;
  let tid = B.mov_i b (Ispecial Tid_x) in
  let p0 = B.setp b Eq (Ireg tid) (Iimm 0) in
  let skip = B.fresh_label b "skip" in
  B.emit b ~guard:(p0, true) (I.Bra skip);
  B.emit b I.Bar;
  B.place_label b skip;
  let p = B.finish b in
  expect_trap_msg "barrier divergence" (fun () ->
      Ptx.Interp.run p ~grid:(1, 1, 1) ~block:(2, 1, 1)
        ~bufs:[ ("C", Array.make 1 0.0) ] ~iargs:[])
    (fun msg -> contains msg "barrier divergence" && contains msg "thread")

(* --- validation -------------------------------------------------------- *)

let test_validate_undefined_label () =
  let bad =
    { Ptx.Program.name = "bad"; dtype = F32; buf_params = [||]; int_params = [||];
      shared_words = 0; shared_int_words = 0;
      body = [| I.mk (I.Bra "nowhere"); I.mk I.Ret |];
      n_fregs = 0; n_iregs = 0; n_pregs = 0 }
  in
  match Ptx.Program.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "undefined label accepted"

let test_validate_reg_range () =
  let bad =
    { Ptx.Program.name = "bad"; dtype = F32; buf_params = [||]; int_params = [||];
      shared_words = 0; shared_int_words = 0;
      body = [| I.mk (I.Movf (3, Fimm 0.0)); I.mk I.Ret |];
      n_fregs = 2; n_iregs = 0; n_pregs = 0 }
  in
  match Ptx.Program.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-range register accepted"

let test_validate_duplicate_label () =
  let bad =
    { Ptx.Program.name = "bad"; dtype = F32; buf_params = [||]; int_params = [||];
      shared_words = 0; shared_int_words = 0;
      body = [| I.mk (I.Label "x"); I.mk (I.Label "x"); I.mk I.Ret |];
      n_fregs = 0; n_iregs = 0; n_pregs = 0 }
  in
  match Ptx.Program.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate label accepted"

(* --- analysis / disasm -------------------------------------------------- *)

let test_analysis_counts () =
  let p = vector_add 4 in
  let mix = Ptx.Analysis.of_program p in
  Alcotest.(check int) "2 global loads" 2 mix.ld_global;
  Alcotest.(check int) "1 global store" 1 mix.st_global;
  Alcotest.(check int) "1 fp add" 1 mix.fp_other

let test_disasm_roundtrip_markers () =
  let p = vector_add 4 in
  let text = Ptx.Disasm.program p in
  List.iter
    (fun needle ->
      if not (String.length text > 0) then Alcotest.fail "empty";
      let found =
        let nh = String.length text and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) needle true found)
    [ "ld.global.f32"; "st.global.f32"; "add.f32"; ".visible .entry vadd"; "ret" ]



(* --- packed-encoding round-trip ------------------------------------------- *)

let roundtrip_program name p =
  match Ptx.Encode.encode p with
  | Error e -> Alcotest.failf "%s: encode failed: %s" name e
  | Ok enc -> (
    match Ptx.Encode.decode enc with
    | Error e -> Alcotest.failf "%s: decode failed: %s" name e
    | Ok q ->
      if q <> p then begin
        (* Locate the first difference for a useful message. *)
        Array.iteri
          (fun i instr ->
            if i < Array.length q.body && q.body.(i) <> instr then
              Alcotest.failf "%s: instruction %d differs:\n  %s\n  %s" name i
                (Ptx.Disasm.instr p.dtype instr)
                (Ptx.Disasm.instr q.dtype q.body.(i)))
          p.body;
        Alcotest.failf "%s: metadata differs" name
      end)

let test_roundtrip_handmade () =
  (* Exercise every instruction kind in one kernel. *)
  let b = B.create ~name:"kitchen_sink" ~dtype:F64 in
  let a_slot = B.buf_param b "A" in
  let c_slot = B.buf_param b "C" in
  let pk = B.int_param b "K" in
  B.set_shared b ~words:16 ~int_words:8;
  let tid = B.mov_i b (Ispecial Tid_x) in
  let x = B.add_i b (Ireg tid) (Iimm 3) in
  let x = B.sub_i b (Ireg x) pk in
  let x = B.mul_i b (Ireg x) (Iimm 2) in
  let x = B.mad_i b (Ireg x) (Iimm 5) (Ireg tid) in
  let x = B.div_i b (Ireg x) (Iimm 3) in
  let x = B.rem_i b (Ireg x) (Iimm 97) in
  let x = B.min_i b (Ireg x) (Iimm 50) in
  let y = B.fresh_i b in
  B.emit b (I.Imax (y, Ireg x, Iimm 1));
  B.emit b (I.Ishl (y, Ireg y, Iimm 2));
  B.emit b (I.Ishr (y, Ireg y, Iimm 1));
  B.emit b (I.Iand (y, Ireg y, Iimm 255));
  B.emit b (I.Ior (y, Ireg y, Iimm 1));
  let p1 = B.setp b Lt (Ireg y) (Iimm 100) in
  let p2 = B.setp b Ge (Ireg y) (Iimm 0) in
  let p3 = B.and_p b p1 p2 in
  let p4 = B.fresh_p b in
  B.emit b (I.Or_p (p4, p1, p3));
  B.emit b (I.Not_p (p4, p4));
  let f1 = B.mov_f b (Fimm 0.5) in
  let f2 = B.fresh_f b in
  B.emit b ~guard:(p3, true) (I.Ld_global (f2, a_slot, Ireg tid));
  B.emit b (I.Fadd (f1, Freg f1, Freg f2));
  B.emit b (I.Fsub (f1, Freg f1, Fimm 0.25));
  B.emit b (I.Fmul (f1, Freg f1, Fimm 3.0));
  B.emit b (I.Ffma (f1, Freg f1, Freg f2, Fimm 1e-3));
  B.emit b (I.St_shared (Iimm 2, Freg f1));
  B.emit b (I.St_shared_i (Iimm 1, Ireg y));
  let z = B.fresh_i b in
  B.emit b (I.Ld_shared_i (z, Iimm 1));
  B.emit b (I.Ld_shared (f2, Iimm 2));
  B.emit b I.Bar;
  let loop = B.fresh_label b "loop" in
  B.place_label b loop;
  B.emit b ~guard:(p4, false) (I.Bra loop);
  B.emit b ~guard:(p3, true) (I.St_global (c_slot, Ireg tid, Freg f1));
  B.emit b (I.Atom_global_add (c_slot, Iimm 0, Fimm 1.0));
  roundtrip_program "kitchen sink" (B.finish b)

let test_roundtrip_f16 () =
  let b = B.create ~name:"halfk" ~dtype:F16 in
  let c_slot = B.buf_param b "C" in
  B.emit b (I.St_global (c_slot, Iimm 0, Fimm 0.333251953125));
  roundtrip_program "f16 program" (B.finish b)


(* --- kernel identity --------------------------------------------------- *)

module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params

let cfg ms ns ks ml nl u kl kg vec db = { GP.ms; ns; ks; ml; nl; u; kl; kg; vec; db }

(* Three fp16 kernels the perfbench P100 profiles serve whose allocated
   fp16 accumulators overflow the packed format's 8-bit register
   field, so [Encode] could not hash them. *)
let unencodable =
  [ ( "gemm 2560x32x2560 f16",
      Codegen.Gemm.generate (GP.input ~dtype:F16 2560 32 2560)
        (cfg 8 8 4 32 16 32 4 1 2 2) );
    ( "conv n16 c128 k87 p256 q19 r5 s5 f16",
      Codegen.Conv.generate
        (CP.input ~dtype:F16 ~n:16 ~c:128 ~k:87 ~p:256 ~q:19 ~r:5 ~s:5 ())
        (cfg 8 8 4 64 32 32 2 1 4 2) );
    ( "conv n16 c512 k512 p7 q7 r3 s3 f16",
      Codegen.Conv.generate
        (CP.input ~dtype:F16 ~n:16 ~c:512 ~k:512 ~p:7 ~q:7 ~r:3 ~s:3 ())
        (cfg 8 8 4 64 64 32 2 1 4 1) ) ]

(* Ten random legal kernels for each GEMM task of Table 4's two suites
   on the P100. *)
let random_legal_kernels () =
  let r = Util.Rng.create 340 in
  let device = Gpu.Device.p100 in
  List.concat_map
    (fun (t : Workloads.Gemm_suites.task) ->
      let rec draw n tries acc =
        if n = 0 || tries = 0 then acc
        else
          let flat = Tuner.Config_space.random r Tuner.Config_space.gemm in
          if Tuner.Dataset.gemm_legal device t.input flat then
            draw (n - 1) (tries - 1)
              (Codegen.Gemm.generate t.input (GP.config_of_array flat) :: acc)
          else draw n (tries - 1) acc
      in
      draw 10 100_000 [])
    (Workloads.Gemm_suites.fp32_suite ~mk:2560
     @ Workloads.Gemm_suites.mixed_suite ~mk:2560)

(* Two kernels share a hash exactly when their disassembly, entry name
   blanked, is the same text. *)
let test_hash_separates_disasm () =
  let kernels = random_legal_kernels () @ List.map snd unencodable in
  Alcotest.(check bool) "at least 340 random kernels" true (List.length kernels >= 343);
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ ": Encode rejects it") true
        (Result.is_error (Ptx.Encode.encode (Ptx.Regalloc.allocate p))))
    unencodable;
  let by_hash = Hashtbl.create 512 and by_text = Hashtbl.create 512 in
  List.iter
    (fun (p : Ptx.Program.t) ->
      let h = Ptx.Program.hash p and text = Ptx.Disasm.program { p with name = "" } in
      (match Hashtbl.find_opt by_hash h with
       | Some t when t <> text -> Alcotest.failf "%016Lx names two kernels" h
       | _ -> Hashtbl.replace by_hash h text);
      match Hashtbl.find_opt by_text text with
      | Some h' when h' <> h -> Alcotest.failf "one kernel hashes to %016Lx and %016Lx" h h'
      | _ -> Hashtbl.replace by_text text h)
    kernels;
  Alcotest.(check int) "as many hashes as texts" (Hashtbl.length by_text)
    (Hashtbl.length by_hash)

(* [p] with its first integer or float immediate (in a [mov], an [add]
   or a [movf]) changed by [f] or [g]. *)
let with_first_immediate ~int:f ~float:g (p : Ptx.Program.t) =
  let body = Array.copy p.body in
  let rec go pc =
    if pc = Array.length body then Alcotest.fail "no immediate to change"
    else
      let op =
        match body.(pc).I.op with
        | I.Mov (d, Iimm n) -> Some (I.Mov (d, Iimm (f n)))
        | I.Iadd (d, a, Iimm n) -> Some (I.Iadd (d, a, Iimm (f n)))
        | I.Movf (d, Fimm v) -> Some (I.Movf (d, Fimm (g v)))
        | _ -> None
      in
      match op with
      | Some op -> body.(pc) <- { (body.(pc)) with I.op }
      | None -> go (pc + 1)
  in
  go 0;
  { p with body }

let test_hash_identity () =
  let p = Codegen.Gemm.generate (GP.input 64 64 64) (cfg 4 4 1 32 32 8 1 1 1 1) in
  let h = Ptx.Program.hash p in
  Alcotest.(check int64) "same program, same hash" h
    (Ptx.Program.hash (Codegen.Gemm.generate (GP.input 64 64 64) (cfg 4 4 1 32 32 8 1 1 1 1)));
  Alcotest.(check int64) "entry name ignored" h
    (Ptx.Program.hash { p with name = "renamed_entry" });
  Alcotest.(check bool) "integer immediate + 1" false
    (Int64.equal h (Ptx.Program.hash (with_first_immediate ~int:succ ~float:Fun.id p)));
  let movf0 =
    let b = B.create ~name:"z" ~dtype:F32 in
    B.emit b (I.Movf (B.fresh_f b, Fimm 0.0));
    B.finish b
  in
  Alcotest.(check bool) "float immediate 0.0 -> -0.0, by its bits" false
    (Int64.equal (Ptx.Program.hash movf0)
       (Ptx.Program.hash (with_first_immediate ~int:Fun.id ~float:Float.neg movf0)))

let () =
  Alcotest.run "ptx"
    [ ("half",
       [ quick "exact values" test_round_half_exact;
         quick "rounding" test_round_half_rounds;
         quick "overflow" test_round_half_overflow;
         QCheck_alcotest.to_alcotest prop_round_half_idempotent;
         QCheck_alcotest.to_alcotest prop_round_half_error_bound ]);
      ("interp",
       [ quick "vector add" test_vector_add;
         quick "shared reduction + barrier" test_shared_reduction;
         quick "atomics across blocks" test_atomics_across_blocks;
         quick "runtime loop" test_loop;
         quick "predication" test_predication;
         quick "integer alu chain" test_int_alu ]);
      ("traps",
       [ quick "oob global" test_trap_oob_global;
         quick "missing buffer" test_trap_missing_buffer;
         quick "instruction budget" test_trap_budget;
         quick "trap message locates pc/label" test_trap_message_location;
         quick "barrier divergence" test_trap_barrier_divergence ]);
      ("validate",
       [ quick "undefined label" test_validate_undefined_label;
         quick "register range" test_validate_reg_range;
         quick "duplicate label" test_validate_duplicate_label ]);
      ("analysis",
       [ quick "static counts" test_analysis_counts;
         quick "disasm markers" test_disasm_roundtrip_markers ]);
      ("encoding",
       [ quick "roundtrip kitchen sink" test_roundtrip_handmade;
         quick "roundtrip f16" test_roundtrip_f16 ]);
      ("hash",
       [ quick "separates what the disassembly separates" test_hash_separates_disasm;
         quick "identity, name and immediates" test_hash_identity ]) ]
