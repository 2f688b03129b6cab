(* Static verifier: generated kernels must verify clean; deliberately
   corrupted programs must be rejected with the expected diagnostic;
   each lint must fire on a hand-built defect and stay quiet on
   generated kernels; and verifier acceptance must imply trap-free
   interpretation (differential property). *)

open Ptx.Types
module I = Ptx.Instr
module B = Ptx.Builder
module V = Ptx.Verify
module P = Codegen.Gemm_params
module G = Codegen.Gemm

let quick name f = Alcotest.test_case name `Quick f

let verify_program ?(iargs = []) ~block p = V.run ~iargs ~block p

let check_clean name ?(iargs = []) ~block p =
  let r = verify_program ~iargs ~block p in
  if not (V.ok r) then
    Alcotest.failf "%s: expected clean verification, got:\n%s" name
      (V.to_string r)

let check_rejected name kind ?(iargs = []) ~block p =
  let r = verify_program ~iargs ~block p in
  if V.ok r then
    Alcotest.failf "%s: expected a %s error, verified clean:\n%s" name
      (V.kind_name kind) (V.to_string r);
  if not (List.exists (fun (d : V.diag) -> d.kind = kind) r.errors) then
    Alcotest.failf "%s: expected a %s error, got:\n%s" name (V.kind_name kind)
      (V.to_string r)

(* --- generated GEMM kernels verify clean ------------------------------- *)

let gemm_iargs (i : P.input) = [ ("M", i.m); ("N", i.n); ("K", i.k) ]

let check_gemm ?bounds (i : P.input) (c : P.config) =
  Alcotest.(check bool) "legal" true (P.structurally_legal i c);
  let p = G.generate ?bounds i c in
  check_clean
    (Printf.sprintf "%s %s" (P.describe_name i c) (P.describe c))
    ~iargs:(gemm_iargs i)
    ~block:(P.threads_per_block c, 1, 1)
    p

let cfg ?(ms = 2) ?(ns = 2) ?(ks = 1) ?(ml = 16) ?(nl = 16) ?(u = 8) ?(kl = 1)
    ?(kg = 1) ?(vec = 1) ?(db = 1) () =
  { P.ms; ns; ks; ml; nl; u; kl; kg; vec; db }

let test_gemm_basic () = check_gemm (P.input 32 32 32) (cfg ())
let test_gemm_ragged () = check_gemm (P.input 17 23 29) (cfg ())

let test_gemm_splits () =
  check_gemm (P.input 24 24 40) (cfg ~ks:2 ());
  check_gemm (P.input 24 24 40) (cfg ~kl:2 ());
  check_gemm (P.input 24 24 64) (cfg ~kl:4 ~u:16 ());
  check_gemm (P.input 24 24 64) (cfg ~kg:2 ());
  check_gemm (P.input 24 24 160) (cfg ~ks:2 ~kl:2 ~kg:2 ~u:8 ())

let test_gemm_trans () =
  check_gemm (P.input ~a_trans:true 20 18 25) (cfg ());
  check_gemm (P.input ~b_trans:true 20 18 25) (cfg ());
  check_gemm (P.input ~a_trans:true ~b_trans:true 20 18 25) (cfg ())

let test_gemm_bounds_modes () =
  check_gemm ~bounds:P.Branch (P.input 17 23 29) (cfg ());
  check_gemm ~bounds:P.Unchecked (P.input 32 32 32) (cfg ())

let test_gemm_vec_db () =
  check_gemm (P.input 32 32 32) (cfg ~vec:2 ());
  check_gemm (P.input 32 32 32) (cfg ~db:2 ())

let test_conv_clean () =
  let ci =
    Codegen.Conv_params.input ~n:2 ~c:3 ~k:4 ~p:6 ~q:6 ~r:3 ~s:3 ()
  in
  let c = cfg ~ml:16 ~nl:16 ~u:8 () in
  let gi = Codegen.Conv_params.gemm_input ci in
  let p = Codegen.Conv.generate ci c in
  check_clean "conv"
    ~iargs:[ ("M", gi.P.m); ("N", gi.P.n); ("K", gi.P.k) ]
    ~block:(P.threads_per_block c, 1, 1)
    p

(* --- hand-built corrupted programs are rejected ------------------------ *)

let prog ?(shared = 0) ?(shared_i = 0) ?(nf = 4) ?(ni = 4) ?(np = 4) body =
  { Ptx.Program.name = "corrupt";
    dtype = F32;
    buf_params = [||];
    int_params = [||];
    shared_words = shared;
    shared_int_words = shared_i;
    body = Array.of_list body;
    n_fregs = nf;
    n_iregs = ni;
    n_pregs = np }

let ins op = I.mk op
let gins p op = I.mk ~guard:(p, true) op

let test_bad_branch_target () =
  check_rejected "undefined label" V.Structure ~block:(1, 1, 1)
    (prog [ ins (I.Bra "nowhere"); ins I.Ret ])

let test_fell_off_end () =
  check_rejected "no ret" V.Structure ~block:(1, 1, 1)
    (prog [ ins (I.Mov (0, Iimm 1)) ])

let test_use_before_def () =
  check_rejected "undefined ireg" V.Use_before_def ~block:(1, 1, 1)
    (prog [ ins (I.Iadd (0, Ireg 1, Iimm 1)); ins I.Ret ])

let test_guarded_def_counts () =
  (* A guarded write still defines the register in our semantics (the
     masked lane keeps the old deterministic value). *)
  check_clean "guarded def" ~block:(2, 1, 1)
    (prog
       [ ins (I.Setp (Eq, 0, Ispecial Tid_x, Iimm 0));
         gins 0 (I.Mov (0, Iimm 7));
         ins (I.Iadd (1, Ireg 0, Iimm 1));
         ins I.Ret ])

let test_store_past_shared () =
  check_rejected "constant OOB" V.Shared_bounds ~block:(1, 1, 1)
    (prog ~shared:4 [ ins (I.St_shared (Iimm 100, Fimm 1.0)); ins I.Ret ]);
  check_rejected "tid-dependent OOB" V.Shared_bounds ~block:(4, 1, 1)
    (prog ~shared:4
       [ ins (I.Ishl (0, Ispecial Tid_x, Iimm 1));
         ins (I.St_shared (Ireg 0, Fimm 1.0));
         ins I.Ret ])

let test_divergent_bar_guard () =
  check_rejected "tid-guarded bar" V.Barrier_divergence ~block:(4, 1, 1)
    (prog
       [ ins (I.Setp (Lt, 0, Ispecial Tid_x, Iimm 2));
         gins 0 I.Bar;
         ins I.Ret ])

let test_divergent_bar_branch () =
  check_rejected "bar under varying branch" V.Barrier_divergence
    ~block:(4, 1, 1)
    (prog
       [ ins (I.Setp (Ge, 0, Ispecial Tid_x, Iimm 2));
         gins 0 (I.Bra "skip");
         ins I.Bar;
         ins (I.Label "skip");
         ins I.Ret ])

let test_divergent_early_ret () =
  check_rejected "bar after guarded ret" V.Barrier_divergence ~block:(4, 1, 1)
    (prog
       [ ins (I.Setp (Lt, 0, Ispecial Tid_x, Iimm 2));
         gins 0 I.Ret;
         ins I.Bar;
         ins I.Ret ])

let test_uniform_bar_guard_ok () =
  (* A guard that only depends on a scalar parameter is uniform: every
     thread takes the same side, so the guarded bar is safe. *)
  let p =
    { (prog
         [ ins (I.Setp (Lt, 0, Iparam 0, Iimm 100));
           gins 0 I.Bar;
           ins I.Ret ])
      with Ptx.Program.int_params = [| "M" |] }
  in
  check_clean "param-guarded bar" ~block:(4, 1, 1) p

let test_race_write_write () =
  check_rejected "w/w same word" V.Shared_race ~block:(4, 1, 1)
    (prog ~shared:4 [ ins (I.St_shared (Iimm 0, Fimm 1.0)); ins I.Ret ])

let test_race_read_write () =
  check_rejected "r/w same interval" V.Shared_race ~block:(4, 1, 1)
    (prog ~shared:4
       [ ins (I.Mov (0, Ispecial Tid_x));
         ins (I.St_shared (Ireg 0, Fimm 1.0));
         ins (I.Ld_shared (0, Iimm 0));
         ins I.Ret ])

let test_race_cut_by_barrier () =
  check_clean "bar separates r/w" ~block:(4, 1, 1)
    (prog ~shared:4
       [ ins (I.Mov (0, Ispecial Tid_x));
         ins (I.St_shared (Ireg 0, Fimm 1.0));
         ins I.Bar;
         ins (I.Ld_shared (0, Iimm 0));
         ins I.Ret ])

let test_spaces_dont_alias () =
  (* The float and integer shared arrays are distinct storage. *)
  check_clean "f vs i shared" ~block:(4, 1, 1)
    (prog ~shared:4 ~shared_i:4
       [ ins (I.St_shared_i (Ispecial Tid_x, Iimm 1));
         ins (I.Ld_shared (0, Iimm 0));
         ins I.Ret ])

let test_corrupted_gemm_rejected () =
  let i = P.input 32 32 32 in
  let c = cfg () in
  let p = G.generate i c in
  let body = Array.copy p.Ptx.Program.body in
  let patched = ref false in
  Array.iteri
    (fun idx (instr : I.t) ->
      match instr.op with
      | I.St_shared (_, v) when not !patched ->
        patched := true;
        body.(idx) <- { instr with op = I.St_shared (Iimm (p.shared_words + 5), v) }
      | _ -> ())
    body;
  Alcotest.(check bool) "found a shared store to corrupt" true !patched;
  check_rejected "gemm store past shared_words" V.Shared_bounds
    ~iargs:(gemm_iargs i)
    ~block:(P.threads_per_block c, 1, 1)
    { p with body }

(* --- bank-conflict statistics ------------------------------------------ *)

let test_bank_conflicts () =
  let stride s =
    prog ~shared:1024
      [ ins (I.Imul (0, Ispecial Tid_x, Iimm s));
        ins (I.St_shared (Ireg 0, Fimm 1.0));
        ins I.Ret ]
  in
  let factor s =
    (verify_program ~block:(32, 1, 1) (stride s)).V.bank.V.conflict_factor
  in
  Alcotest.(check (float 1e-9)) "stride 1 conflict-free" 1.0 (factor 1);
  Alcotest.(check (float 1e-9)) "stride 8 -> 8-way" 8.0 (factor 8);
  Alcotest.(check (float 1e-9)) "stride 32 -> 32-way" 32.0 (factor 32);
  (* Same word for every lane broadcasts: degree 1. *)
  let bcast =
    prog ~shared:4 ~np:1
      [ ins (I.Setp (Eq, 0, Ispecial Tid_x, Iimm 0));
        gins 0 (I.St_shared (Iimm 0, Fimm 1.0));
        ins I.Bar;
        ins (I.Ld_shared (0, Iimm 0));
        ins I.Ret ]
  in
  let r = verify_program ~block:(32, 1, 1) bcast in
  if not (V.ok r) then Alcotest.failf "broadcast: %s" (V.to_string r);
  Alcotest.(check (float 1e-9)) "broadcast factor" 1.0 r.V.bank.V.conflict_factor

(* --- lints ---------------------------------------------------------------- *)

let lint_kinds ?(iargs = []) ?(block = (1, 1, 1)) p =
  List.filter_map
    (fun (d : V.diag) ->
      match d.kind with
      | V.Dead_store | Unread_register | Unreachable_code | Redundant_barrier ->
        Some (V.kind_name d.kind)
      | _ -> None)
    (verify_program ~iargs ~block p).V.warnings

let test_lint_dead_store () =
  let kinds =
    lint_kinds
      (prog ~shared:4
         [ ins (I.Movf (0, Fimm 1.0));
           ins (I.Movf (0, Fimm 2.0));
           ins (I.St_shared (Iimm 0, Freg 0));
           ins I.Ret ])
  in
  Alcotest.(check bool) "dead store found" true (List.mem "dead-store" kinds)

let test_lint_guarded_merge_not_dead () =
  (* The generators' staging idiom: mov 0 then guarded load — the mov is
     a live merge input, not a dead store. *)
  let p =
    { (prog ~shared:8
         [ ins (I.Setp (Lt, 0, Ispecial Tid_x, Iimm 2));
           ins (I.Movf (0, Fimm 0.0));
           gins 0 (I.Ld_global (0, 0, Ispecial Tid_x));
           ins (I.St_shared (Ispecial Tid_x, Freg 0));
           ins I.Ret ])
      with
      Ptx.Program.buf_params = [| "A" |] }
  in
  Alcotest.(check (list string)) "clean" [] (lint_kinds p)

let test_lint_unread_register () =
  let kinds =
    lint_kinds
      (prog ~ni:8 [ ins (I.Mov (5, Iimm 3)); ins (I.Mov (5, Iimm 4)); ins I.Ret ])
  in
  Alcotest.(check bool) "unread found" true
    (List.mem "unread-register" kinds)

let test_lint_unreachable () =
  let kinds =
    lint_kinds
      (prog
         [ ins (I.Bra "end");
           ins (I.Mov (0, Iimm 1));
           ins (I.Label "end");
           ins I.Ret ])
  in
  Alcotest.(check bool) "unreachable found" true
    (List.mem "unreachable-code" kinds)

let test_lint_redundant_barrier () =
  let kinds =
    lint_kinds
      (prog ~shared:4
         [ ins (I.St_shared (Iimm 0, Fimm 1.0));
           ins I.Bar;
           ins I.Bar;
           ins (I.Ld_shared (0, Iimm 0));
           ins I.Ret ])
  in
  Alcotest.(check bool) "redundant bar found" true
    (List.mem "redundant-barrier" kinds);
  (* A shared access between two barriers keeps both meaningful. *)
  let kinds =
    lint_kinds
      (prog ~shared:4
         [ ins (I.St_shared (Iimm 0, Fimm 1.0));
           ins I.Bar;
           ins (I.Ld_shared (0, Iimm 0));
           ins I.Bar;
           ins I.Ret ])
  in
  Alcotest.(check bool) "separated bars clean" true
    (not (List.mem "redundant-barrier" kinds))

let test_generated_kernels_lint_free () =
  let check name ~iargs c p =
    match lint_kinds ~iargs ~block:(P.threads_per_block c, 1, 1) p with
    | [] -> ()
    | ks ->
      Alcotest.failf "%s: %d lints: %s" name (List.length ks)
        (String.concat ", " ks)
  in
  let gemm name i c = check name ~iargs:(gemm_iargs i) c (G.generate i c) in
  gemm "gemm basic" (P.input 32 32 32) (cfg ());
  gemm "gemm ragged" (P.input 17 23 29) (cfg ());
  gemm "gemm splits" (P.input 24 24 160) (cfg ~ks:2 ~kl:2 ~kg:2 ~u:8 ());
  gemm "gemm trans" (P.input ~a_trans:true ~b_trans:true 20 18 25) (cfg ());
  let ci = Codegen.Conv_params.input ~n:2 ~c:3 ~k:4 ~p:6 ~q:6 ~r:3 ~s:3 () in
  let gi = Codegen.Conv_params.gemm_input ci in
  check "conv"
    ~iargs:[ ("M", gi.P.m); ("N", gi.P.n); ("K", gi.P.k) ]
    (cfg ()) (Codegen.Conv.generate ci (cfg ()))

(* --- differential property: verifier-accept => interpreter trap-free --- *)

let shapes = [| (32, 32, 32); (17, 23, 29); (24, 24, 40); (16, 16, 64) |]

let ms_ns = [| (1, 1); (2, 2); (4, 2) |]
let tiles = [| (16, 16); (16, 32); (32, 16) |]
let splits = [| (1, 1, 1); (2, 1, 1); (1, 2, 1); (1, 1, 2); (1, 4, 1) |]

let prop_verified_runs_trap_free =
  let gen =
    QCheck.Gen.(
      map
        (fun (a, b, c, d) -> (a, b, c, d))
        (quad (oneofa shapes) (oneofa ms_ns) (oneofa tiles) (oneofa splits)))
  in
  let arb = QCheck.make ~print:(fun _ -> "gemm case") gen in
  QCheck.Test.make ~name:"verify-accept => trap-free" ~count:40 arb
    (fun ((m, n, k), (ms, ns), (ml, nl), (ks, kl, kg)) ->
      let i = P.input m n k in
      let c = cfg ~ms ~ns ~ml ~nl ~ks ~kl ~kg ~u:8 () in
      QCheck.assume (P.structurally_legal i c);
      let p = G.generate i c in
      let r =
        verify_program ~iargs:(gemm_iargs i)
          ~block:(P.threads_per_block c, 1, 1)
          p
      in
      if not (V.ok r) then
        QCheck.Test.fail_reportf "verifier rejected a legal kernel:\n%s"
          (V.to_string r);
      let a = Array.make (m * k) 1.0 and b = Array.make (k * n) 1.0 in
      (* Any Interp.Trap escaping here fails the property. *)
      let got = G.run i c ~a ~b in
      Array.length got = m * n)

let corruption_suite =
  [ quick "bad branch target" test_bad_branch_target;
    quick "fell off end" test_fell_off_end;
    quick "use before def" test_use_before_def;
    quick "guarded def counts" test_guarded_def_counts;
    quick "store past shared" test_store_past_shared;
    quick "divergent bar guard" test_divergent_bar_guard;
    quick "divergent bar branch" test_divergent_bar_branch;
    quick "divergent early ret" test_divergent_early_ret;
    quick "uniform bar guard ok" test_uniform_bar_guard_ok;
    quick "race write/write" test_race_write_write;
    quick "race read/write" test_race_read_write;
    quick "race cut by barrier" test_race_cut_by_barrier;
    quick "spaces don't alias" test_spaces_dont_alias;
    quick "corrupted gemm rejected" test_corrupted_gemm_rejected ]

let suite =
  [ quick "gemm basic" test_gemm_basic;
    quick "gemm ragged" test_gemm_ragged;
    quick "gemm splits" test_gemm_splits;
    quick "gemm trans" test_gemm_trans;
    quick "gemm bounds modes" test_gemm_bounds_modes;
    quick "gemm vec/db" test_gemm_vec_db;
    quick "conv clean" test_conv_clean ]

let () =
  Alcotest.run "verify"
    [ ("clean", suite);
      ("corrupt", corruption_suite);
      ("bank", [ quick "bank conflicts" test_bank_conflicts ]);
      ( "lints",
        [ quick "dead store" test_lint_dead_store;
          quick "guarded merge is live" test_lint_guarded_merge_not_dead;
          quick "unread register" test_lint_unread_register;
          quick "unreachable code" test_lint_unreachable;
          quick "redundant barrier" test_lint_redundant_barrier;
          quick "generated kernels lint-free" test_generated_kernels_lint_free ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_verified_runs_trap_free ] ) ]
