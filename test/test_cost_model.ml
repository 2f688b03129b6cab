(* Property tests on the kernel cost model: invariants that must hold for
   every legal (input, config) pair, checked over random draws. These
   guard the contract between the code generator and the timing model. *)

module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params

let rng = Util.Rng.create 424242

let random_legal ~input_gen =
  let rec go tries =
    if tries = 0 then None
    else begin
      let input = input_gen rng in
      let cfg_array = Tuner.Config_space.(random rng gemm) in
      let cfg = GP.config_of_array cfg_array in
      if GP.structurally_legal input cfg then Some (input, cfg) else go (tries - 1)
    end
  in
  go 500

let gen_pairs n =
  let out = ref [] in
  while List.length !out < n do
    match random_legal ~input_gen:(fun rng -> Tuner.Dataset.random_gemm_input rng) with
    | Some p -> out := p :: !out
    | None -> ()
  done;
  !out

let pairs = lazy (gen_pairs 300)

let check_all name f =
  List.iter
    (fun (input, cfg) ->
      let cost = GP.cost input cfg in
      if not (f input cfg cost) then
        Alcotest.failf "%s violated for %s %s" name (GP.describe_name input cfg)
          (GP.describe cfg))
    (Lazy.force pairs)

let quick name f = Alcotest.test_case name `Quick f

let test_nonnegative () =
  check_all "non-negative fields" (fun _ _ c ->
      c.useful_flops > 0.0 && c.issued_fmas > 0.0 && c.load_a_bytes > 0.0
      && c.load_b_bytes > 0.0 && c.store_bytes >= 0.0 && c.atom_ops >= 0.0
      && c.shared_traffic_bytes > 0.0 && c.ilp >= 0.5 && c.mlp >= 1.0
      && c.barriers_per_block > 0.0 && c.k_iters >= 1.0)

let test_padding_waste () =
  (* Issued work covers at least the useful work (padding only adds). *)
  check_all "issued >= useful" (fun _ _ c ->
      c.issued_fmas *. c.fma_flops >= c.useful_flops *. 0.999)

let test_compulsory_traffic () =
  (* Every element of A and B is loaded at least once. *)
  check_all "loads >= compulsory" (fun i _ c ->
      let b = float_of_int (Ptx.Types.dtype_bytes i.dtype) in
      c.load_a_bytes >= float_of_int i.m *. float_of_int i.k *. b *. 0.999
      && c.load_b_bytes >= float_of_int i.k *. float_of_int i.n *. b *. 0.999)

let test_atomics_iff_split () =
  check_all "atomics iff kg>1" (fun _ cfg c ->
      if cfg.kg > 1 then c.atom_ops > 0.0 && c.store_bytes = 0.0
      else c.atom_ops = 0.0 && c.store_bytes > 0.0)

let test_threads_consistent () =
  check_all "threads match parameterization" (fun _ cfg c ->
      c.threads_per_block = GP.threads_per_block cfg)

let test_coalescing_bounds () =
  check_all "coalescing in (0,1]" (fun _ _ c ->
      c.coalescing > 0.0 && c.coalescing <= 1.0)

let test_grid_covers_problem () =
  check_all "grid covers problem" (fun i cfg c ->
      c.grid_m * cfg.ml >= i.m && c.grid_n * cfg.nl >= i.n
      && (c.grid_m - 1) * cfg.ml < i.m && (c.grid_n - 1) * cfg.nl < i.n)

let test_bigger_problem_more_work () =
  (* Doubling K doubles issued FMAs when K stays U-aligned. *)
  let input = GP.input 128 128 512 in
  let cfg = { GP.ms = 4; ns = 8; ks = 1; ml = 32; nl = 64; u = 8; kl = 1; kg = 1;
              vec = 2; db = 2 } in
  let c1 = GP.cost input cfg in
  let c2 = GP.cost { input with k = 1024 } cfg in
  Alcotest.(check (float 1e-6)) "2x fmas" (2.0 *. c1.issued_fmas) c2.issued_fmas

let test_fp16_packs () =
  let input = GP.input ~dtype:F16 256 256 256 in
  let cfg = { GP.ms = 4; ns = 8; ks = 1; ml = 32; nl = 64; u = 8; kl = 1; kg = 1;
              vec = 2; db = 2 } in
  let half = GP.cost input cfg in
  let single = GP.cost { input with dtype = F32 } cfg in
  Alcotest.(check bool) "packed instruction count halves" true
    (Float.abs ((2.0 *. half.issued_fmas) -. single.issued_fmas) < 1.0);
  Alcotest.(check (float 1e-9)) "flops per packed instr" 4.0 half.fma_flops

let test_conv_cost_matches_gemm_view () =
  (* Conv cost inherits the implicit-GEMM work accounting. *)
  let i = CP.input ~n:4 ~c:16 ~k:32 ~p:8 ~q:8 ~r:3 ~s:3 () in
  let cfg = { GP.ms = 2; ns = 2; ks = 1; ml = 16; nl = 16; u = 8; kl = 1; kg = 1;
              vec = 1; db = 1 } in
  if CP.structurally_legal i cfg then begin
    let conv = CP.cost i cfg in
    let gemm = GP.cost (CP.gemm_input i) cfg in
    Alcotest.(check (float 1.0)) "same useful flops" gemm.useful_flops conv.useful_flops;
    Alcotest.(check (float 1.0)) "same issued fmas" gemm.issued_fmas conv.issued_fmas;
    Alcotest.(check bool) "gather adds addressing work" true
      (conv.ialu_per_fma > gemm.ialu_per_fma);
    Alcotest.(check bool) "gather coalesces worse" true
      (conv.coalescing < gemm.coalescing)
  end

let test_bank_conflicts_change_shared_cost () =
  (* A stride-1 fragment tiling (ms=1) is bank-conflict-free; widening the
     per-thread tile to ms=8 makes A-fragment loads step 8 words per lane,
     which the analyzer must flag and the timing model must charge for. *)
  let device =
    List.find (fun (d : Gpu.Device.t) -> d.name = "Tesla P100") Gpu.Device.all
  in
  let input = GP.input 256 256 256 in
  let free = { GP.ms = 1; ns = 4; ks = 1; ml = 8; nl = 32; u = 8; kl = 1;
               kg = 1; vec = 1; db = 1 } in
  let conf = { free with GP.ms = 8; ml = 64 } in
  Alcotest.(check bool) "both tilings legal" true
    (GP.structurally_legal input free && GP.structurally_legal input conf);
  let c_free = GP.cost input free and c_conf = GP.cost input conf in
  Alcotest.(check (float 1e-9)) "stride-1 tiling is conflict-free" 1.0
    c_free.shared_conflict_factor;
  Alcotest.(check bool) "stride-8 fragments conflict" true
    (c_conf.shared_conflict_factor > 1.2);
  match
    ( Gpu.Perf_model.predict device c_conf,
      Gpu.Perf_model.predict device { c_conf with shared_conflict_factor = 1.0 } )
  with
  | Some r, Some r0 ->
    Alcotest.(check (float 1e-12))
      "shared-pipe time scales by the conflict factor"
      (r0.shared_seconds *. c_conf.shared_conflict_factor)
      r.shared_seconds
  | _ -> Alcotest.fail "predict returned None"

(* The constructors refuse what the cost model's int arithmetic cannot
   take: a dimension above [GP.max_dim], or a CONV whose implicit-GEMM
   extent passes it, even where the product overflows an OCaml int.
   The message names the field. [GP.max_dim] itself is accepted, and
   its cost stays finite and positive. *)
let test_inputs_bounded () =
  let rejects name make =
    match make () with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument msg ->
      let quoted = Printf.sprintf "%S" name in
      let n = String.length quoted in
      let rec names i =
        i + n <= String.length msg && (String.sub msg i n = quoted || names (i + 1))
      in
      if not (names 0) then Alcotest.failf "error %S does not name %S" msg name
  in
  let big = GP.max_dim + 1 and huge = (1 lsl 62) - 1 in
  rejects "m" (fun () -> GP.input big 64 64);
  rejects "n" (fun () -> GP.input 64 huge 64);
  rejects "k" (fun () -> GP.input 64 64 big);
  let conv ?(stride = 1) ?(pad = 0) ?(n = 1) ?(c = 8) ?(k = 8) ?(p = 4) ?(r = 3) () =
    CP.input ~stride ~pad ~n ~c ~k ~p ~q:p ~r ~s:r ()
  in
  rejects "k" (fun () -> conv ~k:big ());
  rejects "stride" (fun () -> conv ~stride:big ());
  rejects "q" (fun () -> conv ~n:GP.max_dim ~p:GP.max_dim ());
  rejects "r" (fun () -> conv ~c:65536 ~r:256 ());
  (* A stride below 1 or a negative pad, and a pad that leaves no input
     row or column: H = (P-1)*stride + R - 2*pad below 1. *)
  rejects "stride" (fun () -> conv ~stride:0 ());
  rejects "pad" (fun () -> conv ~pad:(-1) ());
  rejects "pad" (fun () -> conv ~pad:1000 ());
  rejects "pad" (fun () -> conv ~pad:GP.max_dim ());
  rejects "pad" (fun () -> conv ~p:1 ~pad:2 ());
  let edge = conv ~p:1 ~pad:1 () in
  Alcotest.(check (pair int int)) "a pad leaving one row and column is kept" (1, 1)
    (CP.h edge, CP.w edge);
  let input = GP.input GP.max_dim GP.max_dim GP.max_dim in
  let cfg = { GP.ms = 4; ns = 4; ks = 1; ml = 64; nl = 64; u = 8; kl = 1;
              kg = 1; vec = 1; db = 1 } in
  Alcotest.(check bool) "legal at the bound" true (GP.structurally_legal input cfg);
  let c = GP.cost input cfg in
  Alcotest.(check bool) "cost positive at the bound" true
    (c.useful_flops > 0.0 && Float.is_finite c.useful_flops
     && Gpu.Kernel_cost.grid_blocks c > 0)

let () =
  Alcotest.run "cost-model"
    [ ("invariants (300 random legal pairs)",
       [ quick "non-negative" test_nonnegative;
         quick "issued >= useful" test_padding_waste;
         quick "compulsory traffic" test_compulsory_traffic;
         quick "atomics iff kg>1" test_atomics_iff_split;
         quick "threads consistent" test_threads_consistent;
         quick "coalescing bounds" test_coalescing_bounds;
         quick "grid covers problem" test_grid_covers_problem ]);
      ("scaling",
       [ quick "work scales with K" test_bigger_problem_more_work;
         quick "fp16x2 packing" test_fp16_packs;
         quick "conv = gemm view + gather" test_conv_cost_matches_gemm_view;
         quick "bank conflicts change shared cost"
           test_bank_conflicts_change_shared_cost;
         quick "inputs bounded by max_dim" test_inputs_bounded ]) ]
