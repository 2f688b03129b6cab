(* Bootstrapping: using ISAAC to speed up ISAAC.

   §5 of the paper observes that "since MLP involving small feature
   vectors rely on highly rectangular matrix computations, our system
   could itself be bootstrapped to make its own auto-tuning procedure
   more efficient": scoring 60k kernel configurations through a
   16-feature MLP is a stack of extremely skinny GEMMs — exactly the
   input class vendor libraries underserve.

   This example (1) plans the inference products of the default 32-64-32
   regression network at exhaustive-search batch sizes and compares the
   chosen kernels against the cuBLAS-like baseline, and (2) actually runs
   a small MLP forward pass through the ISAAC-planned kernels (via the
   einsum front-end) and checks it against the CPU reference GEMM.

   Run with:  dune exec examples/bootstrapping.exe *)

module GP = Codegen.Gemm_params
module E = Frontend.Einsum

let () =
  let rng = Util.Rng.create 21 in
  let device = Gpu.Device.p100 in
  Printf.printf "Tuning GEMM on the simulated %s...\n%!" device.name;
  let engine = Isaac.tune ~samples:2500 ~epochs:15 rng device ~op:`Gemm () in

  (* The regression net scores `batch` configurations at once: the layer
     products are (batch x in) . (in x out) with in/out in 16..64. *)
  let batch = 60_000 in
  let layers = [ (16, 32); (32, 64); (64, 32); (32, 1) ] in
  Printf.printf
    "\nScoring %d configs through the 16-32-64-32-1 model = skinny GEMMs:\n" batch;
  Util.Table.print
    ~header:[| "layer product"; "ISAAC kernel"; "ISAAC"; "cuBLAS-like"; "speedup" |]
    (List.map
       (fun (inp, out) ->
         let input = GP.input batch out inp in
         let plan = Option.get (Isaac.plan_gemm engine input) in
         let cublas =
           match Baselines.Cublas.heuristic rng device input with
           | Some (_, m) -> m.tflops
           | None -> nan
         in
         [| Printf.sprintf "%dx%d . %dx%d" batch inp inp out;
            GP.describe plan.config;
            Printf.sprintf "%.2f TF" plan.measurement.tflops;
            Printf.sprintf "%.2f TF" cublas;
            Printf.sprintf "%.2fx" (plan.measurement.tflops /. cublas) |])
       layers);

  (* Forward pass of a real (random) relu MLP through the planned
     kernels, executed as mini-PTX, vs the CPU reference GEMM. *)
  let b = 48 and sizes = [ 16; 32; 64; 1 ] in
  let mats =
    let rec pairs = function
      | a :: (bdim :: _ as tl) -> (a, bdim) :: pairs tl
      | _ -> []
    in
    List.map
      (fun (fan_in, fan_out) ->
        (fan_in, fan_out,
         Array.init (fan_in * fan_out) (fun _ -> Util.Rng.gaussian rng *. 0.3)))
      (pairs sizes)
  in
  let x0 = Array.init (b * List.hd sizes) (fun _ -> Util.Rng.gaussian rng) in
  let relu = Array.map (fun v -> Float.max 0.0 v) in
  let forward mult =
    let n_layers = List.length mats in
    List.fold_left
      (fun (idx, act) (fan_in, fan_out, w) ->
        let z = mult act (Array.length act / fan_in) fan_in fan_out w in
        (idx + 1, if idx = n_layers - 1 then z else relu z))
      (0, x0) mats
    |> snd
  in
  let via_isaac =
    forward (fun act rows fan_in fan_out w ->
        let spec = E.parse "mk,kn->mn" in
        E.contract ~engine spec
          [ ('m', rows); ('k', fan_in); ('n', fan_out) ]
          ~a:act ~b:w)
  in
  let via_cpu =
    forward (fun act rows fan_in fan_out w ->
        Codegen.Gemm.reference (GP.input rows fan_out fan_in) ~a:act ~b:w)
  in
  (* Bonus: the same layer with the relu fused into the kernel's store
     phase (the deep-learning epilogue), checked against the reference. *)
  let fan_in, fan_out, w0 = List.hd mats in
  let input = GP.input b fan_out fan_in in
  let plan = Option.get (Isaac.plan_gemm engine input) in
  let cfg =
    if plan.config.kg = 1 then plan.config
    else { plan.config with kg = 1 }  (* epilogues require KG = 1 *)
  in
  if GP.structurally_legal input cfg then begin
    let bias = Array.init fan_out (fun j -> 0.01 *. float_of_int j) in
    let fused =
      Codegen.Gemm.run ~epilogue:GP.Bias_relu ~bias input cfg ~a:x0 ~b:w0
    in
    let reference =
      Codegen.Gemm.reference ~epilogue:GP.Bias_relu ~bias input ~a:x0 ~b:w0
    in
    let ok = Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) fused reference in
    Printf.printf "  fused bias+relu epilogue in-kernel: %s\n"
      (if ok then "matches reference" else "MISMATCH")
  end;
  let max_err = ref 0.0 in
  Array.iteri
    (fun i v -> max_err := Float.max !max_err (Float.abs (v -. via_cpu.(i))))
    via_isaac;
  Printf.printf
    "\nForward pass of a %d-sample batch through ISAAC-planned kernels:\n\
    \  output[0] = %.6f, max |error| vs CPU reference = %.2e %s\n"
    b via_isaac.(0) !max_err
    (if !max_err <= 1e-9 then "(matches)" else "(MISMATCH)")
