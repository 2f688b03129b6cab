(* Ablations of ISAAC's design choices, beyond the paper's own tables:

   1. top-k device re-benchmarking (§6: "re-evaluate them on the target
      GPU to smooth out the inherent noise of our predictive model");
   2. the discrete optimizer behind runtime inference (§6 lists simulated
      annealing and genetic algorithms as drop-in alternatives to the
      exhaustive search it uses);
   3. the Dirichlet prior strength in the generative model (§4.1's
      alpha = 100);
   4. tuning for energy efficiency instead of speed (§4.1 lists Joules
      and FLOPS/W as admissible regression targets). *)

module GP = Codegen.Gemm_params

let shapes =
  [ ("LINPACK 2048", GP.input ~b_trans:true 2048 2048 2048);
    ("DeepBench-F 16", GP.input 2560 16 2560);
    ("ICA 64", GP.input ~b_trans:true 64 64 60000) ]

let run_topk () =
  Printf.printf "\n-- top-k re-benchmarking (fraction of oracle performance) --\n";
  let device = Gpu.Device.p100 in
  let engine = Engines.gemm device in
  let profile = Isaac.profile engine in
  let ks = [ 1; 5; 20; 100 ] in
  let rows =
    List.map
      (fun (name, input) ->
        let oracle_tf =
          (snd (Option.get (Tuner.Search.oracle_gemm device input))).tflops
        in
        let cells =
          List.map
            (fun k ->
              let rng = Engines.fresh_rng (Printf.sprintf "topk-%s-%d" name k) in
              let r =
                Option.get
                  (Tuner.Search.exhaustive_gemm ~top_k:k rng device ~profile input)
              in
              r.best_measurement.tflops /. oracle_tf)
            ks
        in
        (name, cells))
      shapes
  in
  Util.Table.print
    ~header:(Array.of_list ("problem" :: List.map (Printf.sprintf "top-%d") ks))
    (List.map
       (fun (name, cells) ->
         Array.of_list (name :: List.map (fun v -> Printf.sprintf "%.0f%%" (100. *. v)) cells))
       rows);
  let avg k_idx =
    Util.Stats.mean (Array.of_list (List.map (fun (_, cs) -> List.nth cs k_idx) rows))
  in
  [ Reporting.check ~claim:"re-benchmarking the top-100 beats trusting the model (top-1)"
      ~paper:"the point of §6's re-evaluation step"
      ~ours:(Printf.sprintf "%.0f%% -> %.0f%% of oracle" (100. *. avg 0) (100. *. avg 3))
      ~pass:(avg 3 >= avg 0 -. 0.01);
    Reporting.check_min ~claim:"top-100 reaches most of the oracle"
      ~paper:"exhaustive search is near-optimal" ~value:(avg 3) ~at_least:0.85 ]

let run_optimizers () =
  Printf.printf "\n-- discrete optimizers at a 2000-evaluation budget --\n";
  let device = Gpu.Device.p100 in
  let profile = Isaac.profile (Engines.gemm device) in
  let space = Tuner.Config_space.gemm in
  let results =
    List.map
      (fun (name, input) ->
        let objective cfg_array =
          if Tuner.Dataset.gemm_legal device input cfg_array then
            let f = Tuner.Features.gemm_features ~log:true input cfg_array in
            Some (Tuner.Profile.predict_std_one profile f)
          else None
        in
        (* Measured speed of the config each optimizer settles on. *)
        let measured cfg_array =
          let cfg = GP.config_of_array cfg_array in
          match Gpu.Perf_model.predict device (GP.cost input cfg) with
          | Some r -> r.tflops
          | None -> 0.0
        in
        let budget = 2000 in
        let run tag f =
          let rng = Engines.fresh_rng ("optim-" ^ tag ^ name) in
          match f rng with
          | Some (o : Tuner.Optim.outcome) -> measured o.config
          | None -> 0.0
        in
        let rand = run "rand" (fun rng -> Tuner.Optim.random_search rng space objective ~budget) in
        let sa = run "sa" (fun rng -> Tuner.Optim.simulated_annealing rng space objective ~budget) in
        let ga = run "ga" (fun rng -> Tuner.Optim.genetic rng space objective ~budget) in
        let exhaustive =
          let rng = Engines.fresh_rng ("optim-ex" ^ name) in
          (Option.get (Tuner.Search.exhaustive_gemm ~top_k:100 rng device ~profile input))
            .best_measurement.tflops
        in
        (name, rand, sa, ga, exhaustive))
      shapes
  in
  Util.Table.print
    ~header:[| "problem"; "random"; "sim. annealing"; "genetic"; "exhaustive+top100" |]
    (List.map
       (fun (name, r, s, g, e) ->
         [| name; Printf.sprintf "%.2f" r; Printf.sprintf "%.2f" s;
            Printf.sprintf "%.2f" g; Printf.sprintf "%.2f" e |])
       results);
  let frac pick =
    Util.Stats.geomean
      (Array.of_list
         (List.map (fun (_, r, s, g, e) -> Float.max 0.01 (pick (r, s, g) /. e)) results))
  in
  [ Reporting.check_min
      ~claim:"annealing at 2k evals gets close to exhaustive (60k+ evals)"
      ~paper:"§6: SA/GA are admissible alternatives"
      ~value:(frac (fun (_, s, _) -> s)) ~at_least:0.5;
    Reporting.check_min ~claim:"genetic similarly competitive"
      ~paper:"§6" ~value:(frac (fun (_, _, g) -> g)) ~at_least:0.5 ]

let run_alpha () =
  Printf.printf "\n-- Dirichlet prior strength in the generative model --\n";
  let device = Gpu.Device.gtx980ti in
  let space = Tuner.Config_space.table1 in
  let rows =
    List.map
      (fun alpha ->
        let rng = Engines.fresh_rng (Printf.sprintf "alpha-%g" alpha) in
        let legal cfg =
          Tuner.Dataset.gemm_legal device (Tuner.Dataset.random_gemm_input rng) cfg
        in
        let s =
          Tuner.Sampler.fit ~alpha ~warmup:(Util.Env_config.scaled 300_000) rng space
            ~legal
        in
        let acc =
          Tuner.Sampler.acceptance_rate ~trials:(Util.Env_config.scaled 10_000)
            ~sample:(fun () -> Tuner.Sampler.sample rng s)
            ~legal
        in
        (alpha, acc))
      [ 1.0; 100.0; 100_000.0 ]
  in
  Util.Table.print
    ~header:[| "alpha"; "acceptance" |]
    (List.map
       (fun (a, acc) -> [| Printf.sprintf "%g" a; Util.Table.fmt_pct acc |])
       rows);
  let acc_of a = List.assoc a rows in
  [ Reporting.check ~claim:"a huge prior degenerates to uniform sampling"
      ~paper:"alpha=100 chosen so probabilities never hit zero"
      ~ours:(Printf.sprintf "%.1f%% vs %.1f%%" (100. *. acc_of 100.0)
               (100. *. acc_of 100_000.0))
      ~pass:(acc_of 100.0 > 2.0 *. acc_of 100_000.0) ]

let run_energy () =
  Printf.printf "\n-- speed-optimal vs efficiency-optimal kernels (P100, fp32) --\n";
  let device = Gpu.Device.p100 in
  let rows =
    List.map
      (fun (name, input) ->
        let scored =
          List.filter_map
            (fun cfg ->
              Option.map
                (fun (r : Gpu.Perf_model.report) -> (cfg, r))
                (Gpu.Perf_model.predict device (GP.cost input cfg)))
            (Array.to_list (Tuner.Search.legal_gemm_config_array device input))
        in
        let best_by f =
          List.fold_left
            (fun acc (cfg, r) ->
              match acc with
              | Some (_, br) when f br >= f r -> acc
              | _ -> Some (cfg, r))
            None scored
        in
        let speed = Option.get (best_by (fun r -> r.Gpu.Perf_model.tflops)) in
        let eff = Option.get (best_by (Gpu.Power.gflops_per_watt device)) in
        (name, speed, eff))
      shapes
  in
  Util.Table.print
    ~header:
      [| "problem"; "fastest"; "TF"; "GF/W"; "most efficient"; "TF"; "GF/W" |]
    (List.map
       (fun (name, (sc, sr), (ec, er)) ->
         [| name; GP.describe sc; Printf.sprintf "%.2f" sr.Gpu.Perf_model.tflops;
            Printf.sprintf "%.1f" (Gpu.Power.gflops_per_watt Gpu.Device.p100 sr);
            GP.describe ec; Printf.sprintf "%.2f" er.Gpu.Perf_model.tflops;
            Printf.sprintf "%.1f" (Gpu.Power.gflops_per_watt Gpu.Device.p100 er) |])
       rows);
  let ok =
    List.for_all
      (fun (_, (_, sr), (_, er)) ->
        Gpu.Power.gflops_per_watt device er >= Gpu.Power.gflops_per_watt device sr)
      rows
  in
  [ Reporting.check ~claim:"efficiency-targeted tuning finds at-least-as-efficient kernels"
      ~paper:"§4.1: y may be FLOPS, Joules, FLOPS/W" ~ours:(if ok then "holds" else "violated")
      ~pass:ok ]

(* Why implicit GEMM: the explicit IM2COL+GEMM algorithm materializes the
   NPQ x CRS patch matrix, reading and writing it through DRAM before the
   product even starts. Compare that materialization traffic against the
   implicit kernel's whole-run DRAM traffic on Table 5 layers. *)
let run_conv_algorithms () =
  Printf.printf "\n-- conv algorithms: implicit GEMM vs explicit IM2COL+GEMM --\n";
  let cfg = { GP.ms = 8; ns = 4; ks = 1; ml = 64; nl = 32; u = 16; kl = 1; kg = 1;
              vec = 2; db = 2 } in
  let rows =
    List.filter_map
      (fun label ->
        let task = Workloads.Conv_suites.find label Ptx.Types.F32 in
        let i = task.input in
        if not (Codegen.Conv_params.structurally_legal i cfg) then None
        else begin
          let cost = Codegen.Conv_params.cost i cfg in
          let implicit_bytes = cost.load_a_bytes +. cost.load_b_bytes +. cost.store_bytes in
          let patch =
            float_of_int (Codegen.Conv_params.npq i)
            *. float_of_int (Codegen.Conv_params.crs i) *. 4.0
          in
          (* write the patch matrix once, then the GEMM reads it like a
             dense A; the image itself is read once to build it. *)
          let explicit_bytes = implicit_bytes +. (2.0 *. patch) in
          Some (label, implicit_bytes /. 1e6, explicit_bytes /. 1e6,
                explicit_bytes /. implicit_bytes)
        end)
      [ "Conv1"; "Conv4"; "Conv7"; "Conv8"; "Conv13"; "Conv14" ]
  in
  Util.Table.print
    ~header:[| "layer"; "implicit DRAM (MB)"; "explicit DRAM (MB)"; "overhead" |]
    (List.map
       (fun (l, a, b, r) ->
         [| l; Printf.sprintf "%.1f" a; Printf.sprintf "%.1f" b;
            Printf.sprintf "%.2fx" r |])
       rows);
  let worst = List.fold_left (fun acc (_, _, _, r) -> Float.max acc r) 1.0 rows in
  [ Reporting.check_min
      ~claim:"explicit im2col always adds DRAM traffic (worst layer)"
      ~paper:"motivates IMPLICIT_PRECOMP_GEMM" ~value:worst ~at_least:1.05 ]

let run () =
  Reporting.print_header "Ablations: top-k, optimizers, Dirichlet prior, energy";
  run_topk () @ run_optimizers () @ run_alpha () @ run_energy ()
  @ run_conv_algorithms ()
