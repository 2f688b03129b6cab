(* Tests for the tuner: config spaces, the categorical generative model,
   feature transformation, dataset generation, profiles and the
   exhaustive runtime search. *)

let quick name f = Alcotest.test_case name `Quick f
let () = Unix.putenv "ISAAC_SEARCH_CAP" "4000"  (* keep searches fast in tests *)

let rng () = Util.Rng.create 2718
module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params

(* --- config space -------------------------------------------------------- *)

let test_space_size () =
  let expected =
    Array.fold_left
      (fun acc p -> acc * Array.length p.Tuner.Config_space.values)
      1 Tuner.Config_space.gemm
  in
  Alcotest.(check int) "size = product" expected
    (Tuner.Config_space.size Tuner.Config_space.gemm);
  Alcotest.(check int) "table1 grid is 5^10" (5 * 5 * 5 * 5 * 5 * 5 * 5 * 5 * 5 * 5)
    (Tuner.Config_space.size Tuner.Config_space.table1)

let test_space_iter_count () =
  let small : Tuner.Config_space.t =
    [| { name = "a"; values = [| 1; 2 |] }; { name = "b"; values = [| 1; 2; 3 |] } |]
  in
  let n = ref 0 in
  Tuner.Config_space.iter small (fun _ -> incr n);
  Alcotest.(check int) "2*3 combos" 6 !n

let test_value_index () =
  let p = { Tuner.Config_space.name = "x"; values = [| 1; 2; 4; 8 |] } in
  Alcotest.(check int) "index of 4" 2 (Tuner.Config_space.value_index p 4);
  Alcotest.check_raises "foreign value" Not_found (fun () ->
      ignore (Tuner.Config_space.value_index p 3))

let test_random_in_grid () =
  let r = rng () in
  for _ = 1 to 100 do
    let cfg = Tuner.Config_space.random r Tuner.Config_space.gemm in
    Array.iteri
      (fun i v ->
        let p = Tuner.Config_space.gemm.(i) in
        Alcotest.(check bool) "value from grid" true (Array.exists (( = ) v) p.values))
      cfg
  done

(* --- sampler -------------------------------------------------------------- *)

(* Toy space where legality = "first parameter >= 4": the fitted marginal
   must shift mass onto {4, 8}. *)
let toy_space : Tuner.Config_space.t =
  [| { name = "a"; values = [| 1; 2; 4; 8 |] };
     { name = "b"; values = [| 1; 2 |] } |]

let test_sampler_learns_marginals () =
  let r = rng () in
  let legal cfg = cfg.(0) >= 4 in
  let s = Tuner.Sampler.fit ~alpha:1.0 ~warmup:4000 r toy_space ~legal in
  let m = Tuner.Sampler.marginal s 0 in
  Alcotest.(check (float 1e-9)) "marginal sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 m);
  Alcotest.(check bool) "mass concentrates on legal values" true
    (m.(2) +. m.(3) > 0.9);
  (* and the acceptance rate improves accordingly *)
  let uni =
    Tuner.Sampler.acceptance_rate ~trials:2000
      ~sample:(fun () -> Tuner.Config_space.random r toy_space)
      ~legal
  in
  let cat =
    Tuner.Sampler.acceptance_rate ~trials:2000
      ~sample:(fun () -> Tuner.Sampler.sample r s)
      ~legal
  in
  Alcotest.(check bool) "categorical beats uniform" true (cat > 1.5 *. uni)

let test_sampler_dirichlet_prior_no_zero () =
  let r = rng () in
  (* With legality never accepting value 1, the prior still gives it
     non-zero probability. *)
  let s = Tuner.Sampler.fit ~alpha:100.0 ~warmup:2000 r toy_space
      ~legal:(fun cfg -> cfg.(0) >= 4) in
  let m = Tuner.Sampler.marginal s 0 in
  Alcotest.(check bool) "no exact zero" true (Array.for_all (fun p -> p > 0.0) m)

let test_sample_legal () =
  let r = rng () in
  let legal cfg = cfg.(0) >= 4 in
  let s = Tuner.Sampler.fit ~warmup:500 r toy_space ~legal in
  match Tuner.Sampler.sample_legal r s ~legal with
  | Some cfg -> Alcotest.(check bool) "result legal" true (legal cfg)
  | None -> Alcotest.fail "should find a legal sample"

(* --- features --------------------------------------------------------------- *)

let test_gemm_features () =
  let i = GP.input ~a_trans:true 64 128 256 in
  let cfg = Array.make 10 8 in
  let f = Tuner.Features.gemm_features ~log:true i cfg in
  Alcotest.(check int) "dim" Tuner.Features.dim (Array.length f);
  Alcotest.(check (float 1e-9)) "log2 m" 6.0 f.(0);
  Alcotest.(check (float 1e-9)) "log2 n" 7.0 f.(1);
  Alcotest.(check (float 1e-9)) "log2 k" 8.0 f.(2);
  Alcotest.(check (float 1e-9)) "log2 bytes" 2.0 f.(3);
  Alcotest.(check (float 1e-9)) "a_trans flag" 1.0 f.(4);
  Alcotest.(check (float 1e-9)) "b_trans flag" 0.0 f.(5);
  Alcotest.(check (float 1e-9)) "log2 tuning value" 3.0 f.(6);
  let raw = Tuner.Features.gemm_features ~log:false i cfg in
  Alcotest.(check (float 1e-9)) "raw m" 64.0 raw.(0)

(* Per-query featurization cache: cached rows must be bit-identical to
   the uncached featurizers, in both log and raw modes. *)
let test_query_features_match_uncached () =
  let r = rng () in
  let gemm_inputs =
    [ GP.input 512 512 512;
      GP.input ~a_trans:true ~dtype:Ptx.Types.F16 2560 16 2560;
      GP.input ~b_trans:true ~dtype:Ptx.Types.F64 7 9 60000 ]
  in
  List.iter
    (fun log ->
      List.iter
        (fun i ->
          let q = Tuner.Features.gemm_query ~log i in
          for _ = 1 to 50 do
            let cfg = Tuner.Config_space.random r Tuner.Config_space.gemm in
            Alcotest.(check (array (float 0.0))) "gemm bit-equal"
              (Tuner.Features.gemm_features ~log i cfg)
              (Tuner.Features.query_features q cfg)
          done)
        gemm_inputs;
      let ci = CP.input ~n:2 ~c:16 ~k:32 ~p:8 ~q:8 ~r:3 ~s:3 () in
      let q = Tuner.Features.conv_query ~log ci in
      for _ = 1 to 50 do
        let cfg = Tuner.Config_space.random r Tuner.Config_space.gemm in
        Alcotest.(check (array (float 0.0))) "conv bit-equal"
          (Tuner.Features.conv_features ~log ci cfg)
          (Tuner.Features.query_features q cfg)
      done)
    [ true; false ]

let test_target_scaler_roundtrip () =
  let s = Tuner.Features.fit_target_scaler [| 0.5; 1.0; 2.0; 4.0 |] in
  List.iter
    (fun v ->
      Alcotest.(check (float 1e-9)) "roundtrip" v
        (Tuner.Features.untarget s (Tuner.Features.target s v)))
    [ 0.1; 1.0; 7.3 ]

(* --- dataset ----------------------------------------------------------------- *)

let test_dataset_generation () =
  let r = rng () in
  let ds = Tuner.Dataset.generate_gemm r Gpu.Device.gtx980ti ~n:50 in
  Alcotest.(check int) "size" 50 (Tuner.Dataset.size ds);
  Alcotest.(check int) "feature rows" 50 ds.features_log.Mlp.Matrix.rows;
  Array.iter
    (fun v -> Alcotest.(check bool) "positive tflops" true (v > 0.0))
    ds.tflops;
  Array.iter
    (fun v -> Alcotest.(check bool) "finite features" true (Float.is_finite v))
    (Mlp.Matrix.to_array ds.features_log)

let test_dataset_parallel_generation () =
  (* Multi-domain generation must produce the right count and the same
     statistical shape; determinism holds per (seed, domain-count). *)
  let ds1 =
    Tuner.Dataset.generate_gemm ~domains:3 (Util.Rng.create 12) Gpu.Device.p100 ~n:90
  in
  let ds2 =
    Tuner.Dataset.generate_gemm ~domains:3 (Util.Rng.create 12) Gpu.Device.p100 ~n:90
  in
  Alcotest.(check int) "size" 90 (Tuner.Dataset.size ds1);
  Alcotest.(check bool) "deterministic for fixed domains" true
    (ds1.tflops = ds2.tflops);
  Array.iter (fun v -> Alcotest.(check bool) "positive" true (v > 0.0)) ds1.tflops

let test_dataset_conv_generation () =
  let r = rng () in
  let ds = Tuner.Dataset.generate_conv r Gpu.Device.p100 ~n:30 in
  Alcotest.(check int) "size" 30 (Tuner.Dataset.size ds);
  Alcotest.(check bool) "tagged conv" true (ds.op = `Conv)

let test_legality_split () =
  (* gemm_legal must match structural && device legality. *)
  let r = rng () in
  let device = Gpu.Device.gtx980ti in
  let both = ref 0 in
  for _ = 1 to 2000 do
    let input = Tuner.Dataset.random_gemm_input r in
    let cfg = Tuner.Config_space.random r Tuner.Config_space.gemm in
    let legal = Tuner.Dataset.gemm_legal device input cfg in
    let expect =
      GP.structurally_legal input (GP.config_of_array cfg)
      && Gpu.Executor.legal device (GP.cost input (GP.config_of_array cfg))
    in
    if legal then incr both;
    Alcotest.(check bool) "legality agrees" expect legal
  done;
  Alcotest.(check bool) "some legal configs found" true (!both > 0)

(* --- profile / search ---------------------------------------------------------- *)

let tiny_profile r device =
  let ds = Tuner.Dataset.generate_gemm r device ~n:2000 in
  Tuner.Profile.train ~arch:[| 32; 32 |] ~epochs:15 r ds

let test_search_parallel_scoring () =
  let r = rng () in
  let device = Gpu.Device.gtx980ti in
  let profile = tiny_profile r device in
  let input = GP.input 512 512 512 in
  let run domains =
    let r = Util.Rng.create 77 in
    Option.get
      (Tuner.Search.exhaustive_gemm ~top_k:10 ~cap:5000 ~domains r device ~profile
         input)
  in
  let s1 = run 1 and s3 = run 3 in
  (* Scoring is deterministic regardless of domains: identical ranking. *)
  Alcotest.(check bool) "same best config" true
    (GP.equal_config s1.best s3.best);
  Alcotest.(check int) "same n_scored" s1.n_scored s3.n_scored

let test_profile_save_load () =
  let r = rng () in
  let p = tiny_profile r Gpu.Device.gtx980ti in
  let path = Filename.temp_file "profile" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tuner.Profile.save p path;
      let p2 = Tuner.Profile.load_exn path in
      Alcotest.(check string) "device" p.device p2.device;
      let i = GP.input 512 512 512 in
      let f = Tuner.Features.gemm_features ~log:true i (Array.make 10 8) in
      Alcotest.(check (float 1e-6)) "same prediction"
        (Tuner.Profile.predict_tflops p f) (Tuner.Profile.predict_tflops p2 f))

(* --- profile validation ------------------------------------------------- *)

(* A hand-written profile payload, valid by default; each defect case
   overrides one field. The override replaces the first value of that
   field (first feature mean / std, first weight / bias of layer 0). *)
let profile_payload ?(scaler = "0.5 1.5") ?(mean = "0") ?(std = "1")
    ?(arch = [| Tuner.Features.dim; 4; 1 |]) ?(weight = "0.25") ?(bias = "0")
    () =
  let row first n rest =
    String.concat " " (List.init n (fun i -> if i = 0 then first else rest))
  in
  let layers =
    List.concat
      (List.init (Array.length arch - 1) (fun l ->
           let first a b = if l = 0 then a else b in
           [ row (first weight "0.25") (arch.(l) * arch.(l + 1)) "0.25";
             row (first bias "0") arch.(l + 1) "0" ]))
  in
  String.concat "\n"
    ([ "op gemm"; "device Tesla P100"; "scaler " ^ scaler; "log_features true";
       row mean Tuner.Features.dim "0"; row std Tuner.Features.dim "1";
       Printf.sprintf "mlp %d" (Array.length arch);
       String.concat " " (Array.to_list (Array.map string_of_int arch)); "0" ]
     @ layers)
  ^ "\n"

(* Through Util.Artifact.write, so the envelope is valid and only the
   payload can be at fault. *)
let load_profile_payload payload =
  let path = Filename.temp_file "profile" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Util.Artifact.write ~path ~kind:"isaac-profile" ~version:3 payload;
      Tuner.Profile.load path)

let test_handmade_profile_plans () =
  match load_profile_payload (profile_payload ()) with
  | Error msg -> Alcotest.failf "valid payload rejected: %s" msg
  | Ok p ->
    let f =
      Tuner.Features.gemm_features ~log:true (GP.input 512 512 512)
        (Array.make 10 8)
    in
    Alcotest.(check bool) "finite prediction" true
      (Float.is_finite (Tuner.Profile.predict_tflops p f))

let rejects ~reason payload () =
  match load_profile_payload payload with
  | Ok _ -> Alcotest.failf "loaded Ok, expected an error about %s" reason
  | Error msg ->
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    if not (contains msg reason) then
      Alcotest.failf "error %S does not mention %S" msg reason

let profile_defects =
  [ ("rejects input width 19", "input width",
     profile_payload ~arch:[| 19; 4; 1 |] ());
    ("rejects output width 2", "output width",
     profile_payload ~arch:[| Tuner.Features.dim; 4; 2 |] ());
    ("rejects an empty hidden layer", "empty network layer",
     profile_payload ~arch:[| Tuner.Features.dim; 0; 1 |] ());
    ("rejects a nan weight", "non-finite network", profile_payload ~weight:"nan" ());
    ("rejects an infinite bias", "non-finite network", profile_payload ~bias:"inf" ());
    ("rejects a nan feature mean", "feature mean", profile_payload ~mean:"nan" ());
    ("rejects an infinite target scaler", "target scaler",
     profile_payload ~scaler:"1e999 1.5" ());
    ("rejects a zero feature std", "feature std", profile_payload ~std:"0" ());
    ("rejects a nan feature std", "feature std", profile_payload ~std:"nan" ());
    (* an empty first weight leaves layer 0's line one value short *)
    ("rejects a short weight line", "layer 0 weights: 63 values, expected 64",
     profile_payload ~weight:"" ()) ]

let test_search_returns_legal () =
  let r = rng () in
  let device = Gpu.Device.gtx980ti in
  let profile = tiny_profile r device in
  let input = GP.input 512 512 512 in
  match Tuner.Search.exhaustive_gemm ~top_k:20 r device ~profile input with
  | None -> Alcotest.fail "search found nothing"
  | Some result ->
    Alcotest.(check bool) "config legal" true
      (GP.structurally_legal input result.best
      && Gpu.Executor.legal device (GP.cost input result.best));
    Alcotest.(check bool) "positive tflops" true
      (result.best_measurement.tflops > 0.0);
    Alcotest.(check bool) "legal space explored" true (result.n_legal > 100);
    Alcotest.(check int) "top-k candidates" 20 (Array.length result.candidates)

let test_search_beats_median_kernel () =
  (* Even a tiny model + top-k re-measurement must comfortably beat the
     median legal configuration (the value of the §6 pipeline). *)
  let r = rng () in
  let device = Gpu.Device.gtx980ti in
  let profile = tiny_profile r device in
  let input = GP.input 2560 16 2560 in
  let result =
    Option.get
      (Tuner.Search.exhaustive_gemm ~top_k:50 ~cap:20000 r device ~profile input)
  in
  let tflops =
    List.filter_map
      (fun c ->
        Option.map
          (fun (rep : Gpu.Perf_model.report) -> rep.tflops)
          (Gpu.Perf_model.predict device (GP.cost input c)))
      (Array.to_list (Tuner.Search.legal_gemm_config_array device input))
  in
  let median = Util.Stats.median (Array.of_list tflops) in
  Alcotest.(check bool) "beats median" true
    (result.best_measurement.tflops > median)

let test_oracle_is_upper_bound () =
  let device = Gpu.Device.gtx980ti in
  let input = GP.input 512 512 512 in
  let _, oracle_report = Option.get (Tuner.Search.oracle_gemm device input) in
  (* The oracle beats every cuBLAS kernel (it searches a superset). *)
  let r = rng () in
  match Baselines.Cublas.best_kernel ~noise:0.0 r device input with
  | None -> Alcotest.fail "cublas found nothing"
  | Some (_, m) ->
    Alcotest.(check bool) "oracle >= cublas best" true
      (oracle_report.tflops >= m.tflops *. 0.999)

let test_subsample_cap () =
  let r = rng () in
  let device = Gpu.Device.gtx980ti in
  let profile = tiny_profile r device in
  let input = GP.input 512 512 512 in
  let result =
    Option.get (Tuner.Search.exhaustive_gemm ~cap:500 r device ~profile input)
  in
  Alcotest.(check bool) "scored at most ~cap" true (result.n_scored <= 600)

(* [cap] and [top_k] below 1 are rejected up front, by name. Unchecked,
   a zero cap divides by zero, a negative one fails in [Array.init], and
   [top_k = 0] returns [None] although legal configurations exist. *)
let test_search_rejects_bad_cap_and_top_k () =
  let profile =
    match load_profile_payload (profile_payload ()) with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let input = GP.input 512 512 512 in
  let plan ?top_k ?cap () =
    Tuner.Search.exhaustive_gemm ?top_k ?cap ~domains:1 (rng ())
      Gpu.Device.p100 ~profile input
  in
  let rejects msg f =
    Alcotest.check_raises msg
      (Invalid_argument ("Tuner.Search.exhaustive: " ^ msg))
      (fun () -> ignore (f ()))
  in
  rejects "cap = 0, must be >= 1" (plan ~cap:0);
  rejects "cap = -5, must be >= 1" (plan ~cap:(-5));
  rejects "top_k = 0, must be >= 1" (plan ~top_k:0);
  rejects "top_k = -1, must be >= 1" (plan ~top_k:(-1));
  Fun.protect
    ~finally:(fun () -> Unix.putenv "ISAAC_SEARCH_CAP" "4000")
    (fun () ->
      Unix.putenv "ISAAC_SEARCH_CAP" "0";
      rejects "ISAAC_SEARCH_CAP = 0, must be >= 1" (fun () -> plan ()));
  (* The smallest accepted values still plan. *)
  match plan ~top_k:1 ~cap:1 () with
  | None -> Alcotest.fail "top_k = 1, cap = 1 found no plan"
  | Some r ->
    Alcotest.(check int) "one scored" 1 r.n_scored;
    Alcotest.(check int) "one candidate" 1 (Array.length r.candidates)

(* The top-k selection is the k-prefix of a stable sort by descending
   [Float.compare]: NaN last, the two zeros tied, ties to the lower
   index. Values come from small pools, so ties are the common case. *)
let prop_top_k_is_stable_sort_prefix =
  let special =
    [| 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 1.0; -1.0 |]
  in
  let gen =
    QCheck.Gen.(
      int_range 0 300 >>= fun n ->
      int_range 1 (Array.length special) >>= fun pool ->
      array_repeat n
        (frequency [ (4, oneofa (Array.sub special 0 pool)); (1, float) ]))
  in
  QCheck.Test.make ~name:"top_k_indices = stable-sort prefix" ~count:500
    (QCheck.make ~print:QCheck.Print.(array float) gen)
    (fun pred ->
      let n = Array.length pred in
      let order = Array.init n Fun.id in
      Array.stable_sort (fun a b -> Float.compare pred.(b) pred.(a)) order;
      List.for_all
        (fun k ->
          Tuner.Search.top_k_indices ~k pred = Array.sub order 0 (max 0 (min k n)))
        [ 0; 1; n - 1; n; n + 5 ])

(* --- pruned enumeration vs reference ------------------------------------- *)

let gemm_name (i : GP.input) = Printf.sprintf "gemm %dx%dx%d" i.m i.n i.k

let check_config_arrays name (want : GP.config array) (got : GP.config array) =
  Alcotest.(check int) (name ^ ": same count") (Array.length want)
    (Array.length got);
  Array.iteri
    (fun i c ->
      if not (GP.equal_config want.(i) c) then
        Alcotest.failf "%s: config %d differs: %s vs %s" name i
          (GP.describe want.(i)) (GP.describe c))
    got

(* Soundness + completeness of the bound-pruned enumerator: the legal
   arrays must equal the unpruned full-cost reference element for
   element (same set, same order). Equal legal sets imply the pruned
   search can never change the argmax. Shapes cover ragged sizes, deep-K
   (exercises the kg bound), every dtype (the register lower bound), and
   randomly drawn inputs. *)
let test_pruned_legal_sets_match_reference () =
  let r = Util.Rng.create 4242 in
  let random_input () =
    GP.input
      ~dtype:(Util.Rng.choice r [| Ptx.Types.F16; Ptx.Types.F32; Ptx.Types.F64 |])
      ~a_trans:(Util.Rng.bool r) ~b_trans:(Util.Rng.bool r)
      (1 + Util.Rng.int r 3000)
      (1 + Util.Rng.int r 3000)
      (1 + Util.Rng.int r 60000)
  in
  let cases =
    [ (Gpu.Device.gtx980ti, GP.input 512 512 512);
      (Gpu.Device.gtx980ti, GP.input ~a_trans:true 2560 16 2560);
      (Gpu.Device.gtx980ti, GP.input ~dtype:Ptx.Types.F16 ~b_trans:true 64 64 8);
      (Gpu.Device.p100, GP.input ~dtype:Ptx.Types.F64 256 256 256);
      (Gpu.Device.p100, GP.input 7 9 13);
      (Gpu.Device.gtx980ti, random_input ());
      (Gpu.Device.p100, random_input ()) ]
  in
  List.iter
    (fun (device, input) ->
      check_config_arrays
        (gemm_name input)
        (Tuner.Search.legal_gemm_config_array_ref device input)
        (Tuner.Search.legal_gemm_config_array device input))
    cases

let test_pruned_conv_legal_matches_reference () =
  let device = Gpu.Device.gtx980ti in
  List.iter
    (fun input ->
      check_config_arrays "conv"
        (Tuner.Search.legal_conv_config_array_ref device input)
        (Tuner.Search.legal_conv_config_array device input))
    [ CP.input ~n:2 ~c:16 ~k:32 ~p:8 ~q:8 ~r:3 ~s:3 ();
      CP.input ~n:1 ~c:3 ~k:64 ~p:112 ~q:112 ~r:7 ~s:7 ~stride:2 ~pad:3
        ~dtype:Ptx.Types.F16 () ]

(* --- reference planner ------------------------------------------------------ *)

(* The §6 pipeline composed from the library's reference components,
   each held to its fast counterpart by its own differential test: the
   unpruned enumeration, every [stride]-th config beyond the cap,
   per-config featurization and the pure-OCaml network, a stable sort by
   descending prediction, and the rebench loop, where a later candidate
   replaces the best only if strictly faster. It shares no ranking code
   with [Search]. *)
let reference_plan ~top_k ~cap ~legal:all ~features ~cost rng device ~profile =
  let n_legal = Array.length all in
  let stride = if n_legal <= cap then 1 else (n_legal + cap - 1) / cap in
  let scored =
    Array.init ((n_legal + stride - 1) / stride) (fun i -> all.(i * stride))
  in
  let pred =
    Array.map
      (fun c ->
        Tuner.Profile.predict_std_one profile (features (GP.config_to_array c)))
      scored
  in
  let order = Array.init (Array.length scored) Fun.id in
  Array.stable_sort (fun a b -> Float.compare pred.(b) pred.(a)) order;
  let candidates =
    Array.map
      (fun row ->
        { Tuner.Search.config = scored.(row);
          predicted_tflops =
            Tuner.Features.untarget profile.Tuner.Profile.scaler pred.(row) })
      (Array.sub order 0 (min top_k (Array.length order)))
  in
  let best = ref None in
  Array.iter
    (fun (c : Tuner.Search.candidate) ->
      match (Gpu.Executor.measure_best_of rng device (cost c.config), !best) with
      | Some m, Some (_, (b : Gpu.Executor.measurement))
        when b.seconds <= m.seconds -> ()
      | Some m, _ -> best := Some (c.config, m)
      | None, _ -> ())
    candidates;
  Option.map
    (fun (best, best_measurement) ->
      { Tuner.Search.best; best_measurement; candidates; n_legal;
        n_scored = Array.length scored; phases = [] })
    !best

let reference_gemm_plan ~top_k ~cap rng device ~profile i =
  let log = profile.Tuner.Profile.log_features in
  reference_plan ~top_k ~cap rng device ~profile
    ~legal:(Tuner.Search.legal_gemm_config_array_ref device i)
    ~features:(Tuner.Features.gemm_features ~log i) ~cost:(GP.cost i)

let bits = Int64.bits_of_float

(* [got] must be [want] bit for bit: the chosen config and its
   measurement, every candidate in order with its prediction, and the
   legal and scored counts. *)
let check_same_plan name (want : Tuner.Search.result option)
    (got : Tuner.Search.result option) =
  match (want, got) with
  | None, None -> ()
  | Some _, None | None, Some _ ->
    Alcotest.failf "%s: exactly one of planner and reference found a plan" name
  | Some w, Some g ->
    let check_int what = Alcotest.(check int) (name ^ ": " ^ what) in
    let check_bits what a b =
      Alcotest.(check int64) (name ^ ": " ^ what) (bits a) (bits b)
    in
    if not (GP.equal_config w.best g.best) then
      Alcotest.failf "%s: best %s, reference %s" name (GP.describe g.best)
        (GP.describe w.best);
    check_bits "measured tflops" w.best_measurement.tflops
      g.best_measurement.tflops;
    check_bits "measured seconds" w.best_measurement.seconds
      g.best_measurement.seconds;
    check_int "n_legal" w.n_legal g.n_legal;
    check_int "n_scored" w.n_scored g.n_scored;
    check_int "candidates" (Array.length w.candidates)
      (Array.length g.candidates);
    Array.iteri
      (fun i (c : Tuner.Search.candidate) ->
        let r = w.candidates.(i) in
        if not (GP.equal_config r.config c.config) then
          Alcotest.failf "%s: candidate %d is %s, reference %s" name i
            (GP.describe c.config) (GP.describe r.config);
        check_bits (Printf.sprintf "candidate %d prediction" i)
          r.predicted_tflops c.predicted_tflops)
      g.candidates

(* The planner must pick the reference plan bit for bit: same legal set,
   same predictions, same ranking, same rebench rng consumption. It runs
   with 3 domains to also cross reference equality with
   domain-invariance. *)
let test_engines_choose_identical_plans () =
  let r = rng () in
  let device = Gpu.Device.gtx980ti in
  let profile = tiny_profile r device in
  List.iter
    (fun input ->
      let got =
        Tuner.Search.exhaustive_gemm ~top_k:10 ~cap:5000 ~domains:3
          (Util.Rng.create 77) device ~profile input
      in
      let want =
        reference_gemm_plan ~top_k:10 ~cap:5000 (Util.Rng.create 77) device
          ~profile input
      in
      check_same_plan (gemm_name input) want got;
      Alcotest.(check (list string)) "phase names"
        [ "enumerate"; "featurize"; "inference"; "argmax"; "rebench" ]
        (List.map fst (Option.get got).phases))
    [ GP.input 512 512 512; GP.input ~b_trans:true 2560 16 2560 ]

let test_engines_choose_identical_conv_plans () =
  let r = rng () in
  let device = Gpu.Device.gtx980ti in
  let ds = Tuner.Dataset.generate_conv r device ~n:800 in
  let profile = Tuner.Profile.train ~arch:[| 32; 32 |] ~epochs:10 r ds in
  let input = CP.input ~n:2 ~c:16 ~k:32 ~p:8 ~q:8 ~r:3 ~s:3 () in
  let log = profile.log_features in
  check_same_plan "conv"
    (reference_plan ~top_k:10 ~cap:5000 (Util.Rng.create 78) device ~profile
       ~legal:(Tuner.Search.legal_conv_config_array_ref device input)
       ~features:(Tuner.Features.conv_features ~log input) ~cost:(CP.cost input))
    (Tuner.Search.exhaustive_conv ~top_k:10 ~cap:5000 (Util.Rng.create 78) device
       ~profile input)

(* Pruning can never change the plan: over randomly drawn lattices
   (shape, dtype, layout, device), the planner and the full-grid
   reference must pick the identical plan. Each case is expensive (the
   reference walks all 806k grid leaves), so the count stays small; the
   legal-set differential above covers many more lattices per second. *)
let prop_pruning_never_changes_argmax =
  let profile =
    lazy (tiny_profile (Util.Rng.create 31415) Gpu.Device.gtx980ti)
  in
  QCheck.Test.make ~name:"pruned argmax = reference argmax" ~count:5
    QCheck.small_int (fun seed ->
      let r = Util.Rng.create (seed + 9001) in
      let input =
        GP.input
          ~dtype:
            (Util.Rng.choice r [| Ptx.Types.F16; Ptx.Types.F32; Ptx.Types.F64 |])
          ~a_trans:(Util.Rng.bool r) ~b_trans:(Util.Rng.bool r)
          (1 + Util.Rng.int r 4000)
          (1 + Util.Rng.int r 512)
          (1 + Util.Rng.int r 8000)
      in
      let device =
        if Util.Rng.bool r then Gpu.Device.gtx980ti else Gpu.Device.p100
      in
      let profile = Lazy.force profile in
      (* Fresh rng per planner: identical rebench draws. *)
      check_same_plan (gemm_name input)
        (reference_gemm_plan ~top_k:5 ~cap:2000 (Util.Rng.create 55) device
           ~profile input)
        (Tuner.Search.exhaustive_gemm ~top_k:5 ~cap:2000 ~domains:1
           (Util.Rng.create 55) device ~profile input);
      true)

(* --- legality classes -------------------------------------------------------- *)

(* The least [k] that passes each K-split check [ceil (k / kg) >= u]
   with [kg > 1]: [(u - 1) * kg + 1]. Between two consecutive ones
   every check gives the same answer, so the lattice has one legality
   class per interval (25 per dtype). *)
let ksplit_thresholds =
  List.sort_uniq compare
    (List.concat_map
       (fun kg ->
         if kg = 1 then []
         else List.map (fun u -> ((u - 1) * kg) + 1) (Array.to_list GP.values_u))
       (Array.to_list GP.values_kg))

(* The first and last [k] of every class, ascending: 1, then each
   threshold minus one and the threshold itself, then a deep K. *)
let class_bounds =
  let ts = ksplit_thresholds in
  List.combine (1 :: ts) (List.map (fun t -> t - 1) ts @ [ 65536 ])

(* Same class => same legal set: for each dtype on both devices, the
   two ends of every class, with different m, n and transposes, get
   equal legal arrays; each class adds configurations to the one below
   it, so the classes really differ. A few are held to the unpruned
   reference too. *)
let test_class_shares_legal_set () =
  List.iter
    (fun device ->
      List.iter
        (fun dtype ->
          let legal ?(m = 96) ?(n = 40) ?(a_trans = false) ?(b_trans = false) k =
            Tuner.Search.legal_gemm_config_array device
              (GP.input ~dtype ~a_trans ~b_trans m n k)
          in
          let name k =
            Printf.sprintf "%s %s k=%d" device.Gpu.Device.name
              (Ptx.Types.dtype_name dtype) k
          in
          ignore
            (List.fold_left
               (fun below (lo, hi) ->
                 let first = legal lo in
                 check_config_arrays (name hi) first
                   (legal ~m:3000 ~n:7 ~a_trans:true ~b_trans:true hi);
                 if Array.length first <= below then
                   Alcotest.failf "%s: %d legal configurations, %d below it"
                     (name lo) (Array.length first) below;
                 Array.length first)
               (-1) class_bounds))
        [ Ptx.Types.F16; Ptx.Types.F32; Ptx.Types.F64 ])
    [ Gpu.Device.gtx980ti; Gpu.Device.p100 ];
  List.iter
    (fun (device, input) ->
      check_config_arrays (gemm_name input)
        (Tuner.Search.legal_gemm_config_array_ref device input)
        (Tuner.Search.legal_gemm_config_array device input))
    [ (Gpu.Device.gtx980ti, GP.input ~dtype:Ptx.Types.F16 ~b_trans:true 33 17 25);
      (Gpu.Device.p100, GP.input ~dtype:Ptx.Types.F64 ~a_trans:true 200 9 24) ]

(* A class hit plans exactly as a fresh planner does. One planner plans
   a sequence of inputs whose classes repeat, and whose K crosses class
   boundaries (k = 32 then 2560, 40, 2000), at two caps; then the class
   of k = 2560 on a GTX 980 Ti with half the shared memory per block (a
   key without the device would hand it the full device's rows: the
   two shipped devices have equal legality limits), on the P100, and
   again on the GTX 980 Ti under the P100's profile (features follow
   the request's profile, not the memo's history). Each plan must
   equal, bit for bit, the plan of a planner that has seen nothing. *)
let test_class_hit_equals_fresh () =
  let g = Gpu.Device.gtx980ti and p = Gpu.Device.p100 in
  let half =
    { g with Gpu.Device.name = "GTX 980 Ti, 24 KiB shared";
             shared_per_block_max = 24 * 1024 }
  in
  let pg = tiny_profile (Util.Rng.create 31) g in
  let pp = tiny_profile (Util.Rng.create 32) p in
  let planner = Tuner.Search.planner () in
  List.iter
    (fun (device, profile, cap, input) ->
      let plan ?planner () =
        Tuner.Search.exhaustive_gemm ~top_k:10 ~cap ~domains:1 ?planner
          (Util.Rng.create 91) device ~profile input
      in
      check_same_plan
        (Printf.sprintf "%s %s cap %d" device.Gpu.Device.name (gemm_name input) cap)
        (plan ()) (plan ~planner ()))
    [ (g, pg, 3000, GP.input 256 256 32);
      (g, pg, 3000, GP.input 256 256 2560);
      (g, pg, 3000, GP.input ~a_trans:true 1024 64 40);
      (g, pg, 3000, GP.input ~b_trans:true 64 1024 2000);
      (g, pg, 5000, GP.input 128 512 2560);
      (g, pg, 3000, GP.input ~dtype:Ptx.Types.F64 512 512 2560);
      (half, pg, 3000, GP.input 256 256 2560);
      (p, pp, 3000, GP.input 256 256 2560);
      (g, pp, 3000, GP.input 512 128 2560) ]

(* Four domains planning four inputs of one class at once through one
   planner walk the class once: one [search.class_miss], three
   [search.class_hit] (waits on the walk count as hits), and every plan
   equals a fresh planner's. *)
let test_racing_class_misses_walk_once () =
  let device = Gpu.Device.gtx980ti in
  let profile = tiny_profile (Util.Rng.create 33) device in
  let planner = Tuner.Search.planner () in
  let inputs = List.init 4 (fun d -> GP.input (128 * (d + 1)) 96 (2048 + d)) in
  let plan ?planner input =
    Tuner.Search.exhaustive_gemm ~top_k:5 ~cap:3000 ~domains:1 ?planner
      (Util.Rng.create 5) device ~profile input
  in
  let trace = Filename.temp_file "tuner_classes" ".jsonl" in
  Obs.Telemetry.reset ();
  Obs.Trace.start ~path:trace ();
  let raced =
    List.map (fun i -> Domain.spawn (fun () -> plan ~planner i)) inputs
    |> List.map Domain.join
  in
  Obs.Trace.stop ();
  Sys.remove trace;
  let count name = Option.get (Obs.Telemetry.counter_value name) in
  Alcotest.(check int) "one walk" 1 (count "search.class_miss");
  Alcotest.(check int) "three served from it" 3 (count "search.class_hit");
  List.iter2
    (fun i got -> check_same_plan (gemm_name i) (plan i) got)
    inputs raced

let () =
  Alcotest.run "tuner"
    [ ("config space",
       [ quick "size" test_space_size;
         quick "iter count" test_space_iter_count;
         quick "value index" test_value_index;
         quick "random in grid" test_random_in_grid ]);
      ("sampler",
       [ quick "learns marginals" test_sampler_learns_marginals;
         quick "dirichlet prior" test_sampler_dirichlet_prior_no_zero;
         quick "sample_legal" test_sample_legal ]);
      ("features",
       [ quick "gemm features" test_gemm_features;
         quick "query cache bit-equal" test_query_features_match_uncached;
         quick "target scaler" test_target_scaler_roundtrip ]);
      ("dataset",
       [ quick "gemm generation" test_dataset_generation;
         quick "conv generation" test_dataset_conv_generation;
         quick "parallel generation" test_dataset_parallel_generation;
         quick "legality consistency" test_legality_split ]);
      ("profile validation",
       quick "valid handmade profile plans" test_handmade_profile_plans
       :: List.map
            (fun (name, reason, payload) -> quick name (rejects ~reason payload))
            profile_defects);
      ("profile+search",
       [ Alcotest.test_case "profile save/load" `Slow test_profile_save_load;
         Alcotest.test_case "parallel scoring" `Slow test_search_parallel_scoring;
         Alcotest.test_case "search returns legal" `Slow test_search_returns_legal;
         Alcotest.test_case "search beats median" `Slow test_search_beats_median_kernel;
         Alcotest.test_case "oracle upper bound" `Slow test_oracle_is_upper_bound;
         Alcotest.test_case "cap subsampling" `Slow test_subsample_cap;
         quick "bad cap and top_k rejected" test_search_rejects_bad_cap_and_top_k;
         QCheck_alcotest.to_alcotest prop_top_k_is_stable_sort_prefix ]);
      ("pruned enumeration",
       [ Alcotest.test_case "gemm legal sets match reference" `Slow
           test_pruned_legal_sets_match_reference;
         Alcotest.test_case "conv legal sets match reference" `Slow
           test_pruned_conv_legal_matches_reference;
         Alcotest.test_case "engines choose identical plans" `Slow
           test_engines_choose_identical_plans;
         Alcotest.test_case "conv engines agree" `Slow
           test_engines_choose_identical_conv_plans;
         QCheck_alcotest.to_alcotest prop_pruning_never_changes_argmax ]);
      ("legality classes",
       [ Alcotest.test_case "same class, same legal set" `Slow
           test_class_shares_legal_set;
         Alcotest.test_case "class hit = fresh plan" `Slow
           test_class_hit_equals_fresh;
         Alcotest.test_case "racing misses walk once" `Slow
           test_racing_class_misses_walk_once ]) ]
