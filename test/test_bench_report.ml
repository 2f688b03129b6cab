(* Benchmark observatory: BENCH report JSON round-trips and schema
   validation, the statistical regression gate (deterministic tolerance,
   CI-overlap rule for timing metrics, shape-check transitions), the
   percentile-bootstrap confidence interval and robust-stats helpers
   behind it, and model-vs-counter attribution on synthetic samples with
   known proportionality. *)

module BR = Obs.Bench_report
module R = Obs.Regress

let quick name f = Alcotest.test_case name `Quick f

let env =
  { BR.rev = "deadbeef1234";
    seed = 42;
    repro_scale = 0.5;
    device = "GTX 980 Ti, Tesla P100";
    argv = [ "main.exe"; "table1" ];
    knobs = [ ("REPRO_SCALE", "0.5"); ("REPRO_SEED", "42") ];
    ocaml_version = Sys.ocaml_version;
    hostname = "testhost" }

let metric ?ci ?n ?(kind = BR.Deterministic) ?(direction = BR.Higher_better)
    ?(experiment = "t") ?(unit_ = "x") name value =
  { BR.m_name = name; m_experiment = experiment; value; unit_; direction;
    kind; ci; n }

let report ?(experiments = []) ?(attribution = []) metrics =
  { BR.version = BR.schema_version; env; experiments; metrics; attribution }

(* --- serialization ------------------------------------------------------ *)

let full_report () =
  report
    ~experiments:
      [ { BR.key = "table1"; wall_seconds = 1.25;
          checks =
            [ { BR.claim = "acceptance ratio"; paper = "200x"; ours = "310x";
                pass = true };
              { BR.claim = "under 2h"; paper = "< 2 h"; ours = "0.01 h";
                pass = false } ] } ]
    ~attribution:
      [ { BR.term = "mem_seconds"; counter = "interp.global_transactions";
          a_n = 48; pearson_r = 0.93; scale = 2.5e-9; drift = 0.12 } ]
    [ metric "fig6.geomean" 4.25 ~ci:(4.0, 4.5) ~n:14;
      metric "micro.sample" 131.0 ~kind:BR.Timing ~direction:BR.Lower_better;
      metric "info.only" 7.0 ~direction:BR.Neutral ]

let test_roundtrip () =
  let t = full_report () in
  (match BR.of_json (Obs.Json.of_string (Obs.Json.to_string (BR.to_json t))) with
   | Ok t' ->
     Alcotest.(check bool) "round-trip preserves the report" true (t = t')
   | Error e -> Alcotest.failf "round-trip failed: %s" e);
  let path = Filename.temp_file "isaac_bench" ".json" in
  BR.write ~path t;
  (match BR.load path with
   | Ok t' -> Alcotest.(check bool) "file round-trip" true (t = t')
   | Error e -> Alcotest.failf "load failed: %s" e);
  Sys.remove path

let test_schema_validation () =
  let json = BR.to_json (full_report ()) in
  let tamper f =
    match json with
    | Obs.Json.Obj fields -> Obs.Json.Obj (List.map f fields)
    | _ -> Alcotest.fail "report did not serialize to an object"
  in
  let newer =
    tamper (fun (k, v) ->
        if k = "version" then (k, Obs.Json.Int (BR.schema_version + 1))
        else (k, v))
  in
  (match BR.of_json newer with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "accepted a newer schema version");
  let wrong_schema =
    tamper (fun (k, v) ->
        if k = "schema" then (k, Obs.Json.String "other") else (k, v))
  in
  (match BR.of_json wrong_schema with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "accepted a foreign schema name");
  match BR.of_json (Obs.Json.Obj [ ("schema", Obs.Json.String "x") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a truncated report"

let test_filename () =
  Alcotest.(check string) "filename" "BENCH_abc123.json"
    (BR.filename ~rev:"abc123")

(* --- regression gate ---------------------------------------------------- *)

let names l = List.map (fun c -> c.R.c_name) l

let test_deterministic_gate () =
  let base = report [ metric "fig6.geomean" 4.0; metric "table2.mse" 0.08
                        ~direction:BR.Lower_better ] in
  (* 20% TFLOPS drop and 50% MSE growth: both significant. *)
  let cand = report [ metric "fig6.geomean" 3.2; metric "table2.mse" 0.12
                        ~direction:BR.Lower_better ] in
  let regs = R.regressions (R.compare_reports base cand) in
  Alcotest.(check (list string)) "both deterministic drifts flagged"
    [ "fig6.geomean"; "table2.mse" ] (names regs);
  (* 0.5% drift stays inside the tolerance; improvement never flags. *)
  let cand = report [ metric "fig6.geomean" 3.99; metric "table2.mse" 0.02
                        ~direction:BR.Lower_better ] in
  let comps = R.compare_reports base cand in
  Alcotest.(check int) "no regressions" 0 (List.length (R.regressions comps));
  let v name =
    (List.find (fun c -> c.R.c_name = name) comps).R.verdict
  in
  Alcotest.(check bool) "small drift unchanged" true (v "fig6.geomean" = R.Unchanged);
  Alcotest.(check bool) "improvement recognised" true (v "table2.mse" = R.Improved)

let test_timing_ci_gate () =
  let timing ?ci v =
    metric "micro.op" v ?ci ~kind:BR.Timing ~direction:BR.Lower_better
  in
  let gate base cand = R.regressions (R.compare_reports base cand) <> [] in
  (* 40% slower but overlapping CIs: noise, not a regression. *)
  Alcotest.(check bool) "overlapping CIs not flagged" false
    (gate
       (report [ timing 100.0 ~ci:(80.0, 150.0) ])
       (report [ timing 140.0 ~ci:(120.0, 200.0) ]));
  (* 40% slower with disjoint CIs: significant. *)
  Alcotest.(check bool) "disjoint CIs flagged" true
    (gate
       (report [ timing 100.0 ~ci:(95.0, 105.0) ])
       (report [ timing 140.0 ~ci:(132.0, 148.0) ]));
  (* Disjoint but under the 25% threshold: reported, not significant. *)
  let comps =
    R.compare_reports
      (report [ timing 100.0 ~ci:(99.0, 101.0) ])
      (report [ timing 110.0 ~ci:(109.0, 111.0) ])
  in
  Alcotest.(check int) "small disjoint shift not significant" 0
    (List.length (R.regressions comps));
  Alcotest.(check bool) "but still a worsening" true (R.worsened comps <> []);
  (* Without CIs only the generous wall threshold applies. *)
  Alcotest.(check bool) "CI-less 40% not flagged" false
    (gate (report [ timing 100.0 ]) (report [ timing 140.0 ]));
  Alcotest.(check bool) "CI-less 80% flagged" true
    (gate (report [ timing 100.0 ]) (report [ timing 180.0 ]))

let test_wall_and_checks () =
  let exp ?(pass = true) key wall =
    { BR.key; wall_seconds = wall;
      checks = [ { BR.claim = "c"; paper = "p"; ours = "o"; pass } ] }
  in
  let base = report ~experiments:[ exp "fig6" 10.0 ] [] in
  (* Wall time doubles: synthesized wall.fig6 metric past the threshold. *)
  let cand = report ~experiments:[ exp "fig6" 21.0 ] [] in
  Alcotest.(check (list string)) "wall regression" [ "wall.fig6" ]
    (names (R.regressions (R.compare_reports base cand)));
  (* A passing check that now fails is always significant. *)
  let cand = report ~experiments:[ exp ~pass:false "fig6" 10.0 ] [] in
  Alcotest.(check (list string)) "check regression" [ "check:fig6/c" ]
    (names (R.regressions (R.compare_reports base cand)));
  (* Same-report comparison is entirely clean. *)
  Alcotest.(check int) "self-diff clean" 0
    (List.length (R.regressions (R.compare_reports base base)))

let test_missing_and_new () =
  let base = report [ metric "a" 1.0; metric "b" 2.0 ] in
  let cand = report [ metric "a" 1.0; metric "c" 3.0 ] in
  let comps = R.compare_reports base cand in
  let v name = (List.find (fun c -> c.R.c_name = name) comps).R.verdict in
  Alcotest.(check bool) "dropped metric missing" true (v "b" = R.Missing);
  Alcotest.(check bool) "added metric new" true (v "c" = R.New);
  Alcotest.(check int) "neither significant" 0
    (List.length (R.regressions comps));
  Alcotest.(check bool) "strict mode sees the loss" true
    (List.exists (fun c -> c.R.c_name = "b") (R.worsened comps))

let test_knob_notes () =
  let with_knobs knobs = { (report []) with BR.env = { env with BR.knobs } } in
  let base =
    with_knobs [ ("A", "1"); ("B", "same"); ("GONE", "true"); ("C", "x") ]
  in
  let cand = with_knobs [ ("A", "2"); ("B", "same"); ("C", "x"); ("NEW", "") ] in
  Alcotest.(check (list string)) "one note per differing knob"
    [ {|knob A differs: baseline "1", candidate "2"|};
      {|knob GONE differs: baseline "true", candidate unset|};
      {|knob NEW differs: baseline unset, candidate ""|} ]
    (R.knob_notes base cand);
  Alcotest.(check (list string)) "equal knobs: no note" []
    (R.knob_notes base base)

(* --- robust statistics -------------------------------------------------- *)

let test_mad () =
  Alcotest.(check (float 1e-9)) "outlier-immune spread" 1.0
    (Util.Stats.mad [| 1.0; 2.0; 3.0; 4.0; 100.0 |]);
  Alcotest.(check (float 1e-9)) "constant data" 0.0
    (Util.Stats.mad [| 5.0; 5.0; 5.0 |])

let test_percentile_single () =
  let a = [| 7.5 |] in
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%.0f of singleton" p)
        7.5 (Util.Stats.percentile a p))
    [ 0.0; 2.5; 50.0; 97.5; 100.0 ]

let test_bootstrap_ci () =
  (* Constant data: every resample has the same median, so the interval
     is degenerate at that value. *)
  let rng = Util.Rng.create 7 in
  let lo, hi =
    Util.Stats.bootstrap_ci rng [| 3.0; 3.0; 3.0; 3.0 |]
      ~estimator:Util.Stats.median
  in
  Alcotest.(check (float 1e-9)) "constant lo" 3.0 lo;
  Alcotest.(check (float 1e-9)) "constant hi" 3.0 hi;
  (* Singleton: only one possible resample. *)
  let lo, hi =
    Util.Stats.bootstrap_ci (Util.Rng.create 7) [| 9.0 |]
      ~estimator:Util.Stats.median
  in
  Alcotest.(check (float 1e-9)) "singleton lo" 9.0 lo;
  Alcotest.(check (float 1e-9)) "singleton hi" 9.0 hi;
  (* Spread data: the interval brackets the sample estimate, stays inside
     the data range, and is deterministic for a fixed seed. *)
  let a = [| 10.0; 11.0; 12.0; 13.0; 14.0; 15.0; 16.0; 17.0; 18.0; 19.0 |] in
  let est = Util.Stats.median a in
  let lo, hi =
    Util.Stats.bootstrap_ci (Util.Rng.create 42) a ~estimator:Util.Stats.median
  in
  Alcotest.(check bool) "lo <= estimate <= hi" true (lo <= est && est <= hi);
  Alcotest.(check bool) "inside data range" true (lo >= 10.0 && hi <= 19.0);
  Alcotest.(check bool) "nondegenerate" true (hi > lo);
  let lo', hi' =
    Util.Stats.bootstrap_ci (Util.Rng.create 42) a ~estimator:Util.Stats.median
  in
  Alcotest.(check (float 0.0)) "deterministic lo" lo lo';
  Alcotest.(check (float 0.0)) "deterministic hi" hi hi';
  (* Tighter confidence gives a narrower (or equal) interval. *)
  let lo50, hi50 =
    Util.Stats.bootstrap_ci (Util.Rng.create 42) a ~confidence:0.5
      ~estimator:Util.Stats.median
  in
  Alcotest.(check bool) "narrower at 50%" true (hi50 -. lo50 <= hi -. lo)

(* --- attribution -------------------------------------------------------- *)

let perf_report ~arith ~global_bytes ~shared ~overhead =
  { Gpu.Perf_model.seconds = arith +. shared +. overhead;
    tflops = 1.0; occupancy = 1.0; warps_per_sm = 1; blocks_per_sm = 1;
    l2_hit_rate = 0.0; effective_dram_gbs = 0.0; global_bytes;
    bound = Gpu.Perf_model.Memory; arith_seconds = arith;
    mem_seconds = 1e-9 *. global_bytes; shared_seconds = shared;
    overhead_seconds = overhead }

let synthetic_sample i =
  let c = Ptx.Interp.zero_counters () in
  c.Ptx.Interp.ialu <- 100 * i;
  c.Ptx.Interp.fma <- 40 * i;
  c.Ptx.Interp.ld_shared <- 8 * i;
  c.Ptx.Interp.ld_global <- 2 * i;
  c.Ptx.Interp.gld_transactions <- 10 * i;
  c.Ptx.Interp.gst_transactions <- 5 * i;
  c.Ptx.Interp.shared_transactions <- 7 * i;
  c.Ptx.Interp.bar <- i;
  { Gpu.Attribution.label = Printf.sprintf "cfg%d" i;
    kernel_hash = None;
    report =
      perf_report
        ~arith:(1e-9 *. float_of_int (100 * i))
        ~global_bytes:(32.0 *. float_of_int (15 * i))
        ~shared:(3e-9 *. float_of_int (7 * i))
        ~overhead:(4e-9 *. float_of_int i);
    counters = c }

let test_attribution_proportional () =
  let samples = List.init 6 (fun i -> synthetic_sample (i + 1)) in
  let rows = Gpu.Attribution.correlate samples in
  Alcotest.(check int) "one row per pairing"
    (List.length Gpu.Attribution.pairings)
    (List.length rows);
  List.iter
    (fun (r : Gpu.Attribution.row) ->
      Alcotest.(check int) (r.term ^ " n") 6 r.n;
      Alcotest.(check (float 1e-6)) (r.term ^ " perfectly correlated") 1.0
        r.pearson_r;
      Alcotest.(check (float 1e-6)) (r.term ^ " zero drift") 0.0 r.drift)
    rows;
  let scale term =
    (List.find (fun (r : Gpu.Attribution.row) -> r.term = term) rows)
      .Gpu.Attribution.scale
  in
  Alcotest.(check (float 1e-9)) "mem bytes per transaction" 32.0
    (scale "mem_seconds");
  Alcotest.(check (float 1e-15)) "overhead exchange rate" 4e-9
    (scale "overhead_seconds")

let test_attribution_degenerate () =
  (* Fewer than two samples, or zero variance: r must be nan, not a crash. *)
  let rows = Gpu.Attribution.correlate [ synthetic_sample 3 ] in
  List.iter
    (fun (r : Gpu.Attribution.row) ->
      Alcotest.(check bool) (r.term ^ " nan r on n=1") true
        (Float.is_nan r.pearson_r))
    rows;
  let rows =
    Gpu.Attribution.correlate [ synthetic_sample 2; synthetic_sample 2 ]
  in
  List.iter
    (fun (r : Gpu.Attribution.row) ->
      Alcotest.(check bool) (r.term ^ " nan r on zero variance") true
        (Float.is_nan r.pearson_r))
    rows

let () =
  Alcotest.run "bench_report"
    [ ( "serialization",
        [ quick "round-trip" test_roundtrip;
          quick "schema validation" test_schema_validation;
          quick "filename" test_filename ] );
      ( "regression gate",
        [ quick "deterministic tolerance" test_deterministic_gate;
          quick "timing CI overlap" test_timing_ci_gate;
          quick "wall times and shape checks" test_wall_and_checks;
          quick "missing and new metrics" test_missing_and_new;
          quick "knob notes" test_knob_notes ] );
      ( "statistics",
        [ quick "mad" test_mad;
          quick "percentile singleton" test_percentile_single;
          quick "bootstrap CI" test_bootstrap_ci ] );
      ( "attribution",
        [ quick "proportional samples" test_attribution_proportional;
          quick "degenerate inputs" test_attribution_degenerate ] ) ]
