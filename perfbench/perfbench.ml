(* The benchmark executable. [run.py] builds it, prepares the profiles
   once per checkout ([prepare]) and then runs one workload per process:

     perfbench.exe prepare --profiles DIR
     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   --profiles DIR [--spans FILE]

   The last line of standard output is the result object; the lines
   before it record the run's knobs and its determinism digests. *)

let prepare_samples = 8000
let prepare_epochs = 30

(* Untimed preparation: the GEMM and CONV profiles the serving and
   execution workloads load, trained at a fixed seed on one domain so
   every checkout of a commit prepares byte-identical files. *)
let prepare dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (op, name, seed) ->
      let engine =
        Isaac.tune ~samples:prepare_samples ~epochs:prepare_epochs ~domains:1
          (Util.Rng.create seed) Shapes.device ~op ()
      in
      Tuner.Profile.save (Isaac.profile engine) (Filename.concat dir name))
    [ (`Gemm, "gemm.profile", 2017); (`Conv, "conv.profile", 2018) ]

let workloads =
  [ ("cold_plan", Cold_plan.run);
    ("warm_serve", Warm_serve.run);
    ("tune", Tune.run);
    ("execute", Execute.run) ]

let json_num x = Obs.Json.Float x

let metric unit_ value = Obs.Json.Obj [ ("value", json_num value); ("unit", Obs.Json.String unit_) ]

(* p50_ms, tail_ms and ops_per_s of a latency sample in seconds. *)
let timings lat tail_q =
  [ ("p50_ms", "ms", 1e3 *. Measure.median lat);
    ("tail_ms", "ms", 1e3 *. Measure.percentile lat tail_q);
    ("ops_per_s", "1/s", float_of_int (Array.length lat) /. Measure.sum lat) ]

let end_to_end (r : Common.result) =
  timings (Calib.scale ~every:r.calib_every r.latencies) r.tail_q
  @ [ ("setup_s", "s", r.setup_s);
      ("peak_rss_mb", "MiB", Measure.peak_rss_mb ());
      ("speedup_vs_vendor", "x", r.speedup);
      ("model_mse", "mse", r.mse) ]
  |> List.map (fun (name, unit_, v) -> (name, metric unit_ v))

(* Share of the untraced op time that the replayed layers' self times
   explain: every op span except the root and the entry point. *)
let coverage (r : Common.result) =
  let untraced = Measure.sum r.latencies in
  if untraced > 0.0 then Spans.self_sum ~excluding:[ "op"; r.entry ] /. untraced else 0.0

let count (r : Common.result) name =
  Option.value ~default:0.0 (List.assoc_opt name r.counts)

(* Per-layer metrics, the same names on every workload: a layer the
   workload bypasses reads 0. Times are self times per traced op. *)
let per_layer (r : Common.result) =
  let ops = float_of_int (max 1 (Spans.calls "op")) in
  let per_op scale name = Spans.self_s name /. ops *. scale in
  let per_setup_call scale name =
    let c = Spans.calls ~setup:true name in
    if c = 0 then 0.0 else Spans.self_s ~setup:true name /. float_of_int c *. scale
  in
  let rate work name =
    let s = Spans.self_s name in
    if s <= 0.0 then 0.0 else count r work *. ops /. s
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  [ ("serve.parse_us", "us", per_op 1e6 "serve.parse");
    ("serve.serialize_us", "us", per_op 1e6 "serve.serialize");
    ("serve.self_us", "us", if r.entry = "serve.handle" then per_op 1e6 "serve.handle" else 0.0);
    ("cache.hit_us", "us", per_op 1e6 "cache.hit");
    ("cache.hits", "count", count r "cache.hits");
    ("cache.misses", "count", count r "cache.misses");
    ("search.enumerate_ms", "ms", per_op 1e3 "search.enumerate");
    ("search.topk_ms", "ms", per_op 1e3 "search.topk");
    ("search.n_legal", "count", count r "search.n_legal");
    ("search.n_scored", "count", count r "search.n_scored");
    ("features.fill_ms", "ms", per_op 1e3 "features.fill");
    ("mlp.infer_ms", "ms", per_op 1e3 "mlp.infer");
    ("mlp.infer_rows_per_s", "1/s", rate "mlp.rows" "mlp.infer");
    ("executor.rebench_ms", "ms", per_op 1e3 "executor.rebench");
    ("executor.calls", "count", count r "executor.calls");
    ("codegen.generate_ms", "ms", per_op 1e3 "codegen.generate");
    ("codegen.instrs", "count", count r "codegen.instrs");
    ("regalloc.ms", "ms", per_op 1e3 "regalloc");
    ("encode.ms", "ms", per_op 1e3 "encode");
    ("encode.bytes", "count", count r "encode.bytes");
    ("interp.ms", "ms", per_op 1e3 "interp");
    ("interp.dyn_instrs", "count", count r "interp.dyn_instrs");
    ("interp.instrs_per_s", "1/s", rate "interp.dyn_instrs" "interp");
    ("sampler.fit_ms", "ms", per_setup_call 1e3 "sampler.fit");
    ("sampler.acceptance", "ratio", count r "sampler.acceptance");
    ("dataset.generate_ms", "ms", per_op 1e3 "dataset.generate");
    ("dataset.samples_per_s", "1/s", rate "dataset.samples" "dataset.generate");
    ("train.ms", "ms", per_op 1e3 "train");
    ("train.rows_per_s", "1/s", rate "train.rows" "train");
    ("profile.load_ms", "ms", per_setup_call 1e3 "profile.load");
    ("trace.coverage", "ratio", coverage r);
    ("trace.overhead_p50", "ratio",
     ratio (Measure.median r.traced) (Measure.median r.latencies));
    ("trace.overhead_tail", "ratio",
     ratio (Measure.percentile r.traced r.tail_q) (Measure.percentile r.latencies r.tail_q));
    ("trace.overhead_ops_per_s", "ratio", ratio (Measure.sum r.traced) (Measure.sum r.latencies)) ]
  |> List.map (fun (name, unit_, v) -> (name, metric unit_ v))

let file_digest path =
  if Sys.file_exists path then Digest.to_hex (Digest.file path) else "missing"

let file_size path = if Sys.file_exists path then (Unix.stat path).st_size else 0

let print_line fields = print_endline (Obs.Json.to_string (Obs.Json.Obj fields))

let run ~workload ~seed ~seconds ~trace ~profiles ~spans_out =
  let f =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None -> failwith ("unknown workload " ^ workload)
  in
  let ctx =
    { Common.seed; seconds; trace;
      gemm_profile = Filename.concat profiles "gemm.profile";
      conv_profile = Filename.concat profiles "conv.profile" }
  in
  Spans.enabled := trace;
  let t0 = Measure.now_ns () in
  let r = f ctx in
  let coverage_ok = (not trace) || coverage r >= r.coverage_floor in
  if not coverage_ok then
    prerr_endline
      (Printf.sprintf "perfbench: %s layer coverage below %.2f of untraced op time"
         workload r.coverage_floor);
  let metrics = if trace then per_layer r else end_to_end r in
  Option.iter (fun path -> if trace then Spans.write path ~t0) spans_out;
  print_line
    [ ( "knobs",
        Obs.Json.Obj
          ([ ("workload", Obs.Json.String workload);
             ("seed", Obs.Json.Int seed);
             ("seconds", Obs.Json.Float seconds);
             ("trace", Obs.Json.Bool trace);
             ("domains", Obs.Json.Int (Util.Parallel.recommended_domains ()));
             ("min_ops", Obs.Json.Int r.min_ops);
             ("tail_percentile", Obs.Json.Float (100.0 *. r.tail_q));
             ("samples", Obs.Json.Int (Array.length r.latencies));
             ("calib_every", Obs.Json.Int r.calib_every);
             ("calib_reference_s", Obs.Json.Float Calib.reference_s);
             ("calib_median_s", Obs.Json.Float (Measure.median (Measure.Samples.to_array Calib.readings)));
             ( "raw",
               Obs.Json.Obj
                 (List.map (fun (name, _, v) -> (name, json_num v))
                    (timings r.latencies r.tail_q @ [ ("setup_s", "s", r.setup_raw_s) ])) );
             ("coverage_floor", Obs.Json.Float r.coverage_floor);
             ("prepare", Obs.Json.Obj
                [ ("samples", Obs.Json.Int prepare_samples);
                  ("epochs", Obs.Json.Int prepare_epochs) ]);
             ("profiles",
              Obs.Json.Obj
                (List.map
                   (fun p ->
                     ( Filename.basename p,
                       Obs.Json.Obj
                         [ ("md5", Obs.Json.String (file_digest p));
                           ("bytes", Obs.Json.Int (file_size p)) ] ))
                   [ ctx.gemm_profile; ctx.conv_profile ]));
             ("env", Obs.Json.Obj
                (List.map (fun (k, v) -> (k, Obs.Json.String v))
                   (("ISAAC_DOMAINS", Option.value ~default:"" (Sys.getenv_opt "ISAAC_DOMAINS"))
                    :: Util.Env_config.snapshot ()))) ]
           @ r.notes) ) ];
  print_line
    [ ( "determinism",
        Obs.Json.Obj
          (List.map (fun (k, v) -> (k, Obs.Json.String v)) r.digest
           @ [ ("speedup_vs_vendor", json_num r.speedup); ("model_mse", json_num r.mse) ]
           @ List.map (fun (k, v) -> (k, json_num v)) r.counts) ) ];
  print_line
    [ ("correct", Obs.Json.Bool (r.failed = 0 && coverage_ok));
      ("attempted", Obs.Json.Int r.attempted);
      ("failed", Obs.Json.Int r.failed);
      ("metrics", Obs.Json.Obj metrics) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let profiles = ref "" and spans_out = ref None and prepare_only = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed phase length");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--profiles", Arg.Set_string profiles, "DIR prepared profiles");
      ("--spans", Arg.String (fun s -> spans_out := Some s), "FILE write the traced spans") ]
  in
  Arg.parse spec
    (function
      | "prepare" -> prepare_only := true
      | a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe [prepare] --profiles DIR [--workload NAME --seed N --seconds S --trace 0|1]";
  if !profiles = "" then (prerr_endline "perfbench: --profiles is required"; exit 2);
  if !prepare_only then prepare !profiles
  else
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~profiles:!profiles ~spans_out:!spans_out
