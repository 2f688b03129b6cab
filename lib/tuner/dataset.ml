module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params

type t = {
  op : [ `Gemm | `Conv ];
  device : string;
  features_log : Mlp.Matrix.t;
  features_raw : Mlp.Matrix.t;
  tflops : float array;
}

let size t = Array.length t.tflops

let default_dtypes : Ptx.Types.dtype list = [ F16; F32; F64 ]

let log_uniform_int rng lo hi =
  let x = Util.Rng.uniform rng in
  let v = Float.exp (Float.log (float_of_int lo) +. (x *. Float.log (float_of_int hi /. float_of_int lo))) in
  max lo (min hi (int_of_float (Float.round v)))

let random_gemm_input ?(dtypes = default_dtypes) rng =
  let dtype = Util.Rng.choice rng (Array.of_list dtypes) in
  { GP.m = log_uniform_int rng 16 4096;
    n = log_uniform_int rng 16 4096;
    k = log_uniform_int rng 16 65536;
    dtype;
    a_trans = Util.Rng.bool rng;
    b_trans = Util.Rng.bool rng }

let random_conv_input ?(dtypes = default_dtypes) rng =
  let dtype = Util.Rng.choice rng (Array.of_list dtypes) in
  let r = Util.Rng.choice rng [| 1; 3; 5; 7 |] in
  let s = Util.Rng.choice rng [| 1; 3; 5; 7 |] in
  (* Strides/padding change only the gather tables, but sampling them
     keeps the training distribution honest about real layer specs. *)
  let stride = Util.Rng.choice rng [| 1; 1; 1; 2 |] in
  let pad = Util.Rng.int rng ((min r s / 2) + 1) in
  CP.input ~dtype ~stride ~pad
    ~n:(log_uniform_int rng 1 32)
    ~c:(log_uniform_int rng 1 1024)
    ~k:(log_uniform_int rng 8 2048)
    ~p:(log_uniform_int rng 4 128)
    ~q:(log_uniform_int rng 4 128)
    ~r ~s ()

let gemm_legal device input cfg_array =
  let cfg = GP.config_of_array cfg_array in
  GP.structurally_legal input cfg
  && Gpu.Executor.legal device (GP.cost input cfg)

let conv_legal device input cfg_array =
  let cfg = GP.config_of_array cfg_array in
  CP.structurally_legal input cfg
  && Gpu.Executor.legal device (CP.cost input cfg)

(* Static-verifier oracles: generate the kernel for an
   already-legal configuration and require a clean {!Ptx.Verify} report.
   Orders of magnitude cheaper than an interpreter run, and the only
   check that sees barrier divergence, shared races or OOB statically.
   While the registry collects, every rejection is counted per
   diagnostic kind ([verify.fail.<kind>]), so a trace shows *why* the
   static filter is discarding configurations, not just how often. *)
let verified_clean report =
  let ok = Ptx.Verify.ok report in
  if not ok && Obs.Telemetry.enabled () then
    List.iter
      (fun (d : Ptx.Verify.diag) ->
        Obs.Telemetry.incr ("verify.fail." ^ Ptx.Verify.kind_name d.kind))
      report.Ptx.Verify.errors;
  ok

let gemm_static_ok (input : GP.input) cfg_array =
  let cfg = GP.config_of_array cfg_array in
  let p = Codegen.Gemm.generate input cfg in
  verified_clean
    (Ptx.Verify.run p
       ~iargs:[ ("M", input.m); ("N", input.n); ("K", input.k) ]
       ~block:(GP.threads_per_block cfg, 1, 1))

let conv_static_ok (input : CP.input) cfg_array =
  let cfg = GP.config_of_array cfg_array in
  let gi = CP.gemm_input input in
  let p = Codegen.Conv.generate input cfg in
  verified_clean
    (Ptx.Verify.run p
       ~iargs:[ ("M", gi.GP.m); ("N", gi.GP.n); ("K", gi.GP.k) ]
       ~block:(GP.threads_per_block cfg, 1, 1))

let fit_gemm_sampler ?(warmup = 10_000) ?dtypes rng device =
  Sampler.fit ~warmup rng Config_space.gemm ~legal:(fun cfg ->
      gemm_legal device (random_gemm_input ?dtypes rng) cfg)

let fit_conv_sampler ?(warmup = 10_000) ?dtypes rng device =
  Sampler.fit ~warmup rng Config_space.gemm ~legal:(fun cfg ->
      conv_legal device (random_conv_input ?dtypes rng) cfg)

(* Give up on a chunk after this many consecutive inputs yield no
   measurable configuration: with the sampler already bounding rejection
   attempts per input, a run this dry means the restricted space is
   effectively empty and looping further would never terminate. *)
let max_consecutive_skips = 100

let generate_chunk ~noise ~sampler rng device ~n
    ~random_input ~legal ~features ~measure =
  let dim = Features.dim in
  let flog = Mlp.Matrix.create n dim in
  let fraw = Mlp.Matrix.create n dim in
  let ys = Array.make n 0.0 in
  let filled = ref 0 in
  let skips = ref 0 in
  while !filled < n do
    let input = random_input rng in
    let measured =
      match Sampler.sample_legal rng sampler ~legal:(legal device input) with
      | None -> None
      | Some cfg_array ->
        Option.map
          (fun tflops -> (cfg_array, tflops))
          (measure rng device input cfg_array ~noise)
    in
    match measured with
    | None ->
      (* No legal (or measurable) configuration for this input — e.g. an
         over-restricted [?dtypes]. Skip it rather than redrawing
         forever, and fail loudly once the whole chunk stops making
         progress. *)
      Obs.Telemetry.incr "dataset.skipped_inputs";
      incr skips;
      if !skips >= max_consecutive_skips then
        failwith
          (Printf.sprintf
             "Dataset.generate: no measurable configuration in %d consecutive \
              input draws (%d/%d samples done on %s) — the restricted \
              configuration space appears to be empty"
             !skips !filled n device.Gpu.Device.name)
    | Some (cfg_array, tflops) ->
      skips := 0;
      let i = !filled in
      let fl = features ~log:true input cfg_array in
      let fr = features ~log:false input cfg_array in
      Array.iteri (Mlp.Matrix.set flog i) fl;
      Array.iteri (Mlp.Matrix.set fraw i) fr;
      ys.(i) <- tflops;
      incr filled
  done;
  (flog, fraw, ys)

(* Benchmarking sampled kernels is embarrassingly parallel: each domain
   gets an independent PRNG split off the caller's and fills its own
   chunk (the sampler's fitted marginals are shared read-only). Chunks
   merge in chunk order, so the dataset is a function of the seed and
   the domain count alone. *)
let generate_generic ?(domains = 1) ~op ~noise ~sampler
    rng device ~n ~random_input ~legal ~features ~measure () =
  Obs.Span.with_ "dataset.generate"
    ~meta:(fun () ->
      [ ("op", Obs.Json.String (match op with `Gemm -> "gemm" | `Conv -> "conv"));
        ("n", Obs.Json.Int n);
        ("domains", Obs.Json.Int domains) ])
    (fun () ->
  let dim = Features.dim in
  let rngs = Array.init (max 1 domains) (fun _ -> Util.Rng.split rng) in
  let chunks =
    Util.Parallel.run_chunks ~domains ~total:n (fun ~chunk ~offset:_ ~size ->
        generate_chunk ~noise ~sampler rngs.(chunk) device ~n:size
          ~random_input ~legal ~features ~measure)
  in
  let flog = Mlp.Matrix.create n dim in
  let fraw = Mlp.Matrix.create n dim in
  let ys = Array.make n 0.0 in
  let row = ref 0 in
  List.iter
    (fun (cl, cr, cy) ->
      let rows = Array.length cy in
      let blit (src : Mlp.Matrix.t) dst =
        Bigarray.Array1.blit src.data (Mlp.Matrix.sub_rows dst ~off:!row ~len:rows).data
      in
      blit cl flog;
      blit cr fraw;
      Array.blit cy 0 ys !row rows;
      row := !row + rows)
    chunks;
  Obs.Telemetry.add "dataset.rows" n;
  { op; device = device.Gpu.Device.name; features_log = flog; features_raw = fraw;
    tflops = ys })

(* Per-configuration benchmark record in the trace: what was measured,
   how fast it was, and what the (simulated) benchmark run cost — the
   raw material for isaac_profile's "hottest configs" table. *)
let config_event ~op ~phase cfg_array (m : Gpu.Executor.measurement) =
  if Obs.Trace.enabled () then
    Obs.Trace.emit "config"
      [ ("op", Obs.Json.String op);
        ("phase", Obs.Json.String phase);
        ("config", Obs.Json.String (Config_space.describe Config_space.gemm cfg_array));
        ("tflops", Obs.Json.Float m.tflops);
        ("seconds", Obs.Json.Float m.seconds) ]

let measure_gemm rng device input cfg_array ~noise =
  if Util.Faultsim.fire "bench_fail" then begin
    Obs.Telemetry.incr "dataset.bench_failures";
    None
  end
  else
  let cfg = GP.config_of_array cfg_array in
  match Gpu.Executor.measure ~noise rng device (GP.cost input cfg) with
  | Some m when m.tflops > 0.0 ->
    config_event ~op:"gemm" ~phase:"dataset" cfg_array m;
    Some m.tflops
  | _ -> None

let measure_conv rng device input cfg_array ~noise =
  if Util.Faultsim.fire "bench_fail" then begin
    Obs.Telemetry.incr "dataset.bench_failures";
    None
  end
  else
  let cfg = GP.config_of_array cfg_array in
  match Gpu.Executor.measure ~noise rng device (CP.cost input cfg) with
  | Some m when m.tflops > 0.0 ->
    config_event ~op:"conv" ~phase:"dataset" cfg_array m;
    Some m.tflops
  | _ -> None

let generate_gemm ?(domains = 1) ?dtypes ?(noise = Gpu.Executor.default_noise)
    ?sampler rng device ~n =
  let sampler =
    match sampler with Some s -> s | None -> fit_gemm_sampler ?dtypes rng device
  in
  generate_generic ~domains ~op:`Gemm ~noise ~sampler rng
    device ~n
    ~random_input:(random_gemm_input ?dtypes)
    ~legal:gemm_legal ~features:Features.gemm_features ~measure:measure_gemm ()

let generate_conv ?(domains = 1) ?dtypes ?(noise = Gpu.Executor.default_noise)
    ?sampler rng device ~n =
  let sampler =
    match sampler with Some s -> s | None -> fit_conv_sampler ?dtypes rng device
  in
  generate_generic ~domains ~op:`Conv ~noise ~sampler rng
    device ~n
    ~random_input:(random_conv_input ?dtypes)
    ~legal:conv_legal ~features:Features.conv_features ~measure:measure_conv ()

let throughput_probe rng device ~n =
  (* Wall-clock, not [Sys.time]: CPU time sums across domains, which
     overstated samples/s by nearly the domain count on parallel runs. *)
  let t0 = Unix.gettimeofday () in
  let (_ : t) = generate_gemm rng device ~n in
  let dt = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  float_of_int n /. dt
