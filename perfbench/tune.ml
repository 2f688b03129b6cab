(* tune: the offline path. Each op generates a fixed-size dataset with
   the samplers fitted in set-up and trains a profile on it; ops
   alternate GEMM and CONV. The only workload that trains an [Mlp]. *)

let samples = 200
let epochs = 20
let min_ops = 80
let setup_reps = 25
let acceptance_trials = 2000

(* Both samplers at the library's default warm-up. *)
let fit_samplers ctx =
  let rng = Common.rng ctx "tune.sampler" in
  let g = Spans.span "sampler.fit" (fun () -> Tuner.Dataset.fit_gemm_sampler rng Shapes.device) in
  let c = Spans.span "sampler.fit" (fun () -> Tuner.Dataset.fit_conv_sampler rng Shapes.device) in
  (g, c)

let run (ctx : Common.ctx) : Common.result =
  let setup () = Spans.setup (fun () -> fit_samplers ctx) in
  let setup_s, setup_raw_s = Common.median_setup ~reps:setup_reps (fun () -> ignore (setup ())) in
  let gemm_sampler, conv_sampler = setup () in
  let validation = (Quality.validation `Gemm, Quality.validation `Conv) in
  let one_op i () =
    let rng = Common.rng ctx ("tune.op", i) in
    let ds =
      Spans.span "dataset.generate" (fun () ->
          if i mod 2 = 0 then
            Tuner.Dataset.generate_gemm ~domains:1 ~sampler:gemm_sampler rng Shapes.device
              ~n:samples
          else
            Tuner.Dataset.generate_conv ~domains:1 ~sampler:conv_sampler rng Shapes.device
              ~n:samples)
    in
    Spans.span "train" (fun () -> Tuner.Profile.train ~epochs rng ds)
  in
  let lat = Measure.Samples.create () and traced = Measure.Samples.create () in
  let failed = ref 0 and mses = ref [] and digests = Buffer.create 1024 in
  let op i =
    let untraced () =
      let profile, dt = Measure.timed (one_op i) in
      Measure.Samples.push lat dt;
      profile
    in
    let traced_op () =
      Spans.op ~req:i (fun () ->
          let _, dt, _ = Spans.span_with "tune.op" (one_op i) in
          Measure.Samples.push traced dt)
    in
    let profile = Common.paired ctx i ~untraced ~traced:traced_op in
    let mse =
      Tuner.Profile.mse profile (if i mod 2 = 0 then fst validation else snd validation)
    in
    if not (Float.is_finite mse) then incr failed;
    if i < min_ops then begin
      mses := mse :: !mses;
      Buffer.add_string digests (Printf.sprintf "%d:%h;" i mse)
    end
  in
  let n = Common.run_passes ~seconds:ctx.seconds ~pass:2 ~min_passes:(min_ops / 2) ~calib_every:1 op in
  let acceptance =
    if not ctx.trace then 0.0
    else
      let rng = Common.rng ctx "tune.acceptance" in
      let rate sampler legal random_input =
        Tuner.Sampler.acceptance_rate ~trials:acceptance_trials
          ~sample:(fun () -> Tuner.Sampler.sample rng sampler)
          ~legal:(fun cfg -> legal Shapes.device (random_input rng) cfg)
      in
      (rate gemm_sampler Tuner.Dataset.gemm_legal (fun rng -> Tuner.Dataset.random_gemm_input rng)
       +. rate conv_sampler Tuner.Dataset.conv_legal (fun rng -> Tuner.Dataset.random_conv_input rng)
      )
      /. 2.0
  in
  { attempted = n;
    failed = !failed;
    latencies = Measure.Samples.to_array lat;
    calib_every = 1;
    traced = Measure.Samples.to_array traced;
    tail_q = Common.tail_q_for min_ops;
    min_ops;
    setup_s;
    setup_raw_s;
    speedup = 1.0;
    mse = Measure.mean (Array.of_list !mses);
    counts =
      (if ctx.trace then
         [ ("sampler.acceptance", acceptance);
           ("dataset.samples", float_of_int samples);
           ("train.rows", float_of_int (samples * epochs)) ]
       else []);
    entry = "tune.op";
    coverage_floor = 0.9;
    digest = [ ("model_mses", Common.hex (Buffer.contents digests)) ];
    notes = [ ("op_samples", Obs.Json.Int samples); ("op_epochs", Obs.Json.Int epochs) ] }
