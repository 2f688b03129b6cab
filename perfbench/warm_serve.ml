(* warm_serve: a framework replaying the layer sequence of every network
   in [Workloads.Networks.all] each training step — 29 requests over 22
   distinct shapes, the LSTM shape 8 times. Set-up makes one cold pass,
   so every timed request is a plan-cache hit. The seed picks where in
   the step the replay starts. *)

let run (ctx : Common.ctx) : Common.result =
  let step = Shapes.network_step in
  let pass = Array.length step in
  let distinct = Shapes.distinct step in
  (* Set-up: the daemon plus its first cold pass. The set-up responses
     are the reference every timed hit must reproduce. *)
  let srv = ref None and reference = Hashtbl.create 32 in
  let setup_s, setup_raw_s =
    Calib.timed_steps
      ((fun () -> srv := Some (Wire.create ctx))
       :: List.mapi
            (fun id shape () ->
              let response, _ = Serve.handle (Option.get !srv) (Shapes.request ~id shape) in
              Hashtbl.replace reference shape (Wire.plan_response response))
            (Array.to_list distinct))
  in
  let srv = Option.get !srv in
  let reference shape =
    match Hashtbl.find reference shape with
    | Some r -> r
    | None -> failwith ("warm_serve: set-up request failed for " ^ Shapes.describe shape)
  in
  (* Trace mode times the cache read on an engine of the benchmark's
     own, planned over the same shapes. *)
  let engines =
    lazy
      (let engine path =
         Isaac.of_profile Shapes.device (Tuner.Profile.load_exn path)
       in
       let g = engine ctx.gemm_profile and c = engine ctx.conv_profile in
       Array.iter
         (function
           | Shapes.Gemm i -> ignore (Isaac.plan_gemm g i)
           | Shapes.Conv i -> ignore (Isaac.plan_conv c i))
         distinct;
       (g, c))
  in
  if ctx.trace then begin
    Wire.trace_create ctx;
    ignore (Lazy.force engines)
  end;
  let start = Util.Rng.int (Common.rng ctx "warm_serve.start") pass in
  let lines = Array.init pass (fun j -> Shapes.request ~id:j step.((start + j) mod pass)) in
  let lat = Measure.Samples.create () and traced = Measure.Samples.create () in
  let failed = ref 0 in
  let stats_at = 100 * pass in
  let calib_every = 500 in
  let stats = ref (0.0, 0.0) in
  let op i =
    let j = i mod pass in
    let shape = step.((start + j) mod pass) and line = lines.(j) in
    let untraced () =
      let (response, _), dt = Measure.timed (fun () -> Serve.handle srv line) in
      Measure.Samples.push lat dt;
      response
    in
    let traced_op () =
      Spans.op ~req:i (fun () ->
          let h, handle_dt, (response, _) =
            Spans.span_with "serve.handle" (fun () -> Serve.handle srv line)
          in
          Measure.Samples.push traced handle_dt;
          let json = Obs.Json.of_string response in
          ignore (Spans.span ~parent:h "serve.parse" (fun () -> Obs.Json.of_string line));
          let g, c = Lazy.force engines in
          let outcome =
            Spans.span ~parent:h "cache.hit" (fun () ->
                match shape with
                | Shapes.Gemm x -> snd (Isaac.plan_gemm_with_status g x)
                | Shapes.Conv x -> snd (Isaac.plan_conv_with_status c x))
          in
          if outcome <> Isaac.Plan_cache.Hit then incr failed;
          ignore (Spans.span ~parent:h "serve.serialize" (fun () -> Obs.Json.to_string json)))
    in
    (match Wire.plan_response (Common.paired ctx i ~untraced ~traced:traced_op) with
     | Some resp when resp.cache = "hit" && resp.plan_text = (reference shape).plan_text -> ()
     | _ -> incr failed);
    if i + 1 = stats_at then stats := Wire.cache_stats srv
  in
  let n = Common.run_passes ~seconds:ctx.seconds ~pass ~min_passes:(stats_at / pass) ~calib_every op in
  let ratios =
    Array.map
      (fun shape ->
        match Shapes.vendor_tflops shape with
        | Some v -> (reference shape).tflops /. v
        | None -> nan)
      step
  in
  { attempted = n + Array.length distinct;
    failed = !failed;
    latencies = Measure.Samples.to_array lat;
    calib_every;
    traced = Measure.Samples.to_array traced;
    tail_q = 0.99;
    min_ops = stats_at;
    setup_s;
    setup_raw_s;
    speedup = Measure.geomean ratios;
    mse = Quality.prepared_mse ctx;
    counts = [ ("cache.hits", fst !stats); ("cache.misses", snd !stats) ];
    entry = "serve.handle";
    coverage_floor = 0.5;
    digest =
      [ ("requests", Common.hex (String.concat "\n" (Array.to_list lines)));
        ( "plans",
          Common.hex
            (String.concat "\n"
               (Array.to_list (Array.map (fun s -> (reference s).plan_text) distinct))) ) ];
    notes = [] }
