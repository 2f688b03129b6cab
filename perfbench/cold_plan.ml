(* cold_plan: every request is a shape the daemon has not seen.

   Each pass sends the 62 Table 4/5 shapes in a seeded order to a
   freshly created daemon, so every request misses the plan cache and
   runs the whole planning path. Whole passes keep the shape mix the
   same on every commit; a faster planner runs more passes. *)

module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params

let setup_reps = 25

(* Same subsample as the search applies beyond its cap: every
   ceil(n/cap)-th legal configuration. *)
let subsample cap cfgs =
  let n = Array.length cfgs in
  if n <= cap then cfgs
  else
    let stride = (n + cap - 1) / cap in
    Array.init ((n + stride - 1) / stride) (fun i -> cfgs.(i * stride))

type replay_counts = {
  n_legal : int;
  n_scored : int;
  rebench_calls : int;
  instrs : int;
  bytes : int;
}

(* The planning path of one request, one span per public call, recorded
   as children of the real [Serve.handle] span [parent]. Kernel
   generation, allocation and encoding run on the config the daemon
   actually served. *)
let replay ~parent ~profile ~cap ~line ~(resp : Wire.plan_response) shape =
  let sp name f = Spans.span ~parent name f in
  ignore (sp "serve.parse" (fun () -> Obs.Json.of_string line));
  let log = profile.Tuner.Profile.log_features in
  let legal, query, cost, generate =
    match shape with
    | Shapes.Gemm i ->
      ( (fun () -> Tuner.Search.legal_gemm_config_array Shapes.device i),
        (fun () -> Tuner.Features.gemm_query ~log i),
        (fun c -> GP.cost i c),
        fun c -> Codegen.Gemm.generate i c )
    | Shapes.Conv i ->
      ( (fun () -> Tuner.Search.legal_conv_config_array Shapes.device i),
        (fun () -> Tuner.Features.conv_query ~log i),
        (fun c -> CP.cost i c),
        fun c -> Codegen.Conv.generate i c )
  in
  let n_legal, cfgs =
    sp "search.enumerate" (fun () ->
        let all = legal () in
        (Array.length all, subsample cap all))
  in
  let n = Array.length cfgs in
  let x =
    sp "features.fill" (fun () ->
        let q = query () in
        let x = Mlp.Matrix.create n Tuner.Features.dim in
        Array.iteri (fun row c -> Tuner.Features.fill_query q (GP.config_to_array c) x ~row) cfgs;
        x)
  in
  let pred = sp "mlp.infer" (fun () -> Tuner.Profile.predict_std_matrix profile x) in
  let top =
    sp "search.topk" (fun () ->
        let order = Array.init n Fun.id in
        Array.sort (fun a b -> Float.compare pred.(b) pred.(a)) order;
        Array.init (min 100 n) (fun r ->
            (cfgs.(order.(r)), Tuner.Features.untarget profile.scaler pred.(order.(r)))))
  in
  let rng = Util.Rng.create 0x15aac in
  ignore
    (sp "executor.rebench" (fun () ->
         Array.map (fun (c, _) -> Gpu.Executor.measure_best_of rng Shapes.device (cost c)) top));
  let prog = sp "codegen.generate" (fun () -> generate resp.config) in
  let alloc = sp "regalloc" (fun () -> Ptx.Regalloc.allocate prog) in
  let bytes =
    sp "encode" (fun () ->
        match Ptx.Encode.encode alloc with
        | Ok e -> ignore (Ptx.Encode.hash e); Ptx.Encode.byte_size e
        | Error _ -> 0)
  in
  ignore (sp "serve.serialize" (fun () -> Obs.Json.to_string resp.json));
  { n_legal; n_scored = n; rebench_calls = Array.length top;
    instrs = Array.length prog.Ptx.Program.body; bytes }

let run (ctx : Common.ctx) : Common.result =
  let setup_s, setup_raw_s = Common.median_setup ~reps:setup_reps (fun () -> ignore (Wire.create ctx)) in
  if ctx.trace then Wire.trace_create ctx;
  let shapes = Shapes.table in
  let pass = Array.length shapes in
  let order_rng = Common.rng ctx "cold_plan.order" in
  let orders = Hashtbl.create 4 in
  let shape_at i =
    let p = i / pass in
    let perm =
      match Hashtbl.find_opt orders p with
      | Some perm -> perm
      | None ->
        let perm = Util.Rng.permutation order_rng pass in
        Hashtbl.add orders p perm;
        perm
    in
    shapes.(perm.(i mod pass))
  in
  let profiles =
    lazy (Tuner.Profile.load_exn ctx.gemm_profile, Tuner.Profile.load_exn ctx.conv_profile)
  in
  (* The search's own scoring cap: its knob and default. *)
  let cap = Util.Env_config.int "ISAAC_SEARCH_CAP" 60_000 in
  let lat = Measure.Samples.create () and traced = Measure.Samples.create () in
  let failed = ref 0 in
  (* A fresh daemon per pass, and in trace mode a second one for the
     traced call, so both calls of a pair miss. *)
  let daemons () = (Wire.create ctx, if ctx.trace then Some (Wire.create ctx) else None) in
  let srv = ref (daemons ()) in
  let plans = Buffer.create 4096 and requests = Buffer.create 4096 in
  let ratios = ref [] and counts = ref [] in
  let op i =
    if i > 0 && i mod pass = 0 then srv := daemons ();
    let shape = shape_at i in
    let line = Shapes.request ~id:i shape in
    let untraced () =
      let (response, _), dt = Measure.timed (fun () -> Serve.handle (fst !srv) line) in
      Measure.Samples.push lat dt;
      Wire.plan_response response
    in
    let traced_op () =
      Spans.op ~req:i (fun () ->
          let h, handle_dt, (response, _) =
            Spans.span_with "serve.handle" (fun () -> Serve.handle (Option.get (snd !srv)) line)
          in
          Measure.Samples.push traced handle_dt;
          match Wire.plan_response response with
          | None -> incr failed
          | Some resp ->
            let profile =
              match shape with
              | Shapes.Gemm _ -> fst (Lazy.force profiles)
              | Shapes.Conv _ -> snd (Lazy.force profiles)
            in
            let c = replay ~parent:h ~profile ~cap ~line ~resp shape in
            if i < pass then counts := c :: !counts)
    in
    match Common.paired ctx i ~untraced ~traced:traced_op with
    | Some resp when resp.cache = "miss" && Shapes.legal shape resp.config ->
      if i < pass then begin
        Buffer.add_string requests line;
        Buffer.add_string plans resp.plan_text;
        match Shapes.vendor_tflops shape with
        | Some v -> ratios := (resp.tflops /. v) :: !ratios
        | None -> incr failed
      end
    | _ -> incr failed
  in
  let n = Common.run_passes ~seconds:ctx.seconds ~pass ~min_passes:1 ~calib_every:1 op in
  let hits, misses = Wire.cache_stats (fst !srv) in
  let per_op f = float_of_int (List.fold_left (fun a c -> a + f c) 0 !counts) /. float_of_int pass in
  { attempted = n;
    failed = !failed;
    latencies = Measure.Samples.to_array lat;
    calib_every = 1;
    traced = Measure.Samples.to_array traced;
    tail_q = Common.tail_q_for pass;
    min_ops = pass;
    setup_s;
    setup_raw_s;
    speedup = Measure.geomean (Array.of_list !ratios);
    mse = Quality.prepared_mse ctx;
    counts =
      (if ctx.trace then
         [ ("search.n_legal", per_op (fun c -> c.n_legal));
           ("search.n_scored", per_op (fun c -> c.n_scored));
           ("executor.calls", per_op (fun c -> c.rebench_calls));
           ("codegen.instrs", per_op (fun c -> c.instrs));
           ("encode.bytes", per_op (fun c -> c.bytes));
           ("mlp.rows", per_op (fun c -> c.n_scored)) ]
       else [])
      @ [ ("cache.hits", hits); ("cache.misses", misses) ];
    entry = "serve.handle";
    coverage_floor = 0.9;
    digest = [ ("requests", Common.hex (Buffer.contents requests));
               ("plans", Common.hex (Buffer.contents plans)) ];
    notes = [] }
