(* execute: [Isaac.gemm] / [Isaac.conv] on small shapes, the only
   workload that runs generated kernels under the [Ptx.Interp] bytecode
   engine. Plans are resident after set-up; each op gets fresh seeded
   operands, and its output is checked against the reference loops. *)

module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params

let shapes =
  [| Shapes.Gemm (GP.input 64 64 64);
     Shapes.Gemm (GP.input ~b_trans:true 96 32 64);
     Shapes.Gemm (GP.input ~a_trans:true 32 80 48);
     Shapes.Conv (CP.input ~n:1 ~c:8 ~k:16 ~p:8 ~q:8 ~r:3 ~s:3 ~pad:1 ());
     Shapes.Conv (CP.input ~n:2 ~c:4 ~k:8 ~p:6 ~q:6 ~r:3 ~s:3 ()) |]

let min_ops = 100

let operands rng n = Array.init n (fun _ -> (2.0 *. Util.Rng.uniform rng) -. 1.0)

(* Within rounding of the float64 reference loops. *)
let matches ~depth got want =
  Array.length got = Array.length want
  && Array.for_all2
       (fun g w -> Float.abs (g -. w) <= (1e-9 +. (1e-12 *. float_of_int depth)) *. (1.0 +. Float.abs w))
       got want

let run (ctx : Common.ctx) : Common.result =
  (* Set-up: load the profiles, build the engines, plan every shape. *)
  let engines = ref None in
  let setup_s, setup_raw_s =
    Spans.setup (fun () ->
        let engine path =
          Isaac.of_profile Shapes.device
            (Spans.span "profile.load" (fun () -> Tuner.Profile.load_exn path))
        in
        Calib.timed_steps
          ((fun () -> engines := Some (engine ctx.gemm_profile, engine ctx.conv_profile))
           :: List.map
                (fun shape () ->
                  let g, c = Option.get !engines in
                  match shape with
                  | Shapes.Gemm i -> ignore (Isaac.plan_gemm g i)
                  | Shapes.Conv i -> ignore (Isaac.plan_conv c i))
                (Array.to_list shapes)))
  in
  let gemm_engine, conv_engine = Option.get !engines in
  let pass = Array.length shapes in
  let order = Util.Rng.permutation (Common.rng ctx "execute.order") pass in
  let config = function
    | Shapes.Gemm i -> (Option.get (Isaac.plan_gemm gemm_engine i)).config
    | Shapes.Conv i -> (Option.get (Isaac.plan_conv conv_engine i)).config
  in
  let lat = Measure.Samples.create () and traced = Measure.Samples.create () in
  let failed = ref 0 and outputs = Buffer.create 4096 and instrs = ref 0 in
  let stats = ref None in
  let op i =
    let shape = shapes.(order.(i mod pass)) in
    let rng = Common.rng ctx ("execute.op", i) in
    (* The op, the reference it must match, and its replay: the plan
       lookup and the counted launch (which generates the kernel). *)
    let call, reference, depth, replay =
      match shape with
      | Shapes.Gemm x ->
        let a = operands rng (x.m * x.k) and b = operands rng (x.k * x.n) in
        ( (fun () -> Isaac.gemm gemm_engine x ~a ~b),
          (fun () -> Codegen.Gemm.reference x ~a ~b),
          x.k,
          fun ~parent ->
            ignore (Spans.span ~parent "cache.hit" (fun () -> Isaac.plan_gemm_with_status gemm_engine x));
            let c = config shape in
            let launch, _, (_, counters) =
              Spans.span_with ~parent "interp" (fun () -> Codegen.Gemm.run_counted x c ~a ~b ())
            in
            ignore (Spans.span ~parent:launch "codegen.generate" (fun () -> Codegen.Gemm.generate x c));
            counters )
      | Shapes.Conv x ->
        let image = operands rng (x.n * x.c * CP.h x * CP.w x)
        and filter = operands rng (x.c * x.r * x.s * x.k) in
        ( (fun () -> Isaac.conv conv_engine x ~image ~filter),
          (fun () -> Codegen.Conv.reference x ~image ~filter),
          CP.crs x,
          fun ~parent ->
            ignore (Spans.span ~parent "cache.hit" (fun () -> Isaac.plan_conv_with_status conv_engine x));
            let c = config shape in
            let launch, _, (_, counters) =
              Spans.span_with ~parent "interp" (fun () -> Codegen.Conv.run_counted x c ~image ~filter)
            in
            ignore (Spans.span ~parent:launch "codegen.generate" (fun () -> Codegen.Conv.generate x c));
            counters )
    in
    let untraced () =
      let out, dt = Measure.timed call in
      Measure.Samples.push lat dt;
      out
    in
    let traced_op () =
      Spans.op ~req:i (fun () ->
          let parent, dt, _ = Spans.span_with "isaac.exec" call in
          Measure.Samples.push traced dt;
          let counters = replay ~parent in
          if i < min_ops then instrs := !instrs + Ptx.Interp.total counters)
    in
    let out = Common.paired ctx i ~untraced ~traced:traced_op in
    if not (matches ~depth out (reference ())) then incr failed;
    if i < min_ops then
      Buffer.add_string outputs (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") out)));
    if i + 1 = min_ops then
      stats :=
        Some
          (Isaac.Plan_cache.merge_stats (Isaac.cache_stats gemm_engine)
             (Isaac.cache_stats conv_engine))
  in
  let n = Common.run_passes ~seconds:ctx.seconds ~pass ~min_passes:(min_ops / pass) ~calib_every:1 op in
  let stats = Option.get !stats in
  let ratios =
    Array.map
      (fun shape ->
        let tflops =
          match shape with
          | Shapes.Gemm i -> (Option.get (Isaac.plan_gemm gemm_engine i)).measurement.tflops
          | Shapes.Conv i -> (Option.get (Isaac.plan_conv conv_engine i)).measurement.tflops
        in
        match Shapes.vendor_tflops shape with Some v -> tflops /. v | None -> nan)
      shapes
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
    speedup = Measure.geomean ratios;
    mse = Quality.prepared_mse ctx;
    counts =
      (if ctx.trace then [ ("interp.dyn_instrs", float_of_int !instrs /. float_of_int min_ops) ]
       else [])
      @ [ ("cache.hits", float_of_int stats.hits); ("cache.misses", float_of_int stats.misses) ];
    entry = "isaac.exec";
    coverage_floor = 0.9;
    digest = [ ("outputs", Common.hex (Buffer.contents outputs)) ];
    notes = [] }
