module Plan_cache = Tuner.Plan_cache
module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params

type plan = {
  config : GP.config;
  measurement : Gpu.Executor.measurement;
  predicted_tflops : float;
  n_legal : int;
  phases : (string * float) list;
  kernel_hash : int64 option;
}

type t = {
  profile : Tuner.Profile.t;
  device : Gpu.Device.t;
  rng : Util.Rng.t;
  (* The search's legality-class memo, shared by both ops: a CONV's
     class is its implicit GEMM's. *)
  planner : Tuner.Search.planner;
  (* Sharded, coalescing, LRU-bounded caches (entry timestamps live
     inside, so serving telemetry can histogram the age of plans being
     served for stale-cache detection). *)
  gemm_cache : (GP.input, plan option) Plan_cache.t;
  conv_cache : (CP.input, plan option) Plan_cache.t;
}

let src = Logs.Src.create "isaac" ~doc:"ISAAC auto-tuner"

module Log = (val Logs.src_log src : Logs.LOG)

let t_cache_hit = Obs.Telemetry.counter "plan.cache_hit"
let t_cache_miss = Obs.Telemetry.counter "plan.cache_miss"
let t_coalesced = Obs.Telemetry.counter "plan.coalesced"
let t_plan_latency = Obs.Telemetry.histo "plan.latency_s"
let t_hit_age = Obs.Telemetry.histo "plan.cache_hit_age_s"

let observe_latency ~t0 =
  Obs.Telemetry.Histo.observe t_plan_latency
    (Float.max 0.0 (Unix.gettimeofday () -. t0))

(* [age_s] is already clamped non-negative by the cache (its timestamps
   are wall clock, which NTP can step backwards). *)
let record_plan_hit ~t0 ~age_s =
  if Obs.Telemetry.enabled () then begin
    Obs.Telemetry.Counter.incr t_cache_hit;
    Obs.Telemetry.Histo.observe t_hit_age age_s;
    observe_latency ~t0
  end

let record_plan_miss ~t0 =
  if Obs.Telemetry.enabled () then begin
    Obs.Telemetry.Counter.incr t_cache_miss;
    observe_latency ~t0
  end

let record_plan_coalesced ~t0 =
  if Obs.Telemetry.enabled () then begin
    Obs.Telemetry.Counter.incr t_coalesced;
    observe_latency ~t0
  end

let record_outcome ~t0 ~age_s = function
  | Plan_cache.Hit -> record_plan_hit ~t0 ~age_s
  | Plan_cache.Miss -> record_plan_miss ~t0
  | Plan_cache.Coalesced -> record_plan_coalesced ~t0

let of_profile ?cache_entries device (profile : Tuner.Profile.t) =
  if profile.device <> device.Gpu.Device.name then
    invalid_arg
      (Printf.sprintf "Isaac.of_profile: profile tuned on %s, device is %s"
         profile.device device.Gpu.Device.name);
  { profile; device;
    rng = Util.Rng.create 0x15aac;
    planner = Tuner.Search.planner ();
    gemm_cache = Plan_cache.create ?max_entries:cache_entries ();
    conv_cache = Plan_cache.create ?max_entries:cache_entries () }

let tune ?samples ?(epochs = 20) ?arch ?dtypes ?(noise = Gpu.Executor.default_noise)
    ?domains rng device ~op () =
  let samples =
    match samples with Some s -> s | None -> Util.Env_config.scaled 4000
  in
  let domains =
    match domains with
    | Some d -> d
    | None -> Util.Parallel.recommended_domains ()
  in
  let op_name = match op with `Gemm -> "gemm" | `Conv -> "conv" in
  Obs.Span.with_ "tune"
    ~meta:(fun () ->
      [ ("op", Obs.Json.String op_name);
        ("device", Obs.Json.String device.Gpu.Device.name);
        ("samples", Obs.Json.Int samples);
        ("epochs", Obs.Json.Int epochs) ])
    (fun () ->
      Obs.Telemetry.incr "tune.runs";
      Log.info (fun m ->
          m "tuning %s on %s: %d samples, %d domains"
            (match op with `Gemm -> "GEMM" | `Conv -> "CONV")
            device.Gpu.Device.name samples domains);
      let dataset =
        Obs.Span.with_ "tune.dataset" (fun () ->
            match op with
            | `Gemm ->
              Tuner.Dataset.generate_gemm ~domains ?dtypes ~noise rng device
                ~n:samples
            | `Conv ->
              Tuner.Dataset.generate_conv ~domains ?dtypes ~noise rng device
                ~n:samples)
      in
      let profile =
        Obs.Span.with_ "tune.train" (fun () ->
            Tuner.Profile.train ?arch ~epochs rng dataset)
      in
      of_profile device profile)

let profile t = t.profile
let device t = t.device

(* The packed-encoding hash is the plan's kernel identity: O(1)
   equality, served on the wire. Kernels are register-allocated before
   encoding — the packed format's fixed-width register fields assume
   physical numbering, and the canonical form also gives kernels that
   differ only in virtual register names one hash. Computed once per
   cache miss; encoding failures (a kernel outgrowing the fixed-width
   fields even post-allocation) degrade to [None] rather than failing
   the plan. *)
let hash_of_config generate input config =
  match Ptx.Encode.encode (Ptx.Regalloc.allocate (generate input config)) with
  | Ok e -> Some (Ptx.Encode.hash e)
  | Error _ -> None

let plan_of_result ~kernel_hash (r : Tuner.Search.result) =
  let predicted =
    if Array.length r.candidates > 0 then r.candidates.(0).predicted_tflops
    else r.best_measurement.tflops
  in
  { config = r.best;
    measurement = r.best_measurement;
    predicted_tflops = predicted;
    n_legal = r.n_legal;
    phases = r.phases;
    kernel_hash }

(* Each planning run draws its measurement noise from a generator
   seeded by the (op, input) pair rather than from a shared mutable
   stream. Two properties follow, and both matter now that plans are
   served concurrently:
   - the search is free of shared mutable state, so racing requests for
     different inputs cannot corrupt each other's noise draws (the
     profile, device and enumerator are all read-only);
   - a plan is a deterministic function of (profile, device, input) —
     independent of the order requests arrive in, of how many plans
     were served before, and of how many domains are hammering the
     cache. The daemon's warm-vs-cold bit-identity check and the
     multi-domain hammer test both pin this. *)
let plan_seed_base = 0x15aac

let request_rng tag input =
  Util.Rng.create (plan_seed_base lxor Hashtbl.hash (tag, input))

(* One planning request: a cache lookup whose miss runs the §6 search
   under a [plan] span and hashes the winner's kernel. [op] names the
   span and, with the input, seeds the request's generator. *)
let plan_with_status t cache ~op ~search ~generate i =
  Obs.Span.with_request (fun () ->
      let t0 = if Obs.Telemetry.enabled () then Unix.gettimeofday () else 0.0 in
      let plan, outcome, age_s =
        Plan_cache.find_or_compute cache i (fun () ->
            let result =
              Obs.Span.with_ "plan"
                ~meta:(fun () -> [ ("op", Obs.Json.String op) ])
                (fun () ->
                  search (request_rng op i) t.device ~profile:t.profile i)
            in
            Option.map
              (fun r ->
                let kernel_hash = hash_of_config generate i r.Tuner.Search.best in
                plan_of_result ~kernel_hash r)
              result)
      in
      record_outcome ~t0 ~age_s outcome;
      (plan, outcome))

let plan_gemm_with_status t (i : GP.input) =
  plan_with_status t t.gemm_cache ~op:"gemm" ~generate:Codegen.Gemm.generate i
    ~search:(fun rng -> Tuner.Search.exhaustive_gemm ~planner:t.planner rng)

let plan_gemm t i = fst (plan_gemm_with_status t i)

let plan_conv_with_status t (i : CP.input) =
  plan_with_status t t.conv_cache ~op:"conv" ~generate:Codegen.Conv.generate i
    ~search:(fun rng -> Tuner.Search.exhaustive_conv ~planner:t.planner rng)

let plan_conv t i = fst (plan_conv_with_status t i)

let cache_stats t =
  Plan_cache.merge_stats
    (Plan_cache.stats t.gemm_cache)
    (Plan_cache.stats t.conv_cache)

let gemm t i ~a ~b =
  match plan_gemm t i with
  | None -> failwith "Isaac.gemm: no legal kernel for this input"
  | Some plan -> Codegen.Gemm.run i plan.config ~a ~b

let conv t i ~image ~filter =
  match plan_conv t i with
  | None -> failwith "Isaac.conv: no legal kernel for this input"
  | Some plan -> Codegen.Conv.run i plan.config ~image ~filter

let describe_report device (c : Gpu.Kernel_cost.t) (r : Gpu.Perf_model.report) =
  [ [| "TFLOPS"; Printf.sprintf "%.2f" r.tflops |];
    [| "bound by"; Gpu.Perf_model.bound_name r.bound |];
    [| "occupancy"; Printf.sprintf "%.0f%% (%d warps/SM, %d blocks/SM)"
         (100.0 *. r.occupancy) r.warps_per_sm r.blocks_per_sm |];
    [| "L2 hit rate"; Printf.sprintf "%.0f%%" (100.0 *. r.l2_hit_rate) |];
    [| "effective DRAM"; Printf.sprintf "%.0f GB/s" r.effective_dram_gbs |];
    [| "time split (arith/mem/shared)";
       Printf.sprintf "%.1f / %.1f / %.1f us" (r.arith_seconds *. 1e6)
         (r.mem_seconds *. 1e6) (r.shared_seconds *. 1e6) |];
    [| "threads/block"; string_of_int c.threads_per_block |];
    [| "shared memory"; Printf.sprintf "%.1f KB" (float_of_int c.shared_bytes /. 1024.) |];
    [| "regs/thread (estimate)"; string_of_int c.regs_per_thread |];
    [| "board power"; Printf.sprintf "%.0f W" (Gpu.Power.board_watts device r) |];
    [| "efficiency"; Printf.sprintf "%.1f GFLOPS/W" (Gpu.Power.gflops_per_watt device r) |] ]

let explain ~plan ~cost_of ~baseline_pick ~program t describe_input =
  match plan with
  | None -> failwith "Isaac.explain: no legal kernel for this input"
  | Some (plan : plan) ->
    let buf = Buffer.create 2048 in
    Buffer.add_string buf (describe_input ^ "\n");
    let cost = cost_of plan.config in
    let report =
      match Gpu.Perf_model.predict t.device cost with
      | Some r -> r
      | None -> failwith "Isaac.explain: planned kernel no longer legal"
    in
    Buffer.add_string buf
      (Printf.sprintf "\nISAAC chose %s (searched %d legal kernels, predicted %.2f TFLOPS):\n"
         (GP.describe plan.config) plan.n_legal plan.predicted_tflops);
    Buffer.add_string buf
      (Util.Table.render ~header:[| "metric"; "value" |]
         (describe_report t.device cost report));
    (* Measured register pressure of the actual generated code. *)
    let pressure = Ptx.Regalloc.pressure (program plan.config) in
    Buffer.add_string buf
      (Printf.sprintf
         "\nregister pressure of generated code: %d float + %d int + %d predicate\n"
         pressure.fregs pressure.iregs pressure.pregs);
    (match baseline_pick with
     | Some (bc, (bm : Gpu.Executor.measurement)) ->
       Buffer.add_string buf
         (Printf.sprintf "\nvendor-like baseline picks %s -> %.2f TFLOPS (ISAAC %.2fx)\n"
            (GP.describe bc) bm.tflops
            (plan.measurement.tflops /. bm.tflops))
     | None -> Buffer.add_string buf "\nvendor-like baseline: no legal kernel\n");
    Buffer.contents buf

let explain_gemm t (i : GP.input) =
  let rng = Util.Rng.copy t.rng in
  explain t
    ~plan:(plan_gemm t i)
    ~cost_of:(fun c -> GP.cost i c)
    ~baseline_pick:(Baselines.Cublas.heuristic rng t.device i)
    ~program:(fun c -> Codegen.Gemm.generate i c)
    (Printf.sprintf "GEMM %dx%dx%d %c%c (%s) on %s" i.m i.n i.k
       (if i.a_trans then 'T' else 'N')
       (if i.b_trans then 'T' else 'N')
       (Ptx.Types.dtype_name i.dtype) t.device.Gpu.Device.name)

let explain_conv t (i : CP.input) =
  let rng = Util.Rng.copy t.rng in
  explain t
    ~plan:(plan_conv t i)
    ~cost_of:(fun c -> CP.cost i c)
    ~baseline_pick:(Baselines.Cudnn.heuristic rng t.device i)
    ~program:(fun c -> Codegen.Conv.generate i c)
    (Printf.sprintf "CONV N=%d C=%d K=%d P=%d Q=%d R=%d S=%d (%s) on %s" i.n i.c i.k
       i.p i.q i.r i.s (Ptx.Types.dtype_name i.dtype) t.device.Gpu.Device.name)
