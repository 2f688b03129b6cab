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
  (* Re-measuring loaded plans draws from its own generator: if it shared
     [rng], merely loading a plan cache would perturb every subsequent
     [plan_*] search, making planning results depend on load order. *)
  load_rng : Util.Rng.t;
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
    load_rng = Util.Rng.create 0x10ad5;
    planner = Tuner.Search.planner ();
    gemm_cache = Plan_cache.create ?max_entries:cache_entries ();
    conv_cache = Plan_cache.create ?max_entries:cache_entries () }

let tune ?samples ?(epochs = 20) ?arch ?dtypes ?(noise = Gpu.Executor.default_noise)
    ?domains ?checkpoint rng device ~op () =
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
              Tuner.Dataset.generate_gemm ~domains ?dtypes ~noise ?checkpoint
                rng device ~n:samples
            | `Conv ->
              Tuner.Dataset.generate_conv ~domains ?dtypes ~noise ?checkpoint
                rng device ~n:samples)
      in
      let profile =
        Obs.Span.with_ "tune.train" (fun () ->
            Tuner.Profile.train ?arch ~epochs rng dataset)
      in
      of_profile device profile)

let profile t = t.profile
let device t = t.device

(* The packed-encoding hash is the plan's kernel identity: O(1)
   equality, written on each plans-file line and re-derived on load.
   Kernels are register-allocated before encoding — the packed format's
   fixed-width register fields assume physical numbering, and the
   canonical form also gives kernels that differ only in virtual
   register names one hash. Computed once per cache miss and once per
   loaded line; encoding failures (a kernel outgrowing the fixed-width
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

(* --- filesystem plan cache (paper §6) ---------------------------------- *)

let dtype_tag : Ptx.Types.dtype -> string = function
  | F16 -> "f16"
  | F32 -> "f32"
  | F64 -> "f64"

let dtype_of_tag = function
  | "f16" -> Some Ptx.Types.F16
  | "f32" -> Some Ptx.Types.F32
  | "f64" -> Some Ptx.Types.F64
  | _ -> None

let config_fields (c : GP.config) =
  String.concat " "
    (List.map string_of_int (Array.to_list (GP.config_to_array c)))

(* Artifact version 1 was the pre-checksum "isaac-plans v1" text file;
   version 2 is the same line format inside a checksummed
   {!Util.Artifact} envelope, with the device recorded on the first
   payload line (and actually validated on load). Version 3 appends
   [@ <hash>], the plan's {!Ptx.Encode} kernel identity, to each plan
   line. No kernel is stored: the (input, configuration) pair
   determines it, so [load_plans] regenerates each line's kernel and
   checks the stored hash against it. *)
let plans_kind = "isaac-plans"
let plans_version = 3

let hash_suffix = function
  | Some h -> " @ " ^ Ptx.Encode.hash_hex h
  | None -> ""

let save_plans t path =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "device %s\n" t.device.Gpu.Device.name);
  Plan_cache.iter t.gemm_cache (fun (i : GP.input) plan ->
      match plan with
      | Some p ->
        Buffer.add_string buf
          (Printf.sprintf "gemm %d %d %d %s %b %b : %s%s\n" i.m i.n i.k
             (dtype_tag i.dtype) i.a_trans i.b_trans (config_fields p.config)
             (hash_suffix p.kernel_hash))
      | None -> ());
  Plan_cache.iter t.conv_cache (fun (i : CP.input) plan ->
      match plan with
      | Some p ->
        Buffer.add_string buf
          (Printf.sprintf "conv %d %d %d %d %d %d %d %d %d %s : %s%s\n" i.n
             i.c i.k i.p i.q i.r i.s i.stride i.pad (dtype_tag i.dtype)
             (config_fields p.config) (hash_suffix p.kernel_hash))
      | None -> ());
  Util.Artifact.write ~path ~kind:plans_kind ~version:plans_version
    (Buffer.contents buf)

let plan_of_config t ~kernel_hash cost config =
  match Gpu.Executor.measure_best_of t.load_rng t.device cost with
  | None -> None
  | Some m ->
    Some
      { config; measurement = m; predicted_tflops = m.tflops; n_legal = 0;
        phases = []; kernel_hash }

type plan_entry =
  | Gemm_entry of GP.input * GP.config * int64 option
  | Conv_entry of CP.input * GP.config * int64 option

(* One plan line -> entry, [None] on any malformed field. Pure parsing:
   no cache mutation, no measurement. The v3 [@ <hash>] kernel-identity
   suffix is optional so v2 caches still load; a malformed hash rejects
   the line like any other bad field. *)
let parse_plan_line line =
  match String.index_opt line ':' with
  | None -> None
  | Some colon -> (
    let head =
      String.split_on_char ' ' (String.trim (String.sub line 0 colon))
      |> List.filter (( <> ) "")
    in
    let tail =
      String.sub line (colon + 1) (String.length line - colon - 1)
      |> String.trim |> String.split_on_char ' '
      |> List.filter (( <> ) "")
    in
    let cfg_part, hash_part =
      let rec split acc = function
        | "@" :: rest -> Some (List.rev acc, rest)
        | x :: rest -> split (x :: acc) rest
        | [] -> None
      in
      match split [] tail with
      | Some (cfg, [ h ]) -> (cfg, Some h)
      | Some _ -> ([], Some "malformed")  (* forces rejection below *)
      | None -> (tail, None)
    in
    let hash =
      match hash_part with
      | None -> Ok None
      | Some h -> (
        match Int64.of_string_opt ("0x" ^ h) with
        | Some v when String.length h = 16 -> Ok (Some v)
        | _ -> Error ())
    in
    match hash with
    | Error () -> None
    | Ok hash -> (
    match
      cfg_part |> List.map int_of_string |> Array.of_list |> GP.config_of_array
    with
    | exception _ -> None
    | cfg -> (
      match head with
      | [ "gemm"; m; n; k; dt; at; bt ] -> (
        match (dtype_of_tag dt, bool_of_string_opt at, bool_of_string_opt bt) with
        | Some dtype, Some a_trans, Some b_trans -> (
          match
            GP.input ~dtype ~a_trans ~b_trans (int_of_string m)
              (int_of_string n) (int_of_string k)
          with
          | input -> Some (Gemm_entry (input, cfg, hash))
          | exception _ -> None)
        | _ -> None)
      | [ "conv"; n; c; k; p; q; r; s; stride; pad; dt ] -> (
        match dtype_of_tag dt with
        | None -> None
        | Some dtype -> (
          match
            CP.input ~dtype ~stride:(int_of_string stride)
              ~pad:(int_of_string pad) ~n:(int_of_string n)
              ~c:(int_of_string c) ~k:(int_of_string k) ~p:(int_of_string p)
              ~q:(int_of_string q) ~r:(int_of_string r) ~s:(int_of_string s)
              ()
          with
          | input -> Some (Conv_entry (input, cfg, hash))
          | exception _ -> None))
      | _ -> None)))

let load_plans t path =
  match
    Util.Artifact.read ~path ~kind:plans_kind ~max_version:plans_version
  with
  | Error e ->
    let msg = Util.Artifact.error_to_string ~path e in
    (* Under telemetry, annotate the failure report with the flight
       recorder's recent-event context (which requests were in flight
       when the artifact turned out bad). *)
    let flight =
      if Obs.Telemetry.enabled () then begin
        Obs.Telemetry.incr "plans.load_failures";
        Obs.Telemetry.Flight.record ~kind:"artifact.error" ~name:path msg;
        match Obs.Telemetry.Flight.dump () with "" -> "" | d -> "\n" ^ d
      end
      else ""
    in
    Error (msg ^ flight)
  | Ok (_, payload) -> (
    match String.split_on_char '\n' payload with
    | [] -> Error (path ^ ": empty plan cache payload")
    | device_line :: rest ->
      if device_line <> "device " ^ t.device.Gpu.Device.name then
        Error
          (Printf.sprintf "%s: plan cache is for %S, engine device is %S" path
             device_line t.device.Gpu.Device.name)
      else begin
        (* Parse the whole payload first, then install: a bad line cannot
           leave the cache half-populated. Malformed lines are skipped
           with a warning rather than aborting the load. *)
        let entries = ref [] and skipped = ref 0 in
        List.iteri
          (fun i line ->
            let lineno = i + 2 in
            if String.trim line <> "" then
              match parse_plan_line line with
              | Some e -> entries := (lineno, e) :: !entries
              | None ->
                incr skipped;
                Obs.Telemetry.incr "plans.skipped_lines";
                Log.warn (fun m ->
                    m "%s:%d: skipping malformed plan line" path lineno))
          rest;
        let entries = List.rev !entries in
        (* A stored hash must be the hash of the kernel the line's
           (input, config) pair generates: a mismatch means the line
           does not describe the kernel this build would serve, so it
           is skipped. A line without a hash (v2) takes the re-derived
           one, so every loaded plan carries the hash of the kernel it
           runs. *)
        let installed = ref 0 in
        let install cache ~legal ~cost ~generate lineno input cfg stored =
          if not (legal input cfg) then incr skipped
          else
            let kernel_hash = hash_of_config generate input cfg in
            match stored with
            | Some h when Some h <> kernel_hash ->
              incr skipped;
              Log.warn (fun m ->
                  m "%s:%d: stored kernel hash %s is not the hash of the \
                     kernel this line generates; skipping"
                    path lineno (Ptx.Encode.hash_hex h))
            | _ ->
              let plan = plan_of_config t ~kernel_hash (cost input cfg) cfg in
              if Plan_cache.insert cache input plan then incr installed
        in
        List.iter
          (fun (lineno, entry) ->
            match entry with
            | Gemm_entry (input, cfg, hash) ->
              install t.gemm_cache ~legal:GP.structurally_legal ~cost:GP.cost
                ~generate:Codegen.Gemm.generate lineno input cfg hash
            | Conv_entry (input, cfg, hash) ->
              install t.conv_cache ~legal:CP.structurally_legal ~cost:CP.cost
                ~generate:Codegen.Conv.generate lineno input cfg hash)
          entries;
        Ok (!installed, !skipped)
      end)

let clear_cache t =
  Plan_cache.clear t.gemm_cache;
  Plan_cache.clear t.conv_cache
