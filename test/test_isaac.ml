(* End-to-end tests of the public ISAAC API: tune -> plan -> execute,
   plan caching, profile round-trips through the engine, and functional
   execution matching the reference oracles. *)

let () = Unix.putenv "ISAAC_SEARCH_CAP" "4000"

let slow name f = Alcotest.test_case name `Slow f

module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params

(* One small engine per op, shared across tests (tuning is the slow
   part). *)
let gemm_engine =
  lazy
    (let rng = Util.Rng.create 604 in
     Isaac.tune ~samples:1500 ~epochs:12 ~arch:[| 32; 32 |] rng Gpu.Device.gtx980ti
       ~op:`Gemm ())

let conv_engine =
  lazy
    (let rng = Util.Rng.create 605 in
     Isaac.tune ~samples:1200 ~epochs:12 ~arch:[| 32; 32 |] rng Gpu.Device.gtx980ti
       ~op:`Conv ())

let test_plan_gemm () =
  let engine = Lazy.force gemm_engine in
  let input = GP.input 512 512 512 in
  match Isaac.plan_gemm engine input with
  | None -> Alcotest.fail "no plan"
  | Some plan ->
    Alcotest.(check bool) "legal config" true
      (GP.structurally_legal input plan.config);
    Alcotest.(check bool) "positive speed" true (plan.measurement.tflops > 0.0);
    Alcotest.(check bool) "explored space" true (plan.n_legal > 1000)

(* A fresh plan records the five search phases in pipeline order. The
   planner's bit-for-bit agreement with the reference planner lives in
   test_tuner. With the trace open, each phase time is its
   [search.<phase>] span's duration bit for bit: the trace event's
   [dur], and the sum of the [search.<phase>_s] histogram's one
   observation. The trace also shows which MLP kernel body scored the
   plan: the [search.inference] span's meta carries [lanes], the width
   the library chose, beside its row counts and domains. The
   [search.enumerate] span's meta says how the engine's legality-class
   memo served the plan: ["miss"] on the fresh engine, then ["hit"] for
   a second shape of the same class (same dtype and K). After the
   search, a miss hashes its kernel in one [kernel.hash] span of its
   request; a cache hit hashes nothing. *)
let test_plan_phases () =
  let engine = Lazy.force gemm_engine in
  let fresh = Isaac.of_profile Gpu.Device.gtx980ti (Isaac.profile engine) in
  let traced input =
    let trace = Filename.temp_file "isaac_phases" ".jsonl" in
    Obs.Telemetry.reset ();
    Obs.Trace.start ~path:trace ();
    let plan = Option.get (Isaac.plan_gemm fresh input) in
    Obs.Trace.stop ();
    let spans =
      List.filter
        (fun e -> Obs.Json.member "ev" e = Some (Obs.Json.String "span"))
        (Obs.Trace.read_file trace)
    in
    Sys.remove trace;
    (plan, spans)
  in
  let meta spans name k to_ =
    let e =
      List.find (fun e -> Obs.Json.member "name" e = Some (Obs.Json.String name)) spans
    in
    Option.bind (Obs.Json.member "meta" e) (fun m -> Option.bind (Obs.Json.member k m) to_)
  in
  let named name spans =
    List.filter (fun e -> Obs.Json.member "name" e = Some (Obs.Json.String name)) spans
  in
  let plan, spans = traced (GP.input 640 128 640) in
  (match (named "kernel.hash" spans, named "plan" spans) with
   | [ k ], [ p ] ->
     let req e = Option.bind (Obs.Json.member "req" e) Obs.Json.to_int in
     Alcotest.(check bool) "kernel.hash carries a request id" true (req k <> None);
     Alcotest.(check (option int)) "kernel.hash in the plan's request" (req p) (req k)
   | k, p ->
     Alcotest.failf "expected one kernel.hash and one plan span, got %d and %d"
       (List.length k) (List.length p));
  Alcotest.(check (list string)) "phase names"
    [ "enumerate"; "featurize"; "inference"; "argmax"; "rebench" ]
    (List.map fst plan.phases);
  let bits = Int64.bits_of_float in
  List.iter
    (fun (phase, t) ->
      Alcotest.(check bool) "non-negative phase time" true (t >= 0.0);
      let name = "search." ^ phase in
      (match
         List.filter
           (fun e -> Obs.Json.member "name" e = Some (Obs.Json.String name))
           spans
       with
       | [ e ] ->
         Alcotest.(check int64) (name ^ " span dur") (bits t)
           (bits (Option.get (Option.bind (Obs.Json.member "dur" e) Obs.Json.to_float)))
       | l -> Alcotest.failf "expected one %s span, got %d" name (List.length l));
      let h = Obs.Telemetry.Histo.snapshot (Obs.Telemetry.histo (name ^ "_s")) in
      Alcotest.(check int) (name ^ "_s observations") 1 h.count;
      Alcotest.(check int64) (name ^ "_s sum") (bits t) (bits h.sum))
    plan.phases;
  let inference k = meta spans "search.inference" k Obs.Json.to_int in
  Alcotest.(check (option int)) "inference span lanes" (Some Mlp.Network.lanes)
    (inference "lanes");
  List.iter
    (fun k -> Alcotest.(check bool) ("inference span " ^ k) true (inference k <> None))
    [ "n_legal"; "n_scored"; "domains" ];
  let class_of spans = meta spans "search.enumerate" "class" Obs.Json.to_str in
  Alcotest.(check (option string)) "fresh engine walks the class" (Some "miss")
    (class_of spans);
  Alcotest.(check int) "one walk counted" 1
    (Option.get (Obs.Telemetry.counter_value "search.class_miss"));
  let again, spans = traced (GP.input ~b_trans:true 320 256 640) in
  Alcotest.(check (option string)) "same class is a hit" (Some "hit") (class_of spans);
  Alcotest.(check int) "one hit counted" 1
    (Option.get (Obs.Telemetry.counter_value "search.class_hit"));
  Alcotest.(check int) "same legal set" plan.n_legal again.n_legal;
  let _, spans = traced (GP.input 640 128 640) in
  Alcotest.(check int) "a hit hashes nothing" 0 (List.length (named "kernel.hash" spans))

(* A plan names its kernel: [kernel_hash] is the structural hash of the
   program generated for its input and config. *)
let test_kernel_hash () =
  let gemm = GP.input 512 256 384 in
  let g = Option.get (Isaac.plan_gemm (Lazy.force gemm_engine) gemm) in
  Alcotest.(check int64) "gemm" (Ptx.Program.hash (Codegen.Gemm.generate gemm g.config))
    g.kernel_hash;
  let conv = CP.input ~n:2 ~c:32 ~k:64 ~p:14 ~q:14 ~r:3 ~s:3 () in
  let c = Option.get (Isaac.plan_conv (Lazy.force conv_engine) conv) in
  Alcotest.(check int64) "conv" (Ptx.Program.hash (Codegen.Conv.generate conv c.config))
    c.kernel_hash

(* Two plans of one input differ only in their [phases] timings. *)
let strip (p : Isaac.plan) = { p with phases = [] }

(* A second request for an input is served from the cache, and that
   cached plan is what planning the input computes: a fresh engine with
   the same profile, whose first request it is, plans it bit for bit
   (timings aside). The shared engine plans another input first, so
   noise drawn from a generator the engine shares across requests,
   rather than one seeded by the request, would tell the two apart. *)
let test_plan_cache () =
  let engine = Lazy.force gemm_engine in
  let input = GP.input 384 384 384 in
  ignore (Isaac.plan_gemm engine (GP.input 96 160 224));
  let p1 = Option.get (Isaac.plan_gemm engine input) in
  let p2 = Option.get (Isaac.plan_gemm engine input) in
  Alcotest.(check bool) "cached plan identical" true (p1 == p2);
  let fresh = Isaac.of_profile (Isaac.device engine) (Isaac.profile engine) in
  let p3 = Option.get (Isaac.plan_gemm fresh input) in
  Alcotest.(check bool) "fresh engine re-plans the cached plan" true
    (strip p1 = strip p3)

let test_gemm_executes_correctly () =
  let engine = Lazy.force gemm_engine in
  let input = GP.input 33 29 41 in
  let rng = Util.Rng.create 8 in
  let a = Array.init (input.m * input.k) (fun _ -> Util.Rng.uniform rng -. 0.5) in
  let b = Array.init (input.k * input.n) (fun _ -> Util.Rng.uniform rng -. 0.5) in
  let got = Isaac.gemm engine input ~a ~b in
  let want = Codegen.Gemm.reference input ~a ~b in
  Array.iteri
    (fun i w ->
      if Float.abs (got.(i) -. w) > 1e-9 *. (1.0 +. Float.abs w) then
        Alcotest.failf "C[%d] = %g want %g" i got.(i) w)
    want

let test_conv_executes_correctly () =
  let engine = Lazy.force conv_engine in
  let input = CP.input ~n:2 ~c:3 ~k:5 ~p:6 ~q:7 ~r:3 ~s:3 () in
  let rng = Util.Rng.create 9 in
  let image =
    Array.init (input.n * input.c * CP.h input * CP.w input)
      (fun _ -> Util.Rng.uniform rng -. 0.5)
  in
  let filter = Array.init (CP.crs input * input.k) (fun _ -> Util.Rng.uniform rng -. 0.5) in
  let got = Isaac.conv engine input ~image ~filter in
  let want = Codegen.Conv.reference input ~image ~filter in
  Array.iteri
    (fun i w ->
      if Float.abs (got.(i) -. w) > 1e-9 *. (1.0 +. Float.abs w) then
        Alcotest.failf "O[%d] = %g want %g" i got.(i) w)
    want

let test_of_profile_device_mismatch () =
  let engine = Lazy.force gemm_engine in
  let profile = Isaac.profile engine in
  Alcotest.check_raises "wrong device"
    (Invalid_argument
       "Isaac.of_profile: profile tuned on GTX 980 Ti, device is Tesla P100")
    (fun () -> ignore (Isaac.of_profile Gpu.Device.p100 profile))

let test_profile_roundtrip_through_engine () =
  let engine = Lazy.force gemm_engine in
  let path = Filename.temp_file "isaac_engine" ".profile" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Tuner.Profile.save (Isaac.profile engine) path;
      let engine2 = Isaac.of_profile Gpu.Device.gtx980ti (Tuner.Profile.load_exn path) in
      let input = GP.input 512 512 512 in
      let p1 = Option.get (Isaac.plan_gemm engine input) in
      let p2 = Option.get (Isaac.plan_gemm engine2 input) in
      (* Same model, same deterministic search: identical predictions. *)
      Alcotest.(check (float 1e-6)) "same predicted tflops"
        p1.predicted_tflops p2.predicted_tflops)

let test_input_awareness () =
  (* The whole point of the paper: different input shapes must be able to
     receive different kernels. With a deep-K and a square input, any
     sensible engine picks different reduction splits. *)
  let engine = Lazy.force gemm_engine in
  let square = Option.get (Isaac.plan_gemm engine (GP.input ~b_trans:true 1024 1024 1024)) in
  let deep = Option.get (Isaac.plan_gemm engine (GP.input ~b_trans:true 32 32 60000)) in
  Alcotest.(check bool) "deep-K splits, square does not" true
    (deep.config.kl * deep.config.kg > square.config.kl * square.config.kg)

(* Satellite of the serving PR: the plan cache must be safe to hammer
   from several domains at once, run exactly one search per distinct
   input (coalescing), and — because search noise is seeded per input —
   produce plans bit-identical to a single-domain pass. *)
let hammer_plans n_domains inputs =
  let base = Lazy.force gemm_engine in
  let engine = Isaac.of_profile (Isaac.device base) (Isaac.profile base) in
  let n = List.length inputs in
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            (* distinct rotations so misses, coalesced waits and hits
               all happen *)
            List.init n (fun j -> List.nth inputs ((j + d) mod n))
            |> List.iter (fun i -> ignore (Isaac.plan_gemm engine i))))
  in
  List.iter Domain.join domains;
  let stats = Isaac.cache_stats engine in
  Alcotest.(check int)
    (Printf.sprintf "%d domains: one search per distinct input" n_domains)
    n stats.misses;
  List.map (fun i -> Option.get (Isaac.plan_gemm engine i)) inputs

let test_multi_domain_hammer () =
  let inputs =
    [ GP.input 256 256 256;
      GP.input 384 128 384;
      GP.input ~b_trans:true 128 384 128;
      GP.input ~a_trans:true 192 192 192;
      GP.input 320 64 320 ]
  in
  let solo = hammer_plans 1 inputs in
  let raced = hammer_plans 4 inputs in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "input %d: 1-domain and 4-domain plans bit-identical" i)
        true
        (strip a = strip b))
    (List.combine solo raced)

let test_coalescing_single_search () =
  let base = Lazy.force gemm_engine in
  let engine = Isaac.of_profile (Isaac.device base) (Isaac.profile base) in
  let input = GP.input 448 96 448 in
  let results =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Isaac.plan_gemm_with_status engine input))
    |> List.map Domain.join
  in
  let count o = List.length (List.filter (fun (_, o') -> o' = o) results) in
  Alcotest.(check int) "exactly one search ran" 1
    (count Isaac.Plan_cache.Miss);
  Alcotest.(check int) "everyone else parked or hit" 3
    (count Isaac.Plan_cache.Coalesced + count Isaac.Plan_cache.Hit);
  (match results with
   | (p0, _) :: rest ->
     List.iter
       (fun (p, _) ->
         Alcotest.(check bool) "identical plan for every domain" true (p = p0))
       rest
   | [] -> assert false);
  let stats = Isaac.cache_stats engine in
  Alcotest.(check int) "cache counted one miss" 1 stats.misses

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_explain () =
  let engine = Lazy.force gemm_engine in
  let text = Isaac.explain_gemm engine (GP.input 512 384 640) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains text needle))
    [ "ISAAC chose"; "occupancy"; "L2 hit rate"; "register pressure";
      "GFLOPS/W"; "vendor-like baseline" ]

let test_explain_conv () =
  let engine = Lazy.force conv_engine in
  let text =
    Isaac.explain_conv engine (CP.input ~n:2 ~c:16 ~k:32 ~p:8 ~q:8 ~r:3 ~s:3 ())
  in
  Alcotest.(check bool) "conv header" true (contains text "CONV N=2 C=16 K=32")

let () =
  Alcotest.run "isaac"
    [ ("planning",
       [ slow "plan gemm" test_plan_gemm;
         slow "phases" test_plan_phases;
         slow "plan cache" test_plan_cache;
         slow "input awareness" test_input_awareness;
         slow "kernel hash" test_kernel_hash ]);
      ("execution",
       [ slow "gemm matches reference" test_gemm_executes_correctly;
         slow "conv matches reference" test_conv_executes_correctly ]);
      ("profiles",
       [ slow "device mismatch" test_of_profile_device_mismatch;
         slow "roundtrip through engine" test_profile_roundtrip_through_engine ]);
      ("explain",
       [ slow "gemm analysis" test_explain; slow "conv analysis" test_explain_conv ]);
      ("concurrency",
       [ slow "multi-domain hammer, 1 vs 4 domains" test_multi_domain_hammer;
         slow "coalescing: one search for racing domains" test_coalescing_single_search ]) ]
