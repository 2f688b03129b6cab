(* Tests for Obs.Telemetry: bucket geometry, known-value percentiles,
   multi-domain exactness, the model-drift channel, the flight recorder,
   and the snapshot the registry is recorded as.

   The correctness claims pinned here are the ones telemetry.mli
   advertises: counter totals are exact for any domain count, and
   histogram quantiles carry a <= 2% relative error. *)

module T = Obs.Telemetry
module H = T.Histo
module J = Obs.Json

let quick name f = Alcotest.test_case name `Quick f

let tmp_path name =
  let path = Filename.temp_file ("telemetry_" ^ name) ".jsonl" in
  Sys.remove path;
  path

(* Run [f] with the registry collecting into a trace on a throwaway
   file, always stopping (and so disabling) afterwards so later tests
   see the layer off again. *)
let with_telemetry name f =
  let path = tmp_path name in
  Obs.Trace.start ~path ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.stop ();
      T.reset ();
      if Sys.file_exists path then Sys.remove path)
    f

(* --- bucket geometry ---------------------------------------------------- *)

let test_bucket_boundaries () =
  (* A bucket's inclusive lower edge must map back to that bucket, and
     the largest float below it must fall in the previous bucket. Edges
     are dyadic rationals, so both checks are exact, not approximate. *)
  List.iter
    (fun b ->
      Alcotest.(check int)
        (Printf.sprintf "lower edge of bucket %d" b)
        b
        (H.bucket_of (H.bucket_lower b));
      if b > 0 then
        Alcotest.(check int)
          (Printf.sprintf "pred of lower edge of bucket %d" b)
          (b - 1)
          (H.bucket_of (Float.pred (H.bucket_lower b))))
    [ 1; 2; 31; 32; 33; 64; 100; 1000; H.n_buckets - 1 ];
  (* Out-of-range and degenerate inputs clamp instead of escaping. *)
  Alcotest.(check int) "zero clamps low" 0 (H.bucket_of 0.0);
  Alcotest.(check int) "negative clamps low" 0 (H.bucket_of (-3.0));
  Alcotest.(check int) "nan clamps low" 0 (H.bucket_of Float.nan);
  Alcotest.(check int) "denormal clamps low" 0 (H.bucket_of 1e-300);
  Alcotest.(check int)
    "inf clamps high"
    (H.n_buckets - 1)
    (H.bucket_of Float.infinity);
  Alcotest.(check int)
    "huge clamps high"
    (H.n_buckets - 1)
    (H.bucket_of 1e300);
  (* Monotonicity across a few octaves of in-range values. *)
  let prev = ref (-1) in
  let v = ref 1e-6 in
  while !v < 1e6 do
    let b = H.bucket_of !v in
    if b < !prev then
      Alcotest.failf "bucket_of not monotone at %g: %d < %d" !v b !prev;
    prev := b;
    v := !v *. 1.01
  done

let check_rel ~msg ~expect actual =
  let rel = Float.abs (actual -. expect) /. Float.abs expect in
  if rel > 0.02 then
    Alcotest.failf "%s: got %g, want %g (+-2%%), rel err %.3f%%" msg actual
      expect (100.0 *. rel)

let test_known_percentiles () =
  (* 1..1000: every order statistic is known, so the quantile walk can
     be checked against ground truth at the advertised 2% bound. *)
  let h = H.create () in
  for i = 1 to 1000 do
    H.observe h (float i)
  done;
  let s = H.snapshot h in
  Alcotest.(check int) "count" 1000 s.H.count;
  Alcotest.(check (float 1e-9)) "sum" 500500.0 s.H.sum;
  Alcotest.(check (float 0.0)) "min exact" 1.0 s.H.min_v;
  Alcotest.(check (float 0.0)) "max exact" 1000.0 s.H.max_v;
  check_rel ~msg:"p50" ~expect:500.0 (H.quantile s 0.5);
  check_rel ~msg:"p90" ~expect:900.0 (H.quantile s 0.9);
  check_rel ~msg:"p99" ~expect:990.0 (H.quantile s 0.99);
  (* Extreme quantiles clamp to the exact observed min/max, so they can
     never overshoot the bucket midpoint would suggest. *)
  check_rel ~msg:"p100" ~expect:1000.0 (H.quantile s 1.0);
  check_rel ~msg:"p0" ~expect:1.0 (H.quantile s 0.0);
  if H.quantile s 1.0 > s.H.max_v then Alcotest.fail "p100 above exact max";
  if H.quantile s 0.0 < s.H.min_v then Alcotest.fail "p0 below exact min";
  check_rel ~msg:"mean" ~expect:500.5 (H.mean s);
  (* A second, skewed vector: 99 fast outcomes and one slow one. *)
  let h2 = H.create () in
  for _ = 1 to 99 do
    H.observe h2 0.001
  done;
  H.observe h2 10.0;
  let s2 = H.snapshot h2 in
  check_rel ~msg:"skewed p50" ~expect:0.001 (H.quantile s2 0.5);
  Alcotest.(check (float 0.0)) "skewed p100" 10.0 (H.quantile s2 1.0);
  (* Empty histogram degenerates to NaN, not a crash. *)
  let empty = H.snapshot (H.create ()) in
  Alcotest.(check bool) "empty quantile NaN" true
    (Float.is_nan (H.quantile empty 0.5));
  Alcotest.(check bool) "empty mean NaN" true (Float.is_nan (H.mean empty))

(* --- multi-domain exactness --------------------------------------------- *)

let test_domain_hammer () =
  (* Four domains hammer one counter and one histogram. Shard aliasing
     (two domains landing on the same shard) may cost contention but can
     never lose an increment: totals must be exact. *)
  let c = T.Counter.create () in
  let h = H.create () in
  let per_domain = 25_000 in
  let worker () =
    for i = 1 to per_domain do
      T.Counter.incr c;
      T.Counter.add c 2;
      H.observe h (float ((i mod 100) + 1))
    done
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join domains;
  Alcotest.(check int) "no lost increments" (4 * per_domain * 3)
    (T.Counter.value c);
  let s = H.snapshot h in
  Alcotest.(check int) "no lost observations" (4 * per_domain) s.H.count;
  (* Each domain observes 1..100 cyclically: sum and extremes are known
     exactly, and the median is 50.5 +- the bucket error bound. *)
  let expect_sum = float (4 * (per_domain / 100) * 5050) in
  Alcotest.(check (float 1e-6)) "exact sum" expect_sum s.H.sum;
  Alcotest.(check (float 0.0)) "exact min" 1.0 s.H.min_v;
  Alcotest.(check (float 0.0)) "exact max" 100.0 s.H.max_v;
  check_rel ~msg:"hammered p50" ~expect:50.0 (H.quantile s 0.5);
  T.Counter.reset c;
  Alcotest.(check int) "reset" 0 (T.Counter.value c)

(* --- registry ------------------------------------------------------------ *)

let test_registry () =
  let c1 = T.counter "registry.x" in
  let c2 = T.counter "registry.x" in
  Alcotest.(check bool) "same handle for same name" true (c1 == c2);
  (match T.histo "registry.x" with
  | (_ : H.t) -> Alcotest.fail "kind mismatch not rejected"
  | exception Invalid_argument _ -> ());
  T.Counter.add c1 7;
  Alcotest.(check (option int)) "counter_value finds it" (Some 7)
    (T.counter_value "registry.x");
  T.reset ();
  Alcotest.(check int) "reset keeps handle" 0 (T.Counter.value c1);
  Alcotest.(check bool) "reset handle still registered" true
    (T.counter "registry.x" == c1)

(* --- gating, model drift, flight recorder ------------------------------- *)

let test_gated_sinks_off () =
  Alcotest.(check bool) "telemetry off in test env" false (T.enabled ());
  T.incr "off.counter";
  T.observe "off.hist" 1.0;
  T.Model.record ~op:"gemm" ~bucket:"2^30" ~predicted:1.0 ~measured:2.0;
  T.Flight.record ~kind:"span" ~name:"dead" "nope";
  (* Gated sinks don't even register the name while disabled. *)
  Alcotest.(check (option int)) "counter never registered" None
    (T.counter_value "off.counter");
  Alcotest.(check bool) "no drift recorded" true (T.Model.drift ~op:"gemm" = None);
  Alcotest.(check int) "flight empty" 0 (List.length (T.Flight.events ()))

let test_model_drift () =
  with_telemetry "drift" (fun () ->
      T.Model.record ~op:"gemm" ~bucket:"2^30" ~predicted:1.1 ~measured:1.0;
      T.Model.record ~op:"gemm" ~bucket:"2^30" ~predicted:0.9 ~measured:1.0;
      T.Model.record ~op:"gemm" ~bucket:"2^34" ~predicted:1.5 ~measured:1.0;
      T.Model.record ~op:"conv" ~bucket:"2^28" ~predicted:2.0 ~measured:2.0;
      (* Garbage measurements are dropped, not folded in. *)
      T.Model.record ~op:"gemm" ~bucket:"2^30" ~predicted:1.0 ~measured:0.0;
      T.Model.record ~op:"gemm" ~bucket:"2^30" ~predicted:Float.nan
        ~measured:1.0;
      Alcotest.(check (list string)) "ops sorted" [ "conv"; "gemm" ]
        (T.Model.ops ());
      (match T.Model.drift ~op:"gemm" with
      | None -> Alcotest.fail "gemm drift missing"
      | Some d ->
        (* Sample-weighted mean over both buckets:
           (0.1 + 0.1 + 0.5) / 3. *)
        Alcotest.(check (float 1e-9)) "gemm drift" (0.7 /. 3.0) d);
      (match T.Model.drift ~op:"conv" with
      | None -> Alcotest.fail "conv drift missing"
      | Some d -> Alcotest.(check (float 1e-9)) "perfect prediction" 0.0 d);
      Alcotest.(check bool) "unknown op" true (T.Model.drift ~op:"fft" = None))

let test_flight_recorder () =
  with_telemetry "flight" (fun () ->
      for i = 1 to 199 do
        T.Flight.record ~req:i ~kind:"span" ~name:"k"
          (Printf.sprintf "event-%d" i)
      done;
      (* Clock ticks between the bulk and the final event, so the
         newest-by-timestamp event is unambiguous even where the bulk's
         timestamps collide. *)
      Unix.sleepf 0.002;
      T.Flight.record ~req:200 ~kind:"span" ~name:"k" "event-200";
      let evs = T.Flight.events () in
      (* One writing domain touches one 64-slot ring: exactly the last
         64 events survive, the rest fell off. *)
      Alcotest.(check int) "ring capacity" 64 (List.length evs);
      let details =
        List.sort compare (List.map (fun e -> e.T.Flight.detail) evs)
      in
      let expect =
        List.sort compare
          (List.init 64 (fun i -> Printf.sprintf "event-%d" (i + 137)))
      in
      Alcotest.(check (list string)) "exactly the newest 64" expect details;
      let last = List.nth evs 63 in
      Alcotest.(check string) "newest by timestamp" "event-200"
        last.T.Flight.detail;
      Alcotest.(check int) "request id carried" 200 last.T.Flight.req;
      Alcotest.(check string) "kind carried" "span" last.T.Flight.kind;
      let dump = T.Flight.dump ~limit:5 () in
      let contains needle =
        let nl = String.length needle and hl = String.length dump in
        let rec go i = i + nl <= hl && (String.sub dump i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "dump shows newest" true (contains "event-200");
      Alcotest.(check bool) "dump tags request" true (contains "[req 200]");
      let lines =
        List.length
          (List.filter (fun s -> s <> "") (String.split_on_char '\n' dump))
      in
      (* Header line plus the [limit] newest events. *)
      Alcotest.(check int) "dump honours limit" 6 lines;
      T.Flight.clear ();
      Alcotest.(check int) "clear empties" 0 (List.length (T.Flight.events ()));
      Alcotest.(check string) "empty dump" "" (T.Flight.dump ()))

(* --- snapshot ------------------------------------------------------------ *)

(* The snapshot survives a JSON round trip with its counters, histogram
   quantiles and model drift. *)
let test_snapshot () =
  let snap =
    with_telemetry "snapshot" (fun () ->
        T.add "plan.cache_hit" 3;
        T.incr "plan.cache_miss";
        for i = 1 to 100 do
          T.observe "plan.latency_s" (0.001 *. float i)
        done;
        T.Model.record ~op:"gemm" ~bucket:"2^30" ~predicted:1.2 ~measured:1.0;
        J.of_string (J.to_string (T.snapshot_json ())))
  in
  Alcotest.(check bool) "disabled after stop" false (T.enabled ());
  Alcotest.(check (option string)) "schema" (Some "isaac-telemetry")
    (Option.bind (J.member "schema" snap) J.to_str);
  let at path =
    List.fold_left (fun v k -> Option.bind v (J.member k)) (Some snap) path
  in
  let counter name = Option.bind (at [ "counters"; name ]) J.to_int in
  Alcotest.(check (option int)) "hit counter" (Some 3) (counter "plan.cache_hit");
  Alcotest.(check (option int)) "miss counter" (Some 1) (counter "plan.cache_miss");
  let hist_field field =
    Option.bind (at [ "hists"; "plan.latency_s"; field ]) J.to_float
  in
  (match hist_field "p50" with
  | None -> Alcotest.fail "plan latency p50 missing"
  | Some p50 -> check_rel ~msg:"snapshot p50" ~expect:0.05 p50);
  Alcotest.(check bool) "p95 and p99 present" true
    (hist_field "p95" <> None && hist_field "p99" <> None);
  match Option.bind (at [ "model"; "gemm"; "drift" ]) J.to_float with
  | None -> Alcotest.fail "gemm drift missing"
  | Some d -> Alcotest.(check (float 1e-9)) "drift value" 0.2 d

let () =
  Alcotest.run "telemetry"
    [ ( "histo",
        [ quick "bucket boundaries" test_bucket_boundaries;
          quick "known-value percentiles" test_known_percentiles ] );
      ( "sharding",
        [ quick "4-domain hammer" test_domain_hammer;
          quick "registry" test_registry ] );
      ( "gating",
        [ quick "sinks off by default" test_gated_sinks_off;
          quick "model drift" test_model_drift;
          quick "flight recorder" test_flight_recorder ] );
      ("snapshot", [ quick "json round trip" test_snapshot ]) ]
