(* Unit and property tests for the util library: PRNG, statistics, table
   rendering, CSV round-trips and env-based scaling. *)

let quick name f = Alcotest.test_case name `Quick f

(* --- rng ------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Util.Rng.create 7 and b = Util.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Util.Rng.int a 1000) (Util.Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Util.Rng.create 7 and b = Util.Rng.create 8 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Util.Rng.int a 1_000_000 = Util.Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 5)

let test_rng_bounds () =
  let rng = Util.Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Util.Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17);
    let f = Util.Rng.uniform rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0);
    let x = Util.Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (x >= -5 && x <= 5)
  done

let test_rng_split_independent () =
  let root = Util.Rng.create 42 in
  let a = Util.Rng.split root in
  let b = Util.Rng.split root in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Util.Rng.int a 1_000_000 = Util.Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 5)

let test_rng_copy () =
  let a = Util.Rng.create 11 in
  ignore (Util.Rng.int a 100);
  let b = Util.Rng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int) "copy replays" (Util.Rng.int a 999) (Util.Rng.int b 999)
  done

let test_gaussian_moments () =
  let rng = Util.Rng.create 5 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Util.Rng.gaussian rng) in
  let mean = Util.Stats.mean xs in
  let std = Util.Stats.stddev xs in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "std ~ 1" true (Float.abs (std -. 1.0) < 0.05)

let test_choice_weighted () =
  let rng = Util.Rng.create 9 in
  let counts = Array.make 3 0 in
  let w = [| 1.0; 0.0; 3.0 |] in
  for _ = 1 to 4000 do
    let i = Util.Rng.choice_weighted rng w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight never drawn" 0 counts.(1);
  let ratio = float_of_int counts.(2) /. float_of_int counts.(0) in
  Alcotest.(check bool) "3:1 ratio approx" true (ratio > 2.4 && ratio < 3.75)

let test_permutation_valid () =
  let rng = Util.Rng.create 13 in
  let p = Util.Rng.permutation rng 50 in
  let seen = Array.make 50 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  Alcotest.(check bool) "is a permutation" true (Array.for_all Fun.id seen)

(* --- stats ------------------------------------------------------------ *)

let test_stats_basics () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Util.Stats.mean a);
  Alcotest.(check (float 1e-9)) "variance" 1.25 (Util.Stats.variance a);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Util.Stats.median a);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Util.Stats.min a);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Util.Stats.max a);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Util.Stats.percentile a 0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Util.Stats.percentile a 100.0)

let test_stats_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Util.Stats.geomean [| 1.0; 2.0; 4.0 |])

let test_stats_mse_mae () =
  let a = [| 1.0; 2.0 |] and b = [| 2.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mse" 2.5 (Util.Stats.mse a b);
  Alcotest.(check (float 1e-9)) "mae" 1.5 (Util.Stats.mae a b)

let test_stats_correlation () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  let b = Array.map (fun x -> (2.0 *. x) +. 1.0) a in
  Alcotest.(check (float 1e-9)) "perfect" 1.0 (Util.Stats.correlation a b);
  let c = Array.map (fun x -> -.x) a in
  Alcotest.(check (float 1e-9)) "anti" (-1.0) (Util.Stats.correlation a c)

let test_stats_arg () =
  let a = [| 3.0; 1.0; 5.0; 5.0 |] in
  Alcotest.(check int) "argmax first" 2 (Util.Stats.argmax a);
  Alcotest.(check int) "argmin" 1 (Util.Stats.argmin a)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p"
    QCheck.(pair
              (array_of_size Gen.(int_range 1 40) (float_range (-100.) 100.))
              (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun (a, (p1, p2)) ->
      QCheck.assume (Array.length a > 0);
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Util.Stats.percentile a lo <= Util.Stats.percentile a hi +. 1e-9)

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean within [min, max]"
    QCheck.(array_of_size Gen.(int_range 1 40) (float_range (-1e6) 1e6))
    (fun a ->
      QCheck.assume (Array.length a > 0);
      let m = Util.Stats.mean a in
      m >= Util.Stats.min a -. 1e-6 && m <= Util.Stats.max a +. 1e-6)

(* --- table ------------------------------------------------------------ *)

let test_table_render () =
  let s =
    Util.Table.render ~header:[| "a"; "bb" |] [ [| "x"; "1" |]; [| "yy"; "22" |] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "6 lines" 6 (List.length lines);
  let widths = List.map String.length lines in
  List.iter (fun w -> Alcotest.(check int) "equal width" (List.hd widths) w) widths

let test_table_fmt () =
  Alcotest.(check string) "pct" "12.5%" (Util.Table.fmt_pct 0.125);
  Alcotest.(check string) "float" "3.14" (Util.Table.fmt_float 3.14159);
  Alcotest.(check string) "float d3" "3.142" (Util.Table.fmt_float ~decimals:3 3.14159)

(* --- csv -------------------------------------------------------------- *)

let test_csv_roundtrip () =
  let path = Filename.temp_file "isaac_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let rows = [ [| 1.0; -2.5 |]; [| 3.25e-10; 4e22 |] ] in
      Util.Csv.write path ~header:[ "x"; "y" ] rows;
      let header, got = Util.Csv.read path in
      Alcotest.(check (list string)) "header" [ "x"; "y" ] header;
      List.iter2
        (fun want have ->
          Array.iteri
            (fun i w -> Alcotest.(check bool) "cell" true (Float.abs (w -. have.(i)) <= 1e-9 *. Float.abs w))
            want)
        rows got)

(* --- env config -------------------------------------------------------- *)

let test_env_scaled () =
  Unix.putenv "REPRO_SCALE" "0.5";
  Alcotest.(check int) "half" 50 (Util.Env_config.scaled 100);
  Unix.putenv "REPRO_SCALE" "1.0";
  Alcotest.(check int) "identity" 100 (Util.Env_config.scaled 100);
  Alcotest.(check int) "at least 1" 1 (Util.Env_config.scaled 0)

let test_env_parsing () =
  Unix.putenv "ISAAC_TEST_INT" "17";
  Alcotest.(check int) "int" 17 (Util.Env_config.int "ISAAC_TEST_INT" 3);
  Alcotest.(check int) "default" 3 (Util.Env_config.int "ISAAC_TEST_MISSING" 3);
  Unix.putenv "ISAAC_TEST_BOOL" "true";
  Alcotest.(check bool) "bool" true (Util.Env_config.bool "ISAAC_TEST_BOOL" false)

(* --- parallel ----------------------------------------------------------- *)

(* Each chunk writes its own slice of a shared array: together they
   must equal a plain map for any domain count. *)
let test_parallel_map_equiv () =
  let arr = Array.init 1000 (fun i -> i) in
  let f x = (x * x) + 1 in
  List.iter
    (fun domains ->
      let out = Array.make (Array.length arr) 0 in
      let (_ : unit list) =
        Util.Parallel.run_chunks ~domains ~total:(Array.length arr)
          (fun ~chunk:_ ~offset ~size ->
            for i = offset to offset + size - 1 do
              out.(i) <- f arr.(i)
            done)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "map with %d domains" domains)
        (Array.map f arr) out)
    [ 1; 2; 4; 7 ]

let test_parallel_chunks () =
  let chunks =
    Util.Parallel.run_chunks ~domains:4 ~total:10 (fun ~chunk ~offset ~size ->
        (chunk, offset, size))
  in
  Alcotest.(check (list (triple int int int))) "chunk offsets and sizes"
    [ (0, 0, 3); (1, 3, 3); (2, 6, 2); (3, 8, 2) ] chunks;
  let total =
    List.fold_left (fun acc s -> acc + s)
      0
      (Util.Parallel.run_chunks ~domains:3 ~total:100
         (fun ~chunk:_ ~offset:_ ~size -> size))
  in
  Alcotest.(check int) "sizes sum to total" 100 total

let test_parallel_degenerate () =
  Alcotest.(check (list (triple int int int))) "single domain: one chunk"
    [ (0, 0, 50) ]
    (Util.Parallel.run_chunks ~domains:1 ~total:50 (fun ~chunk ~offset ~size ->
         (chunk, offset, size)));
  Alcotest.(check bool) "recommended >= 1" true (Util.Parallel.recommended_domains () >= 1)

(* A failing chunk must not leave its siblings running after the call
   returns: chunk 0 raises at once while chunk 1 is still working, and
   the exception may surface only after chunk 1 has finished. *)
let test_parallel_failure_joins_siblings () =
  let finished = Atomic.make false in
  (match
     Util.Parallel.run_chunks ~domains:2 ~total:2 (fun ~chunk ~offset:_ ~size:_ ->
         if chunk = 0 then failwith "chunk 0"
         else begin
           Unix.sleepf 0.2;
           Atomic.set finished true
         end)
   with
   | _ -> Alcotest.fail "the chunk failure was swallowed"
   | exception Failure msg -> Alcotest.(check string) "first failure" "chunk 0" msg);
  Alcotest.(check bool) "sibling finished before the raise" true
    (Atomic.get finished)

let () =
  Alcotest.run "util"
    [ ("rng",
       [ quick "deterministic" test_rng_deterministic;
         quick "seed sensitivity" test_rng_seed_sensitivity;
         quick "bounds" test_rng_bounds;
         quick "split independence" test_rng_split_independent;
         quick "copy replays" test_rng_copy;
         quick "gaussian moments" test_gaussian_moments;
         quick "weighted choice" test_choice_weighted;
         quick "permutation valid" test_permutation_valid ]);
      ("stats",
       [ quick "basics" test_stats_basics;
         quick "geomean" test_stats_geomean;
         quick "mse/mae" test_stats_mse_mae;
         quick "correlation" test_stats_correlation;
         quick "argmax/argmin" test_stats_arg;
         QCheck_alcotest.to_alcotest prop_percentile_monotone;
         QCheck_alcotest.to_alcotest prop_mean_bounded ]);
      ("table", [ quick "render" test_table_render; quick "formats" test_table_fmt ]);
      ("csv", [ quick "roundtrip" test_csv_roundtrip ]);
      ("env", [ quick "scaled" test_env_scaled; quick "parsing" test_env_parsing ]);
      ("parallel",
       [ quick "map equivalence" test_parallel_map_equiv;
         quick "chunking" test_parallel_chunks;
         quick "degenerate" test_parallel_degenerate;
         quick "failing chunk joins its siblings"
           test_parallel_failure_joins_siblings ]) ]
