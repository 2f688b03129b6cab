(* Resilience of the offline pipeline: dataset generation is a function
   of the seed and the domain count alone, degenerate search spaces fail
   fast, transient benchmark failures are skipped, and a crash while
   saving a profile keeps the previous one loadable. *)

module D = Tuner.Dataset
module F = Util.Faultsim

let with_faults spec f =
  F.configure spec;
  Fun.protect ~finally:(fun () -> F.configure "") f

let check_same_dataset msg (a : D.t) (b : D.t) =
  Alcotest.(check int) (msg ^ ": size") (D.size a) (D.size b);
  Alcotest.(check bool) (msg ^ ": log features bitwise equal") true
    (a.features_log = b.features_log);
  Alcotest.(check bool) (msg ^ ": raw features bitwise equal") true
    (a.features_raw = b.features_raw);
  Alcotest.(check bool) (msg ^ ": tflops bitwise equal") true
    (a.tflops = b.tflops)

(* Two runs at one seed and domain count produce the same dataset bit
   for bit, GEMM and CONV, on one domain and on two: each domain draws
   from its own split generator and chunks merge in chunk order. *)
let test_generation_deterministic () =
  List.iter
    (fun (name, generate) ->
      List.iter
        (fun domains ->
          let run () =
            generate ~domains (Util.Rng.create 7001) Gpu.Device.gtx980ti ~n:120
          in
          check_same_dataset
            (Printf.sprintf "%s, %d domain(s), run twice" name domains)
            (run ()) (run ()))
        [ 1; 2 ])
    [ ("gemm", fun ~domains rng device ~n -> D.generate_gemm ~domains rng device ~n);
      ("conv", fun ~domains rng device ~n -> D.generate_conv ~domains rng device ~n) ]

(* An input space with no measurable configuration must raise a
   descriptive error instead of spinning forever. *)
let test_no_progress_fails_fast () =
  let crippled =
    { Gpu.Device.gtx980ti with
      name = "crippled";
      shared_per_block_max = 1;
      max_threads_per_block = 1 }
  in
  match
    D.generate_gemm (Util.Rng.create 7007) crippled ~n:10
  with
  | exception Failure msg ->
    Alcotest.(check bool) "message names the cause" true
      (let lower = String.lowercase_ascii msg in
       let has needle =
         let nh = String.length lower and nn = String.length needle in
         let rec go i =
           i + nn <= nh && (String.sub lower i nn = needle || go (i + 1))
         in
         go 0
       in
       has "no measurable configuration")
  | _ -> Alcotest.fail "generation succeeded on an impossible device"

(* Transient benchmark failures are skipped, not fatal: the run still
   delivers its n samples. *)
let test_bench_failures_survived () =
  with_faults "bench_fail:0.2" (fun () ->
      let d = D.generate_gemm (Util.Rng.create 7008) Gpu.Device.gtx980ti ~n:80 in
      Alcotest.(check int) "all samples delivered" 80 (D.size d))

(* A crash while re-saving a profile leaves the previous profile intact
   and loadable, with bitwise-identical predictions. *)
let test_profile_crash_save_keeps_previous () =
  let rng = Util.Rng.create 7009 in
  let data = D.generate_gemm rng Gpu.Device.gtx980ti ~n:200 in
  let profile = Tuner.Profile.train ~arch:[| 16 |] ~epochs:4 rng data in
  let path = Filename.temp_file "isaac_profile" ".profile" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Tuner.Profile.save profile path;
      with_faults "io_crash:1" (fun () ->
          match Tuner.Profile.save profile path with
          | exception F.Injected _ -> ()
          | () -> Alcotest.fail "io_crash:1 did not fire");
      let reloaded =
        match Tuner.Profile.load path with
        | Ok p -> p
        | Error msg -> Alcotest.fail msg
      in
      let features = Array.init Tuner.Features.dim (fun i -> float_of_int (i + 2)) in
      Alcotest.(check (float 0.0)) "bitwise-equal prediction"
        (Tuner.Profile.predict_tflops profile features)
        (Tuner.Profile.predict_tflops reloaded features))

let () =
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "resilience"
    [ ("resilience",
       [ slow "no legal config fails fast" test_no_progress_fails_fast;
         slow "benchmark failures skipped" test_bench_failures_survived;
         slow "profile crash-save" test_profile_crash_save_keeps_previous;
         slow "generation deterministic" test_generation_deterministic ]) ]
