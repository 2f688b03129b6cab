(* Protocol-level tests of the plan-serving daemon core (Serve.handle):
   cold/warm plan requests, malformed-request handling, the stats
   endpoint and the telemetry it embeds while a trace is open, and
   profile hot-reload through the artifact fingerprint
   watcher. These drive the exact code path behind both isaac_serve
   transports, minus the fd plumbing. *)

let () = Unix.putenv "ISAAC_SEARCH_CAP" "4000"

module J = Obs.Json

let profile =
  lazy
    (let rng = Util.Rng.create 604 in
     let engine =
       Isaac.tune ~samples:1200 ~epochs:10 ~arch:[| 32; 32 |] rng
         Gpu.Device.gtx980ti ~op:`Gemm ()
     in
     Isaac.profile engine)

(* A CONV profile for the same device, so CONV requests reach a loaded
   engine: a refused CONV input is then refused for its fields, not for
   want of a profile. *)
let conv_profile =
  lazy
    (let rng = Util.Rng.create 605 in
     let engine =
       Isaac.tune ~samples:1200 ~epochs:12 ~arch:[| 32; 32 |] rng
         Gpu.Device.gtx980ti ~op:`Conv ()
     in
     Isaac.profile engine)

(* A second profile for the same device/op with different weights, so a
   hot reload has a genuinely different file to pick up. *)
let profile2 =
  lazy
    (let rng = Util.Rng.create 1303 in
     let engine =
       Isaac.tune ~samples:1200 ~epochs:10 ~arch:[| 24; 24 |] rng
         Gpu.Device.gtx980ti ~op:`Gemm ()
     in
     Isaac.profile engine)

(* Runs [f] on a daemon that serves the GEMM profile, whose file path
   [f] also receives, and, unless [conv] is false, the CONV profile. *)
let with_server ?reload_interval ?(conv = true) f =
  let path = Filename.temp_file "serve_test" ".profile"
  and conv_path = Filename.temp_file "serve_test_conv" ".profile" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; conv_path ])
    (fun () ->
      Tuner.Profile.save (Lazy.force profile) path;
      let conv_profile =
        if conv then begin
          Tuner.Profile.save (Lazy.force conv_profile) conv_path;
          Some conv_path
        end
        else None
      in
      match Serve.create ?reload_interval ~gemm_profile:path ?conv_profile () with
      | Error msg -> Alcotest.fail msg
      | Ok srv -> f srv path)

let field response name =
  match J.member name (J.of_string response) with
  | Some v -> v
  | None -> Alcotest.failf "response %s lacks field %S" response name

let expect_ok response =
  Alcotest.(check (option bool))
    ("ok in " ^ response) (Some true)
    (J.to_bool (field response "ok"))

let handle_line srv line =
  let response, verdict = Serve.handle srv line in
  Alcotest.(check bool) "connection stays open" true (verdict = `Continue);
  response

let stats_cache_entries srv =
  let r = handle_line srv {|{"op":"stats"}|} in
  expect_ok r;
  match J.member "entries" (field r "cache") with
  | Some (J.Int n) -> n
  | _ -> Alcotest.fail "stats lacks cache.entries"

let gemm_req = {|{"op":"gemm","id":1,"m":256,"n":64,"k":256}|}
let conv_req = {|{"op":"conv","id":2,"n":1,"c":8,"k":8,"p":4,"q":4,"r":3,"s":3}|}

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let error_of response =
  Alcotest.(check (option bool)) ("not ok: " ^ response) (Some false)
    (J.to_bool (field response "ok"));
  Option.value ~default:"" (J.to_str (field response "error"))

let test_ping_and_ids () =
  with_server (fun srv _ ->
      let r = handle_line srv {|{"op":"ping","id":42}|} in
      expect_ok r;
      Alcotest.(check (option int)) "id echoed" (Some 42)
        (J.to_int (field r "id")))

(* A plan request misses, then hits and re-serializes the identical
   plan: GEMM and CONV alike, each from its own profile's engine. *)
let test_cold_then_warm () =
  with_server (fun srv _ ->
      List.iter
        (fun (op, req) ->
          let cold = handle_line srv req in
          expect_ok cold;
          Alcotest.(check (option string)) (op ^ ": first query misses")
            (Some "miss")
            (J.to_str (field cold "cache"));
          let warm = handle_line srv req in
          expect_ok warm;
          Alcotest.(check (option string)) (op ^ ": second query hits")
            (Some "hit")
            (J.to_str (field warm "cache"));
          Alcotest.(check string) (op ^ ": bit-identical plan on the wire")
            (J.to_string (field cold "plan"))
            (J.to_string (field warm "plan"));
          let plan = field cold "plan" in
          List.iter
            (fun k ->
              match J.member k plan with
              | Some (J.Int v) ->
                Alcotest.(check bool) (op ^ ": " ^ k ^ " positive") true (v > 0)
              | _ -> Alcotest.failf "%s plan lacks integer field %S" op k)
            [ "ms"; "ns"; "ks"; "ml"; "nl"; "u"; "vec"; "db" ])
        [ ("gemm", gemm_req); ("conv", conv_req) ];
      Alcotest.(check int) "one resident plan per op" 2 (stats_cache_entries srv))

let test_errors () =
  with_server (fun srv _ ->
      let check_error line = ignore (error_of (handle_line srv line)) in
      check_error "this is not json";
      check_error {|{"no_op_field":1}|};
      check_error {|{"op":"teleport"}|};
      check_error {|{"op":"gemm","m":256,"n":64}|};
      check_error {|{"op":"gemm","m":"big","n":64,"k":256}|};
      check_error {|{"op":"gemm","m":256,"n":64,"k":256,"dtype":"f128"}|});
  with_server ~conv:false (fun srv _ ->
      let msg = error_of (handle_line srv conv_req) in
      if not (contains msg "no CONV profile loaded") then
        Alcotest.failf "error %S does not say no CONV profile is loaded" msg)

(* Error replies quote request strings only up to a bound: a 100 kB
   [op] or [dtype] still gets a short reply that names its error. So
   does a request nested 100,000 deep (the reader stops at 64 levels),
   and the daemon serves the request after it. *)
let test_long_strings_bounded () =
  with_server (fun srv _ ->
      let long = String.make 100_000 'x' in
      let deep = String.make 100_000 '[' ^ String.make 100_000 ']' in
      List.iter
        (fun (line, what) ->
          let response = handle_line srv line in
          let msg = error_of response in
          if not (contains msg what) then
            Alcotest.failf "error %S does not name %S" msg what;
          if String.length response >= 1024 then
            Alcotest.failf "%d-byte reply to a long %s" (String.length response)
              what)
        [ (Printf.sprintf {|{"op":"%s"}|} long, "unknown op");
          ( Printf.sprintf {|{"op":"gemm","m":256,"n":64,"k":256,"dtype":"%s"}|}
              long,
            "unknown dtype" );
          (deep, "nesting deeper than 64") ];
      expect_ok (handle_line srv gemm_req))

(* Both transports read through [Serve.serve_lines], which keeps at
   most 1 MiB of a line: a 2 MiB line is drained unread and gets a short
   error reply with a null [id], and the ping after it is answered. *)
let test_long_line_drained () =
  with_server (fun srv _ ->
      let input = Filename.temp_file "serve_test" ".in"
      and output = Filename.temp_file "serve_test" ".out" in
      Fun.protect
        ~finally:(fun () -> List.iter Sys.remove [ input; output ])
        (fun () ->
          Out_channel.with_open_bin input (fun oc ->
              output_string oc (String.make (2 * 1024 * 1024) 'x');
              output_string oc "\n{\"op\":\"ping\",\"id\":8}\n");
          let verdict =
            In_channel.with_open_bin input (fun ic ->
                Out_channel.with_open_bin output (Serve.serve_lines srv ic))
          in
          Alcotest.(check bool) "read to the end" true (verdict = `Eof);
          let replies = In_channel.with_open_bin output In_channel.input_all in
          match String.split_on_char '\n' replies with
          | [ drained; ping; "" ] ->
            if not (contains (error_of drained) "longer than") then
              Alcotest.failf "reply %S does not say the line is too long" drained;
            Alcotest.(check string) "id is null" "null"
              (J.to_string (field drained "id"));
            if String.length drained >= 1024 then
              Alcotest.failf "%d-byte reply to a 2 MiB line" (String.length drained);
            expect_ok ping;
            Alcotest.(check (option int)) "ping answered" (Some 8)
              (J.to_int (field ping "id"))
          | lines ->
            Alcotest.failf "expected 2 reply lines, got %d" (List.length lines - 1)))

(* Every reply echoes the request [id], so only an integer in OCaml's
   range, null or a string of at most 256 bytes is accepted. Any other
   [id] gets a short error reply that names the field and carries a
   null [id]: numbers that the reader keeps as floats among them, since
   they would not print back as sent (1e+20, 4.6116860184273879e+18,
   "inf", 1.5, -0.0, 7.0). Accepted ids echo verbatim, error replies
   included. *)
let test_id_bounded () =
  with_server (fun srv _ ->
      let long = String.make 100_000 'x' in
      List.iter
        (fun line ->
          let response = handle_line srv line in
          let msg = error_of response in
          if not (contains msg {|"id"|}) then
            Alcotest.failf "error %S does not name \"id\"" msg;
          Alcotest.(check string) "id replaced by null" "null"
            (J.to_string (field response "id"));
          if String.length response >= 1024 then
            Alcotest.failf "%d-byte reply to an oversized id"
              (String.length response))
        [ Printf.sprintf {|{"op":"ping","id":"%s"}|} long;
          Printf.sprintf {|{"op":"teleport","id":"%s"}|} long;
          Printf.sprintf {|{"op":"ping","id":"%s"}|} (String.make 257 'y');
          {|{"op":"ping","id":{"nested":1}}|};
          {|{"op":"ping","id":[1,2]}|};
          {|{"op":"ping","id":true}|};
          {|{"op":"ping","id":99999999999999999999}|};
          {|{"op":"ping","id":4611686018427387904}|};
          {|{"op":"ping","id":1e999}|};
          {|{"op":"ping","id":1.5}|};
          {|{"op":"ping","id":-0}|};
          {|{"op":"ping","id":007}|} ];
      let at_bound = Printf.sprintf "%S" (String.make 256 'z') in
      List.iter
        (fun (op, id) ->
          let response =
            handle_line srv (Printf.sprintf {|{"op":"%s","id":%s}|} op id)
          in
          Alcotest.(check string) (op ^ " echoes id " ^ id) id
            (J.to_string (field response "id")))
        [ ("ping", "42"); ("ping", "-7"); ("ping", {|"req-1"|});
          ("ping", string_of_int max_int); ("ping", string_of_int min_int);
          ("ping", "null"); ("ping", at_bound); ("teleport", "42");
          ("teleport", {|"req-2"|}) ])

(* A bad ISAAC_SEARCH_CAP fails the plan request with an error reply
   that names the knob; with the knob restored the daemon plans again. *)
let test_bad_search_cap () =
  with_server (fun srv _ ->
      Fun.protect
        ~finally:(fun () -> Unix.putenv "ISAAC_SEARCH_CAP" "4000")
        (fun () ->
          Unix.putenv "ISAAC_SEARCH_CAP" "0";
          let msg = error_of (handle_line srv gemm_req) in
          let knob = "ISAAC_SEARCH_CAP = 0" in
          if not (contains msg knob) then
            Alcotest.failf "error %S does not name %S" msg knob);
      expect_ok (handle_line srv gemm_req))

(* Dimensions below 1, a stride below 1, a negative pad, any of them
   above 2^31 - 1, and a CONV whose implicit-GEMM extents pass that
   bound (even where their product overflows an OCaml int) are refused
   at the wire with an error naming the field, so no plan for an empty
   or overflowing problem is served or cached. *)
let test_out_of_range_dims () =
  with_server (fun srv _ ->
      List.iter
        (fun (line, name) ->
          let msg = error_of (handle_line srv line) in
          if not (contains msg (Printf.sprintf "%S" name)) then
            Alcotest.failf "error %S does not name %S" msg name)
        [ ({|{"op":"gemm","m":0,"n":64,"k":256}|}, "m");
          ({|{"op":"gemm","m":-5,"n":64,"k":256}|}, "m");
          ({|{"op":"gemm","m":2147483648,"n":64,"k":256}|}, "m");
          ({|{"op":"gemm","m":64,"n":4611686018427387903,"k":256}|}, "n");
          ({|{"op":"gemm","m":64,"n":64,"k":2147483648}|}, "k");
          ( {|{"op":"gemm","m":4611686018427387903,"n":4611686018427387903,"k":4611686018427387903}|},
            "m" );
          ( {|{"op":"conv","n":2147483647,"c":8,"k":8,"p":2147483647,"q":2147483647,"r":3,"s":3}|},
            "q" );
          ( {|{"op":"conv","n":1,"c":65536,"k":8,"p":4,"q":4,"r":65536,"s":1}|},
            "r" );
          ( {|{"op":"conv","n":1,"c":8,"k":2147483648,"p":4,"q":4,"r":3,"s":3}|},
            "k" );
          ( {|{"op":"conv","n":1,"c":8,"k":8,"p":4,"q":4,"r":3,"s":3,"stride":2147483648}|},
            "stride" );
          ( {|{"op":"conv","n":1,"c":8,"k":8,"p":4,"q":4,"r":3,"s":3,"stride":0}|},
            "stride" );
          ({|{"op":"conv","n":1,"c":8,"k":8,"p":4,"q":4,"r":3,"s":3,"pad":-1}|}, "pad");
          (* Pads that leave no input: H = (P-1)*stride + R - 2*pad < 1. *)
          ({|{"op":"conv","n":1,"c":8,"k":8,"p":4,"q":4,"r":3,"s":3,"pad":1000}|}, "pad");
          ( {|{"op":"conv","n":1,"c":8,"k":8,"p":4,"q":4,"r":3,"s":3,"pad":2147483647}|},
            "pad" )
        ];
      Alcotest.(check int) "nothing cached" 0 (stats_cache_entries srv))

(* The largest dimensions served still plan: m = n = k = 2^31 - 1 gets
   a plan whose measured speed is positive and within the device's
   peak. *)
let test_largest_dims () =
  with_server (fun srv _ ->
      let r =
        handle_line srv {|{"op":"gemm","m":2147483647,"n":2147483647,"k":2147483647}|}
      in
      expect_ok r;
      let peak = Gpu.Device.peak_tflops (Serve.device srv) Ptx.Types.F32 ~vectorized:false in
      match Option.bind (J.member "tflops" (field r "plan")) J.to_float with
      | Some t when t > 0.0 && t <= peak -> ()
      | t ->
        Alcotest.failf "tflops %s outside (0, %g]"
          (Option.fold ~none:"missing" ~some:string_of_float t) peak)

let test_stats () =
  with_server (fun srv _ ->
      Alcotest.(check int) "cold daemon: empty cache" 0 (stats_cache_entries srv);
      ignore (handle_line srv gemm_req);
      ignore (handle_line srv gemm_req);
      let r = handle_line srv {|{"op":"stats"}|} in
      let cache = field r "cache" in
      let get k =
        match J.member k cache with
        | Some (J.Int n) -> n
        | _ -> Alcotest.failf "stats lacks cache.%s" k
      in
      Alcotest.(check int) "one resident plan" 1 (get "entries");
      Alcotest.(check int) "one miss" 1 (get "misses");
      Alcotest.(check int) "one hit" 1 (get "hits");
      (* plan requests counted; ping/stats probes are not *)
      match J.member "requests" (J.of_string r) with
      | Some (J.Int n) -> Alcotest.(check int) "two plan requests" 2 n
      | _ -> Alcotest.fail "stats lacks requests")

(* While a trace is open the [stats] reply embeds the registry
   snapshot, and the trace's closing [telemetry] event records the same
   counts; with no trace open the reply's [telemetry] is [null]. *)
let test_stats_telemetry () =
  with_server (fun srv _ ->
      let telemetry () = field (handle_line srv {|{"op":"stats"}|}) "telemetry" in
      let requests snap =
        Option.bind (J.member "counters" snap) (fun c ->
            Option.bind (J.member "serve.requests" c) J.to_int)
      in
      Alcotest.(check bool) "no trace: null" true (telemetry () = J.Null);
      let path = Filename.temp_file "serve_trace" ".jsonl" in
      let n = 3 in
      let events =
        Obs.Telemetry.reset ();
        Obs.Trace.start ~path ();
        Fun.protect
          ~finally:(fun () ->
            Obs.Trace.stop ();
            Obs.Telemetry.reset ())
          (fun () ->
            for _ = 1 to n do
              ignore (handle_line srv gemm_req)
            done;
            Alcotest.(check (option int)) "stats reply counts the plan requests"
              (Some n) (requests (telemetry ()));
            Obs.Trace.stop ();
            let events = Obs.Trace.read_file path in
            Sys.remove path;
            events)
      in
      (match
         List.filter (fun e -> J.member "ev" e = Some (J.String "telemetry")) events
       with
      | [ e ] ->
        Alcotest.(check (option int)) "closing event counts them too" (Some n)
          (requests (Option.get (J.member "telemetry" e)))
      | l -> Alcotest.failf "expected 1 telemetry event, got %d" (List.length l));
      Alcotest.(check bool) "trace closed: null again" true (telemetry () = J.Null))

let test_shutdown_verdict () =
  with_server (fun srv _ ->
      let response, verdict = Serve.handle srv {|{"op":"shutdown","id":9}|} in
      expect_ok response;
      Alcotest.(check bool) "transport told to stop" true (verdict = `Stop))

(* Rewriting the profile file must swap in a fresh engine (cold cache)
   on the next forced reload; rewriting identical bytes must not. *)
let test_hot_reload () =
  with_server ~reload_interval:3600.0 (fun srv path ->
      ignore (handle_line srv gemm_req);
      Alcotest.(check int) "plan resident" 1 (stats_cache_entries srv);
      (* identical bytes -> fingerprint unchanged -> no reload *)
      Tuner.Profile.save (Lazy.force profile) path;
      Alcotest.(check int) "same profile: no reload" 0
        (Serve.maybe_reload ~force:true srv);
      Alcotest.(check int) "cache untouched" 1 (stats_cache_entries srv);
      (* different profile -> reload, engine swapped, cache cold *)
      Tuner.Profile.save (Lazy.force profile2) path;
      let r = handle_line srv {|{"op":"reload"}|} in
      expect_ok r;
      Alcotest.(check (option int)) "one slot reloaded" (Some 1)
        (J.to_int (field r "reloaded"));
      Alcotest.(check int) "new engine starts cold" 0 (stats_cache_entries srv);
      (* and it still serves plans *)
      let cold = handle_line srv gemm_req in
      Alcotest.(check (option string)) "re-planned after reload" (Some "miss")
        (J.to_str (field cold "cache")))

(* The rate limiter: without force, a second check inside the interval
   is a no-op even if the file changed. *)
let test_reload_rate_limit () =
  with_server ~reload_interval:3600.0 (fun srv path ->
      Tuner.Profile.save (Lazy.force profile2) path;
      Alcotest.(check int) "inside the interval: not even checked" 0
        (Serve.maybe_reload srv);
      Alcotest.(check int) "forced: picked up" 1 (Serve.maybe_reload ~force:true srv))

let slow name f = Alcotest.test_case name `Slow f

let () =
  Alcotest.run "serve"
    [ ("protocol",
       [ slow "ping + id echo" test_ping_and_ids;
         slow "cold miss, warm hit, identical plan" test_cold_then_warm;
         slow "malformed requests" test_errors;
         slow "bounded error replies" test_long_strings_bounded;
         slow "over-long line drained" test_long_line_drained;
         slow "request id bounded" test_id_bounded;
         slow "bad search cap names the knob" test_bad_search_cap;
         slow "out-of-range dimensions name the field" test_out_of_range_dims;
         slow "largest dimensions still plan" test_largest_dims;
         slow "stats endpoint" test_stats;
         slow "stats telemetry follows the trace" test_stats_telemetry;
         slow "shutdown verdict" test_shutdown_verdict ]);
      ("hot reload",
       [ slow "rewritten profile picked up without restart" test_hot_reload;
         slow "rate limited unless forced" test_reload_rate_limit ]) ]
