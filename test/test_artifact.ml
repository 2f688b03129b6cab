(* Crash-safety of the artifact store: atomic replacement, checksummed
   headers, torn/corrupt/foreign file detection, and the deterministic
   fault injector that drives the recovery tests. *)

module A = Util.Artifact
module F = Util.Faultsim

let with_temp f =
  let path = Filename.temp_file "isaac_artifact" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* Every test that arms faults must disarm them, or the shared process
   state leaks into later suites. *)
let with_faults spec f =
  F.configure spec;
  Fun.protect ~finally:(fun () -> F.configure "") f

let raw_contents path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let check_read ~kind ~max_version path =
  match A.read ~path ~kind ~max_version with
  | Ok (v, payload) -> (v, payload)
  | Error e -> Alcotest.fail (A.error_to_string ~path e)

let test_roundtrip () =
  with_temp (fun path ->
      let payload = "line one\nline two\n\x00binary\xffbytes\n" in
      A.write ~path ~kind:"test-kind" ~version:3 payload;
      let v, got = check_read ~kind:"test-kind" ~max_version:5 path in
      Alcotest.(check int) "version" 3 v;
      Alcotest.(check string) "payload" payload got)

let test_empty_payload () =
  with_temp (fun path ->
      A.write ~path ~kind:"test-kind" ~version:1 "";
      let v, got = check_read ~kind:"test-kind" ~max_version:1 path in
      Alcotest.(check int) "version" 1 v;
      Alcotest.(check string) "payload" "" got)

let test_atomic_replace () =
  with_temp (fun path ->
      A.write ~path ~kind:"test-kind" ~version:1 "old generation";
      A.write ~path ~kind:"test-kind" ~version:2 "new generation";
      let v, got = check_read ~kind:"test-kind" ~max_version:2 path in
      Alcotest.(check int) "latest version" 2 v;
      Alcotest.(check string) "latest payload" "new generation" got)

(* The heart of the store: a write that dies mid-flight must leave the
   previous artifact fully readable. *)
let test_crash_leaves_previous_intact () =
  with_temp (fun path ->
      A.write ~path ~kind:"test-kind" ~version:1 "the safe copy";
      with_faults "io_crash:1" (fun () ->
          (match A.write ~path ~kind:"test-kind" ~version:1 "doomed" with
           | exception F.Injected _ -> ()
           | () -> Alcotest.fail "io_crash:1 did not fire"));
      let _, got = check_read ~kind:"test-kind" ~max_version:1 path in
      Alcotest.(check string) "previous version intact" "the safe copy" got;
      (* Cleanup of orphan temp files is the caller's business; they must
         never shadow the real artifact. *)
      Array.iter
        (fun f ->
          if String.starts_with ~prefix:(Filename.basename path ^ ".tmp") f then
            Sys.remove (Filename.concat (Filename.dirname path) f))
        (Sys.readdir (Filename.dirname path)))

let test_crash_on_first_write_leaves_nothing () =
  with_temp (fun path ->
      Sys.remove path;
      with_faults "io_crash:1" (fun () ->
          (match A.write ~path ~kind:"test-kind" ~version:1 "doomed" with
           | exception F.Injected _ -> ()
           | () -> Alcotest.fail "io_crash:1 did not fire"));
      Alcotest.(check bool) "destination never created" false
        (Sys.file_exists path);
      Array.iter
        (fun f ->
          if String.starts_with ~prefix:(Filename.basename path ^ ".tmp") f then
            Sys.remove (Filename.concat (Filename.dirname path) f))
        (Sys.readdir (Filename.dirname path)))

let test_corruption_detected () =
  with_temp (fun path ->
      with_faults "io_corrupt:1" (fun () ->
          A.write ~path ~kind:"test-kind" ~version:1 "payload under attack");
      match A.read ~path ~kind:"test-kind" ~max_version:1 with
      | Error (A.Checksum_mismatch _) -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ A.error_to_string ~path e)
      | Ok _ -> Alcotest.fail "corrupted artifact loaded")

let test_flipped_byte_detected () =
  with_temp (fun path ->
      A.write ~path ~kind:"test-kind" ~version:1 "some honest payload";
      let raw = raw_contents path in
      let b = Bytes.of_string raw in
      let i = Bytes.length b - 3 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      write_raw path (Bytes.to_string b);
      match A.read ~path ~kind:"test-kind" ~max_version:1 with
      | Error (A.Checksum_mismatch _) -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ A.error_to_string ~path e)
      | Ok _ -> Alcotest.fail "bit flip survived the checksum")

let test_truncation_detected () =
  with_temp (fun path ->
      A.write ~path ~kind:"test-kind" ~version:1 "a payload that will be cut";
      let raw = raw_contents path in
      write_raw path (String.sub raw 0 (String.length raw - 7));
      match A.read ~path ~kind:"test-kind" ~max_version:1 with
      | Error (A.Truncated _) -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ A.error_to_string ~path e)
      | Ok _ -> Alcotest.fail "torn artifact loaded")

let test_kind_mismatch () =
  with_temp (fun path ->
      A.write ~path ~kind:"isaac-profile" ~version:1 "x";
      match A.read ~path ~kind:"isaac-bench-report" ~max_version:1 with
      | Error (A.Kind_mismatch { expected = "isaac-bench-report"; found = "isaac-profile" }) -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ A.error_to_string ~path e)
      | Ok _ -> Alcotest.fail "kind mismatch accepted")

let test_version_newer () =
  with_temp (fun path ->
      A.write ~path ~kind:"test-kind" ~version:9 "from the future";
      match A.read ~path ~kind:"test-kind" ~max_version:2 with
      | Error (A.Version_newer { supported = 2; found = 9 }) -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ A.error_to_string ~path e)
      | Ok _ -> Alcotest.fail "future schema accepted")

let test_garbage_is_bad_header () =
  with_temp (fun path ->
      write_raw path "just some file\nwith lines\n";
      match A.read ~path ~kind:"test-kind" ~max_version:1 with
      | Error (A.Bad_header _) -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ A.error_to_string ~path e)
      | Ok _ -> Alcotest.fail "headerless file accepted")

let test_missing_file_is_io () =
  with_temp (fun path ->
      Sys.remove path;
      match A.read ~path ~kind:"test-kind" ~max_version:1 with
      | Error (A.Io _) -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ A.error_to_string ~path e)
      | Ok _ -> Alcotest.fail "missing file read")

let test_checksum_known_values () =
  (* FNV-1a 64 reference vectors. *)
  Alcotest.(check string) "empty" "cbf29ce484222325" (A.checksum "");
  Alcotest.(check string) "a" "af63dc4c8601ec8c" (A.checksum "a");
  Alcotest.(check string) "foobar" "85944171f73967e8" (A.checksum "foobar")

(* Faultsim semantics: rate r fires deterministically every round(1/r)
   calls, counters are per-kind, and "" disarms everything. A site that
   must stay quiet is drawn 100 times. *)
let never_fires kind = List.for_all not (List.init 100 (fun _ -> F.fire kind))

let test_faultsim_period () =
  with_faults "slow:0.5,always:1,off:0" (fun () ->
      let fired = List.init 6 (fun _ -> F.fire "slow") in
      Alcotest.(check (list bool)) "rate 0.5 fires every 2nd call"
        [ false; true; false; true; false; true ] fired;
      Alcotest.(check bool) "rate 1 fires on every call" true
        (List.for_all Fun.id (List.init 100 (fun _ -> F.fire "always")));
      Alcotest.(check bool) "rate 0 never fires" true (never_fires "off");
      Alcotest.(check bool) "unarmed kind never fires" true (never_fires "nope"));
  List.iter
    (fun kind ->
      Alcotest.(check bool) ("no residual firing: " ^ kind) true (never_fires kind))
    [ "slow"; "always"; "off"; "nope" ]

let test_faultsim_rejects_malformed () =
  match F.configure "io_crash" with
  | exception Invalid_argument _ -> F.configure ""
  | () ->
    F.configure "";
    Alcotest.fail "malformed spec accepted"

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "artifact"
    [ ("roundtrip",
       [ quick "write/read" test_roundtrip;
         quick "empty payload" test_empty_payload;
         quick "atomic replace" test_atomic_replace ]);
      ("crash safety",
       [ quick "crash keeps previous" test_crash_leaves_previous_intact;
         quick "crash on first write" test_crash_on_first_write_leaves_nothing ]);
      ("corruption",
       [ quick "injected corruption" test_corruption_detected;
         quick "flipped byte" test_flipped_byte_detected;
         quick "truncation" test_truncation_detected;
         quick "kind mismatch" test_kind_mismatch;
         quick "newer version" test_version_newer;
         quick "garbage file" test_garbage_is_bad_header;
         quick "missing file" test_missing_file_is_io;
         quick "fnv64 vectors" test_checksum_known_values ]);
      ("faultsim",
       [ quick "deterministic periods" test_faultsim_period;
         quick "malformed spec" test_faultsim_rejects_malformed ]) ]
