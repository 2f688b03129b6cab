(* Observability layer: JSON round-trips, span nesting and JSONL
   round-trip through a real sink, the telemetry registry recorded into
   the trace, interpreter counter correctness on a hand-written kernel
   with a known instruction mix, zero-cost behaviour when the trace is
   closed, and the counter snapshot embedded in interpreter trap
   messages. *)

open Ptx.Types
module B = Ptx.Builder
module I = Ptx.Instr
module J = Obs.Json

let quick name f = Alcotest.test_case name `Quick f

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let tmp_trace () = Filename.temp_file "isaac_obs" ".jsonl"

let str_field k ev = Option.bind (J.member k ev) J.to_str
let num_field k ev = Option.bind (J.member k ev) J.to_float

let events_of ev list = List.filter (fun e -> str_field "ev" e = Some ev) list

(* The registry snapshot of a trace's one closing [telemetry] event, and
   the value at a key path inside it. *)
let closing_snapshot events =
  match events_of "telemetry" events with
  | [ e ] -> Option.get (J.member "telemetry" e)
  | l -> Alcotest.failf "expected 1 telemetry event, got %d" (List.length l)

let at keys v = List.fold_left (fun v k -> Option.bind v (J.member k)) (Some v) keys

(* OUT[tid] = IN[tid] over one block of 64 threads (two warps). *)
let run_copy_kernel () =
  let b = B.create ~name:"warps" ~dtype:F64 in
  let inp = B.buf_param b "IN" in
  let out = B.buf_param b "OUT" in
  let tid = B.mov_i b (Ispecial Tid_x) in
  let f = B.fresh_f b in
  B.emit b (I.Ld_global (f, inp, Ireg tid));
  B.emit b (I.St_global (out, Ireg tid, Freg f));
  Ptx.Interp.run (B.finish b) ~grid:(1, 1, 1) ~block:(64, 1, 1)
    ~bufs:[ ("IN", Array.make 64 1.0); ("OUT", Array.make 64 0.0) ]
    ~iargs:[]


(* --- JSON --------------------------------------------------------------- *)

let test_json_roundtrip () =
  let samples =
    [ J.Null;
      J.Bool true;
      J.Int (-42);
      J.Int max_int;
      J.Float 3.25;
      J.Float 1e-300;
      J.String "he\"llo\n\t\\world";
      J.List [ J.Int 1; J.String "x"; J.Null ];
      J.Obj
        [ ("a", J.Int 1);
          ("nested", J.Obj [ ("b", J.List [ J.Float 0.5 ]) ]);
          ("s", J.String "\x01\x1f") ] ]
  in
  List.iter
    (fun v ->
      let s = J.to_string v in
      if String.contains s '\n' then
        Alcotest.failf "rendering contains a newline: %s" s;
      if J.of_string s <> v then Alcotest.failf "round-trip failed: %s" s)
    samples;
  (* Non-finite floats round-trip through their string encoding. *)
  (match J.of_string (J.to_string (J.Float Float.nan)) with
   | J.String "nan" as v ->
     (match J.to_float v with
      | Some f when Float.is_nan f -> ()
      | _ -> Alcotest.fail "nan did not coerce back to a float")
   | _ -> Alcotest.fail "nan encoding changed");
  Alcotest.(check bool) "parse error raised" true
    (try ignore (J.of_string "{\"a\":}"); false
     with J.Parse_error _ -> true);
  (* An integer reads as [Int] only when written as [string_of_int]
     prints it, so every [Int] prints back as it was written; any other
     integer text reads as a [Float]. *)
  List.iter
    (fun (s, want) ->
      let got = J.of_string s in
      if got <> want then Alcotest.failf "%s read as %s" s (J.to_string got))
    [ ("0", J.Int 0); ("-7", J.Int (-7)); (string_of_int min_int, J.Int min_int);
      ("007", J.Float 7.0); ("-0", J.Float (-0.0));
      ("4611686018427387904", J.Float 4611686018427387904.0) ];
  (match J.of_string "-0" with
   | J.Float f when Float.sign_bit f -> ()
   | v -> Alcotest.failf "-0 read as %s" (J.to_string v))

(* Arrays and objects nest at most 64 deep. The parser recurses once per
   level, so text nested deeper is a parse error, raised at the first
   bracket past the limit: 100,000 ['['] bytes cost 64 frames, not
   100,000. *)
let test_json_nesting_bounded () =
  let arrays d = String.make d '[' ^ "1" ^ String.make d ']' in
  let objects d =
    String.concat "" (List.init d (fun _ -> {|{"a":|})) ^ "[]" ^ String.make d '}'
  in
  List.iter
    (fun (what, text) ->
      Alcotest.(check string) (what ^ " parses") text (J.to_string (J.of_string text)))
    [ ("64 arrays", arrays 64); ("63 objects around an empty array", objects 63) ];
  List.iter
    (fun (what, text) ->
      match J.of_string text with
      | _ -> Alcotest.failf "%s parsed" what
      | exception J.Parse_error msg ->
        Alcotest.(check bool) (what ^ ": " ^ msg) true
          (contains ~needle:"nesting deeper than 64" msg))
    [ ("65 arrays", arrays 65);
      ("64 objects around an empty array", objects 64);
      ("100,000 arrays", arrays 100_000);
      ("100,000 open brackets", String.make 100_000 '[') ]

(* --- spans + JSONL round-trip ------------------------------------------- *)

let test_span_roundtrip () =
  let path = tmp_trace () in
  Obs.Telemetry.reset ();
  Obs.Trace.start ~path ();
  Alcotest.(check bool) "enabled while open" true (Obs.Trace.enabled ());
  Obs.Span.with_ "a" (fun () ->
      Alcotest.(check string) "inner path" "a" (Obs.Span.current_path ());
      Obs.Span.with_ "b"
        ~meta:(fun () -> [ ("k", J.Int 7) ])
        (fun () ->
          Alcotest.(check string) "nested path" "a/b" (Obs.Span.current_path ());
          ignore (Sys.opaque_identity (Array.init 100 (fun i -> i)))));
  Alcotest.(check string) "path restored" "" (Obs.Span.current_path ());
  Obs.Trace.stop ();
  Alcotest.(check bool) "disabled after stop" false (Obs.Trace.enabled ());
  let events = Obs.Trace.read_file path in
  Sys.remove path;
  (match events with
   | first :: _ when str_field "ev" first = Some "trace_start" -> ()
   | _ -> Alcotest.fail "first event is not trace_start");
  (match List.rev events with
   | last :: _ when str_field "ev" last = Some "trace_end" -> ()
   | _ -> Alcotest.fail "last event is not trace_end");
  let spans = events_of "span" events in
  let find p =
    match List.find_opt (fun e -> str_field "path" e = Some p) spans with
    | Some e -> e
    | None -> Alcotest.failf "no span with path %s" p
  in
  let outer = find "a" and inner = find "a/b" in
  Alcotest.(check (option string)) "outer name" (Some "a") (str_field "name" outer);
  Alcotest.(check (option string)) "inner name" (Some "b") (str_field "name" inner);
  let dur e = Option.get (num_field "dur" e) in
  let start e = Option.get (num_field "start" e) in
  if dur outer < 0.0 || dur inner < 0.0 then Alcotest.fail "negative duration";
  if start inner < start outer then Alcotest.fail "child started before parent";
  if dur inner > dur outer +. 1e-9 then Alcotest.fail "child outlived parent";
  (match Option.bind (J.member "meta" inner) (J.member "k") with
   | Some (J.Int 7) -> ()
   | _ -> Alcotest.fail "meta not recorded")

let test_span_error_flag () =
  let path = tmp_trace () in
  Obs.Telemetry.reset ();
  Obs.Trace.start ~path ();
  (try Obs.Span.with_ "boom" (fun () -> failwith "x") with Failure _ -> ());
  Obs.Trace.stop ();
  let events = Obs.Trace.read_file path in
  Sys.remove path;
  match events_of "span" events with
  | [ sp ] ->
    Alcotest.(check bool) "error flag" true (J.member "error" sp = Some (J.Bool true))
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

(* --- the registry snapshot in the trace ---------------------------------- *)

(* The trace records the registry as one [telemetry] event just before
   [trace_end]: counters (the interpreter's too), histograms, a span's
   histogram and model drift, beside the [point] series. *)
let test_metrics_flush () =
  let path = tmp_trace () in
  Obs.Telemetry.reset ();
  Obs.Trace.start ~path ();
  Obs.Telemetry.incr "c.hits";
  Obs.Telemetry.add "c.hits" 4;
  Obs.Telemetry.add "c.other" 2;
  Alcotest.(check (option int)) "live value" (Some 5)
    (Obs.Telemetry.counter_value "c.hits");
  for i = 1 to 100 do
    Obs.Telemetry.observe "h.lat" (float_of_int i)
  done;
  Obs.Span.with_ "both.span" (fun () -> ignore (run_copy_kernel ()));
  Obs.Telemetry.Model.record ~op:"gemm" ~bucket:"2^30" ~predicted:1.5 ~measured:1.0;
  Obs.Trace.point "s.loss" ~x:0.0 ~y:1.5;
  Obs.Trace.stop ();
  let events = Obs.Trace.read_file path in
  Sys.remove path;
  (match List.rev events with
   | _ :: closing :: _ when str_field "ev" closing = Some "telemetry" -> ()
   | _ -> Alcotest.fail "the telemetry event does not precede trace_end");
  let snap = closing_snapshot events in
  let int_at keys = Option.bind (at keys snap) J.to_int in
  let num_at keys = Option.bind (at keys snap) J.to_float in
  Alcotest.(check (option int)) "c.hits" (Some 5) (int_at [ "counters"; "c.hits" ]);
  Alcotest.(check (option int)) "c.other" (Some 2) (int_at [ "counters"; "c.other" ]);
  List.iter
    (fun name ->
      match int_at [ "counters"; name ] with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.failf "interpreter counter %s not recorded" name)
    [ "interp.runs"; "interp.dyn.total" ];
  let h field = num_at [ "hists"; "h.lat"; field ] in
  Alcotest.(check (option int)) "count" (Some 100)
    (int_at [ "hists"; "h.lat"; "count" ]);
  Alcotest.(check (option (float 1e-9))) "min" (Some 1.0) (h "min");
  Alcotest.(check (option (float 1e-9))) "max" (Some 100.0) (h "max");
  Alcotest.(check (option (float 1e-9))) "mean" (Some 50.5) (h "mean");
  let p50 = Option.get (h "p50") in
  if p50 < 40.0 || p50 > 60.0 then Alcotest.failf "p50 off: %g" p50;
  (* The span's one duration is its event's [dur] and the sum of its
     histogram's one observation. *)
  (match
     List.filter
       (fun e -> str_field "name" e = Some "both.span")
       (events_of "span" events)
   with
   | [ sp ] ->
     Alcotest.(check (option int)) "both.span_s count" (Some 1)
       (int_at [ "hists"; "both.span_s"; "count" ]);
     Alcotest.(check (option (float 0.0))) "both.span_s sum" (num_field "dur" sp)
       (num_at [ "hists"; "both.span_s"; "sum" ])
   | l -> Alcotest.failf "expected 1 both.span span, got %d" (List.length l));
  Alcotest.(check (option (float 1e-9))) "model drift" (Some 0.5)
    (num_at [ "model"; "gemm"; "drift" ]);
  (match events_of "point" events with
   | [ p ] ->
     Alcotest.(check (option string)) "series" (Some "s.loss") (str_field "series" p);
     Alcotest.(check (option (float 1e-9))) "y" (Some 1.5) (num_field "y" p)
   | l -> Alcotest.failf "expected 1 point, got %d" (List.length l))

(* Hammer the live sink from several domains at once: every span and
   counter call races against the others (and the final stop) for the
   shared JSONL channel. Passes iff the file stays line-atomic — every
   line parses — and nothing is lost: the counter saw all 800 incrs and
   all 800 span events landed. *)
let test_multi_domain_sink () =
  let path = tmp_trace () in
  Obs.Telemetry.reset ();
  Obs.Trace.start ~path ();
  let n_domains = 4 and iters = 200 in
  let worker d () =
    for i = 1 to iters do
      Obs.Telemetry.incr "par.counter";
      Obs.Span.with_
        (Printf.sprintf "work.%d" d)
        (fun () -> Obs.Telemetry.observe "par.lat" (float_of_int i))
    done
  in
  let handles = List.init n_domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join handles;
  Alcotest.(check (option int)) "live counter saw every incr"
    (Some (n_domains * iters))
    (Obs.Telemetry.counter_value "par.counter");
  Obs.Trace.stop ();
  let events = Obs.Trace.read_file path (* raises if any line is torn *) in
  Sys.remove path;
  Alcotest.(check int) "all spans recorded" (n_domains * iters)
    (List.length (events_of "span" events));
  let snap = closing_snapshot events in
  let count keys = Option.bind (at keys snap) J.to_int in
  Alcotest.(check (option int)) "recorded counter value"
    (Some (n_domains * iters))
    (count [ "counters"; "par.counter" ]);
  (* Besides [par.lat], each worker's spans fill its own [work.<d>_s]
     histogram. *)
  Alcotest.(check (option int)) "hist count" (Some (n_domains * iters))
    (count [ "hists"; "par.lat"; "count" ]);
  for d = 0 to n_domains - 1 do
    Alcotest.(check (option int)) "span hist count" (Some iters)
      (count [ "hists"; Printf.sprintf "work.%d_s" d; "count" ])
  done;
  (* Emitting after stop is a silent no-op, not a crash on a closed
     channel. *)
  Obs.Trace.emit "late" [];
  Alcotest.(check bool) "disabled after stop" false (Obs.Trace.enabled ())

(* --- interpreter counters on a known kernel ----------------------------- *)

(* One warp (32 threads), straight-line kernel exercising every memory
   path with a hand-computable transaction count:
     - coalesced global load  (addr = tid)        -> 1 transaction
     - strided global load    (addr = tid * 32)   -> 32 transactions
     - conflict-free shared store (addr = tid)    -> 1 pass
     - broadcast shared load  (addr = 0)          -> 1 pass
     - 2-way bank conflict    (addr = tid * 2)    -> 2 passes
     - coalesced global store (addr = tid)        -> 1 transaction
   plus a half-masked guarded mov to pin predicated_off. *)
let test_interp_counters () =
  let b = B.create ~name:"counters" ~dtype:F64 in
  let inp = B.buf_param b "IN" in
  let out = B.buf_param b "OUT" in
  B.set_shared b ~words:64 ~int_words:0;
  let tid = B.mov_i b (Ispecial Tid_x) in
  let f1 = B.fresh_f b in
  B.emit b (I.Ld_global (f1, inp, Ireg tid));
  let stride = B.mul_i b (Ireg tid) (Iimm 32) in
  let f2 = B.fresh_f b in
  B.emit b (I.Ld_global (f2, inp, Ireg stride));
  B.emit b (I.St_shared (Ireg tid, Freg f1));
  B.emit b I.Bar;
  let f3 = B.fresh_f b in
  B.emit b (I.Ld_shared (f3, Iimm 0));
  let conflict = B.mul_i b (Ireg tid) (Iimm 2) in
  let f4 = B.fresh_f b in
  B.emit b (I.Ld_shared (f4, Ireg conflict));
  let p = B.setp b Lt (Ireg tid) (Iimm 16) in
  let dead = B.fresh_i b in
  B.emit b ~guard:(p, true) (I.Mov (dead, Iimm 1));
  B.emit b (I.St_global (out, Ireg tid, Freg f3));
  let prog = B.finish b in
  let c =
    Ptx.Interp.run prog ~grid:(1, 1, 1) ~block:(32, 1, 1)
      ~bufs:[ ("IN", Array.make 1024 1.0); ("OUT", Array.make 32 0.0) ]
      ~iargs:[]
  in
  let check name exp got = Alcotest.(check int) name exp got in
  check "ld_global" 64 c.Ptx.Interp.ld_global;
  check "st_global" 32 c.st_global;
  check "ld_shared" 64 c.ld_shared;
  check "st_shared" 32 c.st_shared;
  check "bar" 32 c.bar;
  check "pred" 32 c.pred;
  (* mov tid (32) + guarded mov (32: masked lanes still occupy an issue
     slot and count in their category) *)
  check "mov" 64 c.mov;
  check "predicated_off" 16 c.predicated_off;
  (* two integer multiplies *)
  check "ialu" 64 c.ialu;
  check "gld_transactions" (1 + 32) c.gld_transactions;
  check "gst_transactions" 1 c.gst_transactions;
  check "shared_transactions" (1 + 1 + 2) c.shared_transactions;
  let s = Ptx.Interp.summary c in
  List.iter
    (fun needle ->
      if not (contains ~needle s) then
        Alcotest.failf "summary misses %s: %s" needle s)
    [ "gld.txn=33"; "smem.txn=4"; "masked=16" ]

(* Two warps: each warp coalesces independently, so a block of 64
   threads doing a coalesced load costs 2 transactions, not 1. *)
let test_interp_counters_two_warps () =
  let c = run_copy_kernel () in
  Alcotest.(check int) "gld" 2 c.Ptx.Interp.gld_transactions;
  Alcotest.(check int) "gst" 2 c.gst_transactions

let test_trap_snapshot () =
  let b = B.create ~name:"oob" ~dtype:F64 in
  let inp = B.buf_param b "IN" in
  let f = B.fresh_f b in
  B.emit b (I.Ld_global (f, inp, Iimm 10_000));
  let prog = B.finish b in
  match
    Ptx.Interp.run prog ~grid:(1, 1, 1) ~block:(1, 1, 1)
      ~bufs:[ ("IN", Array.make 4 0.0) ]
      ~iargs:[]
  with
  | (_ : Ptx.Interp.counters) -> Alcotest.fail "expected a trap"
  | exception Ptx.Interp.Trap msg ->
    if not (contains ~needle:"dyn:" msg) then
      Alcotest.failf "trap message lacks counter snapshot: %s" msg

(* --- rotation, request ids, partial reads ------------------------------- *)

let test_trace_rotation () =
  let path = tmp_trace () in
  let rotated = path ^ ".1" in
  Obs.Telemetry.reset ();
  (* A cap of 4 KiB forces several rotations out of ~200 span events of
     ~100 bytes each. The spans share one name, so the stop appends one
     [rot_s] histogram summary, not one per span. *)
  Obs.Trace.start ~max_bytes:4096 ~path ();
  for i = 1 to 200 do
    Obs.Span.with_ "rot" ~meta:(fun () -> [ ("i", J.Int i) ]) (fun () -> ())
  done;
  Obs.Trace.stop ();
  Alcotest.(check bool) "rotated file exists" true (Sys.file_exists rotated);
  let live = Obs.Trace.read_file path
  and old = Obs.Trace.read_file rotated in
  Sys.remove path;
  Sys.remove rotated;
  let size events =
    List.fold_left
      (fun acc e -> acc + String.length (J.to_string e) + 1)
      0 events
  in
  if size live > 4096 + 256 then
    Alcotest.failf "live trace overshoots cap: %d bytes" (size live);
  (* Every live segment announces where its predecessor went. *)
  (match events_of "trace_rotate" live with
   | marker :: _ ->
     Alcotest.(check (option string)) "rotation marker names target"
       (Some rotated)
       (str_field "rotated_to" marker)
   | [] -> Alcotest.fail "no trace_rotate marker in live file");
  (* The newest span is in the live file, an older one only in .1. *)
  let span_indices evs =
    List.filter_map
      (fun e -> Option.bind (J.member "meta" e) (J.member "i"))
      (events_of "span" evs)
  in
  Alcotest.(check bool) "newest span live" true
    (List.mem (J.Int 200) (span_indices live));
  Alcotest.(check bool) "rotated file holds older spans" true
    (span_indices old <> [])

let test_request_ids () =
  let path = tmp_trace () in
  Obs.Telemetry.reset ();
  Obs.Trace.start ~path ();
  Alcotest.(check (option int)) "no request outside scope" None
    (Obs.Span.current_request ());
  let r1 =
    Obs.Span.with_request (fun () ->
        let id = Obs.Span.current_request () in
        Obs.Span.with_ "req-span" (fun () -> ());
        id)
  in
  let r2 = Obs.Span.with_request (fun () -> Obs.Span.current_request ()) in
  Obs.Trace.stop ();
  let events = Obs.Trace.read_file path in
  Sys.remove path;
  Alcotest.(check bool) "scope restored" true (Obs.Span.current_request () = None);
  (match (r1, r2) with
   | Some a, Some b when a <> b -> ()
   | _ -> Alcotest.fail "request ids missing or not distinct");
  match events_of "span" events with
  | [ sp ] ->
    Alcotest.(check (option int)) "span tagged with request id" r1
      (Option.bind (J.member "req" sp) J.to_int)
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_read_file_partial () =
  let path = tmp_trace () in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"ev\":\"span\",\"name\":\"a\",\"dur\":1}\n";
      output_string oc "not json at all\n";
      output_string oc "{\"ev\":\"span\",\"name\":\"b\",\"dur\":2}\n";
      (* A torn final line, as left by a crashed writer. *)
      output_string oc "{\"ev\":\"span\",\"na");
  let events, skipped = Obs.Trace.read_file_partial path in
  Sys.remove path;
  Alcotest.(check int) "parseable events survive" 2 (List.length events);
  Alcotest.(check int) "garbage lines counted" 2 skipped;
  Alcotest.(check (list (option string))) "order preserved"
    [ Some "a"; Some "b" ]
    (List.map (str_field "name") events);
  (* Empty file: no events, no error. *)
  let empty = tmp_trace () in
  let events, skipped = Obs.Trace.read_file_partial empty in
  Sys.remove empty;
  Alcotest.(check int) "empty file events" 0 (List.length events);
  Alcotest.(check int) "empty file skips" 0 skipped

(* --- zero cost when disabled -------------------------------------------- *)

let test_noop_when_disabled () =
  (* The test runner does not set ISAAC_TRACE, and every test above
     closes the trace it opens, so the layer must be off here. *)
  Alcotest.(check bool) "sink off" false (Obs.Trace.enabled ());
  Alcotest.(check bool) "registry off" false (Obs.Telemetry.enabled ());
  Obs.Telemetry.reset ();
  let iters = 200_000 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to iters do
    Obs.Span.with_ "dead" (fun () -> ignore (Sys.opaque_identity i));
    Obs.Telemetry.incr "dead.counter";
    Obs.Telemetry.observe "dead.hist" 1.0
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check (option int)) "nothing accumulated" None
    (Obs.Telemetry.counter_value "dead.counter");
  Alcotest.(check string) "no open spans" "" (Obs.Span.current_path ());
  (* ~3 no-op calls per iteration; anything near a microsecond each would
     blow this generous bound and indicate the gate stopped being a
     boolean load. *)
  if elapsed > 2.0 then
    Alcotest.failf "disabled-path overhead too high: %.3fs for %d iters"
      elapsed iters

let () =
  Alcotest.run "obs"
    [ ("json",
       [ quick "roundtrip" test_json_roundtrip;
         quick "nesting bounded at 64" test_json_nesting_bounded ]);
      ( "trace",
        [ quick "span nesting + jsonl roundtrip" test_span_roundtrip;
          quick "error flag" test_span_error_flag;
          quick "metrics flush" test_metrics_flush;
          quick "multi-domain emitters" test_multi_domain_sink;
          quick "size-capped rotation" test_trace_rotation;
          quick "request ids" test_request_ids;
          quick "partial reads" test_read_file_partial ] );
      ( "interp",
        [ quick "known instruction mix" test_interp_counters;
          quick "per-warp coalescing" test_interp_counters_two_warps;
          quick "trap carries counter snapshot" test_trap_snapshot ] );
      ("overhead", [ quick "no-op when ISAAC_TRACE unset" test_noop_when_disabled ])
    ]
