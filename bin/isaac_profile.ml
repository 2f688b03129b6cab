(* isaac_profile: replay a JSONL trace recorded under ISAAC_TRACE and
   print a human-readable profile: per-phase time breakdown (inclusive
   and self time per span path), the telemetry snapshot the trace
   records when it stops (counters, histograms, model drift), series
   endpoints, and the top-N hottest benchmarked configurations.

   Given a saved isaac_serve [stats] reply instead, it renders the
   snapshot the reply embeds. Given several traces, prints cross-run
   comparison tables instead — counters and per-phase self times side
   by side with a delta column (last run minus first), for before/after
   profiling of a change.

     ISAAC_TRACE=trace.jsonl isaac_tune --samples 500 -o t.profile
     isaac_profile trace.jsonl --top 10
     isaac_profile stats.json
     isaac_profile before.jsonl after.jsonl *)

open Cmdliner
module J = Obs.Json

let fmt_secs s =
  if Float.abs s >= 1.0 then Printf.sprintf "%.2f s" s
  else if Float.abs s >= 1e-3 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else Printf.sprintf "%.1f us" (s *. 1e6)

let str_field k ev = Option.bind (J.member k ev) J.to_str
let num_field k ev = Option.bind (J.member k ev) J.to_float
let int_field k ev = Option.bind (J.member k ev) J.to_int

(* --- span aggregation --------------------------------------------------- *)

type phase = {
  mutable count : int;
  mutable incl : float;       (* sum of durations of spans at this path *)
  mutable child : float;      (* sum of durations of direct children *)
  mutable errors : int;
}

let parent_path p =
  match String.rindex_opt p '/' with
  | None -> None
  | Some i -> Some (String.sub p 0 i)

let phase_table events =
  let tbl : (string, phase) Hashtbl.t = Hashtbl.create 32 in
  let get path =
    match Hashtbl.find_opt tbl path with
    | Some ph -> ph
    | None ->
      let ph = { count = 0; incl = 0.0; child = 0.0; errors = 0 } in
      Hashtbl.add tbl path ph;
      ph
  in
  List.iter
    (fun ev ->
      if str_field "ev" ev = Some "span" then
        match (str_field "path" ev, num_field "dur" ev) with
        | Some path, Some dur ->
          let ph = get path in
          ph.count <- ph.count + 1;
          ph.incl <- ph.incl +. dur;
          if J.member "error" ev = Some (J.Bool true) then
            ph.errors <- ph.errors + 1;
          (match parent_path path with
           | Some p -> let pp = get p in pp.child <- pp.child +. dur
           | None -> ())
        | _ -> ())
    events;
  tbl

let print_phases tbl =
  let rows =
    Hashtbl.fold (fun path ph acc -> (path, ph) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> compare b.incl a.incl)
  in
  if rows = [] then print_endline "no span events in trace."
  else begin
    let total =
      List.fold_left
        (fun acc (path, ph) ->
          if parent_path path = None then acc +. ph.incl else acc)
        0.0 rows
    in
    Util.Table.print
      ~header:[| "phase"; "count"; "inclusive"; "self"; "% of total"; "errors" |]
      (List.map
         (fun (path, ph) ->
           let self = Float.max 0.0 (ph.incl -. ph.child) in
           [| path;
              string_of_int ph.count;
              fmt_secs ph.incl;
              fmt_secs self;
              (if total > 0.0 then
                 Printf.sprintf "%.1f%%" (100.0 *. ph.incl /. total)
               else "-");
              (if ph.errors = 0 then "" else string_of_int ph.errors) |])
         rows)
  end

(* --- telemetry snapshot ------------------------------------------------- *)

let obj_fields = function J.Obj fields -> fields | _ -> []
let obj_member k v = obj_fields (Option.value ~default:J.Null (J.member k v))

(* The registry snapshot of a trace's closing [telemetry] event or of a
   saved [stats] reply: both carry it under the key [telemetry]. *)
let snapshot_of events =
  List.fold_left
    (fun acc ev ->
      match J.member "telemetry" ev with Some (J.Obj _ as s) -> Some s | _ -> acc)
    None events

let snapshot_counters snap =
  List.filter_map
    (fun (name, v) -> Option.map (fun n -> (name, n)) (J.to_int v))
    (obj_member "counters" snap)

(* Histogram values are rendered as durations when the name says they
   are seconds (the convention every built-in histogram follows). *)
let fmt_value ~name v =
  if Float.is_nan v then "-"
  else if String.ends_with ~suffix:"_s" name then fmt_secs v
  else Printf.sprintf "%.4g" v

let print_snapshot snap =
  (match snapshot_counters snap with
   | [] -> print_endline "no counters."
   | rows ->
     Util.Table.print ~header:[| "counter"; "value" |]
       (List.map (fun (k, v) -> [| k; string_of_int v |]) rows));
  let hists =
    List.filter_map
      (fun (name, h) ->
        Option.map
          (fun count ->
            let f k =
              Option.fold ~none:"-" ~some:(fmt_value ~name) (num_field k h)
            in
            [| name; string_of_int count; f "mean"; f "p50"; f "p95"; f "p99";
               f "max" |])
          (int_field "count" h))
      (obj_member "hists" snap)
  in
  if hists <> [] then begin
    print_endline "";
    Util.Table.print
      ~header:[| "histogram"; "count"; "mean"; "p50"; "p95"; "p99"; "max" |]
      hists
  end;
  (* One [model.drift.<op>] row per op over all its input buckets, then
     one row per bucket. *)
  let pct =
    Option.fold ~none:"-" ~some:(fun x -> Printf.sprintf "%.1f%%" (100.0 *. x))
  in
  let drift =
    List.concat_map
      (fun (op, per_op) ->
        let name = "model.drift." ^ op in
        let buckets =
          List.filter_map
            (fun (bucket, cell) ->
              Option.map
                (fun n -> (bucket, n, num_field "mae_rel" cell))
                (int_field "n" cell))
            (obj_member "buckets" per_op)
        in
        let n = List.fold_left (fun acc (_, n, _) -> acc + n) 0 buckets in
        [| name; "all"; string_of_int n; pct (num_field "drift" per_op) |]
        :: List.map
             (fun (bucket, n, mae) -> [| name; bucket; string_of_int n; pct mae |])
             buckets)
      (obj_member "model" snap)
  in
  if drift <> [] then begin
    print_endline "";
    Util.Table.print
      ~header:[| "model drift"; "input bucket"; "n"; "mean abs rel error" |]
      drift
  end

(* --- series ------------------------------------------------------------- *)

let print_series events =
  let tbl : (string, (float * float) list ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun ev ->
      if str_field "ev" ev = Some "point" then
        match (str_field "series" ev, num_field "x" ev, num_field "y" ev) with
        | Some s, Some x, Some y ->
          (match Hashtbl.find_opt tbl s with
           | Some l -> l := (x, y) :: !l
           | None ->
             order := s :: !order;
             Hashtbl.add tbl s (ref [ (x, y) ]))
        | _ -> ())
    events;
  if !order <> [] then begin
    print_endline "";
    Util.Table.print
      ~header:[| "series"; "points"; "first"; "last"; "min"; "max" |]
      (List.rev_map
         (fun s ->
           let pts = List.rev !(Hashtbl.find tbl s) in
           let ys = List.map snd pts in
           let first = List.hd ys and last = List.nth ys (List.length ys - 1) in
           let mn = List.fold_left Float.min first ys in
           let mx = List.fold_left Float.max first ys in
           let g = Printf.sprintf "%.4g" in
           [| s; string_of_int (List.length pts); g first; g last; g mn; g mx |])
         !order)
  end

(* --- hottest configurations --------------------------------------------- *)

let print_configs ~top events =
  let configs =
    List.filter_map
      (fun ev ->
        if str_field "ev" ev <> Some "config" then None
        else
          match (str_field "config" ev, num_field "seconds" ev) with
          | Some cfg, Some secs ->
            Some
              ( cfg,
                Option.value ~default:"-" (str_field "phase" ev),
                secs,
                Option.value ~default:Float.nan (num_field "tflops" ev) )
          | _ -> None)
      events
  in
  let n = List.length configs in
  if n = 0 then print_endline "no config events in trace."
  else begin
    let sorted =
      List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a) configs
    in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | hd :: tl -> hd :: take (k - 1) tl
    in
    Printf.printf "%d benchmarked configurations; %d slowest:\n" n (min top n);
    Util.Table.print
      ~header:[| "config"; "phase"; "bench cost"; "TFLOPS" |]
      (List.map
         (fun (cfg, phase, secs, tflops) ->
           [| cfg; phase; fmt_secs secs; Printf.sprintf "%.2f" tflops |])
         (take top sorted))
  end

(* --- driver ------------------------------------------------------------- *)

let section title =
  Printf.printf "\n-- %s %s\n" title
    (String.make (max 0 (60 - String.length title)) '-')

(* Lenient load: traces from killed or still-running processes end in a
   truncated line, and a rotated trace may be empty but for its marker.
   Report what was skipped and profile what parsed instead of erroring. *)
let load_events path =
  let events, skipped = Obs.Trace.read_file_partial path in
  if skipped > 0 then
    Printf.eprintf
      "isaac_profile: %s: skipped %d unparseable line%s (truncated trace?)\n"
      path skipped
      (if skipped = 1 then "" else "s");
  events

let run_single path top =
  let events = load_events path in
  if events = [] then
    Printf.printf
      "trace %s: no events (empty or fully truncated trace) — nothing to profile.\n"
      path
  else if not (List.exists (fun ev -> str_field "ev" ev <> None) events) then begin
    (* No trace events: a saved [stats] reply, rendered by its snapshot. *)
    Printf.printf "stats reply %s\n" path;
    section "counters";
    match snapshot_of events with
    | Some snap -> print_snapshot snap
    | None ->
      print_endline "no telemetry snapshot (the daemon ran without ISAAC_TRACE)."
  end
  else begin
  (match
     List.find_opt (fun ev -> str_field "ev" ev = Some "trace_start") events
   with
   | Some ev ->
     Printf.printf "trace %s" path;
     (match Option.bind (J.member "argv" ev) (function
        | J.List l -> Some (String.concat " " (List.filter_map J.to_str l))
        | _ -> None)
      with
      | Some argv -> Printf.printf " (argv: %s)" argv
      | None -> ());
     print_newline ()
   | None -> Printf.printf "trace %s (no trace_start header)\n" path);
  (match
     List.find_opt (fun ev -> str_field "ev" ev = Some "trace_end") events
   with
   | Some ev ->
     (match num_field "ts" ev with
      | Some ts -> Printf.printf "total traced time: %s\n" (fmt_secs ts)
      | None -> ())
   | None -> print_endline "warning: no trace_end event (truncated trace?)");
  section "time by phase";
  print_phases (phase_table events);
  section "counters";
  (match snapshot_of events with
   | Some snap -> print_snapshot snap
   | None -> print_endline "no telemetry event in trace (truncated trace?).");
  print_series events;
  section "hottest configurations";
  print_configs ~top events
  end

(* --- cross-run comparison ------------------------------------------------ *)

let union_keys fold_tbls =
  let seen = Hashtbl.create 64 in
  List.iter (fun iter -> iter (fun k -> Hashtbl.replace seen k ())) fold_tbls;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

let run_many paths =
  let traces = List.map (fun p -> (p, load_events p)) paths in
  Printf.printf "comparing %d traces:\n" (List.length traces);
  List.iteri
    (fun i (p, events) ->
      let total =
        List.find_opt (fun ev -> str_field "ev" ev = Some "trace_end") events
        |> Fun.flip Option.bind (num_field "ts")
      in
      Printf.printf "  [%d] %s%s\n" (i + 1) p
        (match total with
         | Some ts -> Printf.sprintf " (total %s)" (fmt_secs ts)
         | None -> " (no trace_end)"))
    traces;
  let run_headers = List.mapi (fun i _ -> Printf.sprintf "[%d]" (i + 1)) traces in
  (* Counters: one column per run plus last-minus-first delta. *)
  section "counters across runs";
  let counters =
    List.map
      (fun (_, events) ->
        Option.fold ~none:[] ~some:snapshot_counters (snapshot_of events))
      traces
  in
  let names =
    union_keys (List.map (fun l f -> List.iter (fun (k, _) -> f k) l) counters)
  in
  if names = [] then print_endline "no telemetry event in any trace."
  else begin
    let value l name = Option.value ~default:0 (List.assoc_opt name l) in
    let last = List.nth counters (List.length counters - 1) in
    let first = List.hd counters in
    Util.Table.print
      ~header:(Array.of_list (("counter" :: run_headers) @ [ "delta" ]))
      (List.map
         (fun name ->
           Array.of_list
             ((name
               :: List.map (fun tbl -> string_of_int (value tbl name)) counters)
             @ [ Printf.sprintf "%+d" (value last name - value first name) ]))
         names)
  end;
  (* Phases: self time per run plus delta, ordered by last run's self time. *)
  section "phase self time across runs";
  let self_tbls =
    List.map
      (fun (_, events) ->
        let tbl = phase_table events in
        let self : (string, float) Hashtbl.t = Hashtbl.create 32 in
        Hashtbl.iter
          (fun path ph ->
            Hashtbl.replace self path (Float.max 0.0 (ph.incl -. ph.child)))
          tbl;
        self)
      traces
  in
  let paths_union =
    union_keys
      (List.map (fun tbl f -> Hashtbl.iter (fun k _ -> f k) tbl) self_tbls)
  in
  if paths_union = [] then print_endline "no span events in any trace."
  else begin
    let value tbl p = Option.value ~default:0.0 (Hashtbl.find_opt tbl p) in
    let last = List.nth self_tbls (List.length self_tbls - 1) in
    let first = List.hd self_tbls in
    let ordered =
      List.sort
        (fun a b -> compare (value last b) (value last a))
        paths_union
    in
    Util.Table.print
      ~header:(Array.of_list (("phase" :: run_headers) @ [ "delta" ]))
      (List.map
         (fun p ->
           let d = value last p -. value first p in
           Array.of_list
             ((p :: List.map (fun tbl -> fmt_secs (value tbl p)) self_tbls)
             @ [ Printf.sprintf "%s%s" (if d >= 0.0 then "+" else "-")
                   (fmt_secs (Float.abs d)) ]))
         ordered)
  end

let run paths top =
  match paths with
  | [ path ] -> run_single path top
  | paths -> run_many paths

let cmd =
  let traces =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"TRACE"
         ~doc:"JSONL trace(s) recorded with ISAAC_TRACE=$(docv), or a saved \
               isaac_serve stats reply; two or more switch to cross-run \
               comparison.")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N"
         ~doc:"How many of the costliest benchmarked configs to list.")
  in
  Cmd.v
    (Cmd.info "isaac_profile"
       ~doc:"Summarize an ISAAC_TRACE profile or a stats reply: phase times, \
             telemetry, hot configs")
    Term.(const run $ traces $ top)

let () = exit (Cmd.eval cmd)
