(* isaac_bench_diff: statistical comparison of two benchmark reports.

     isaac_bench_diff results/BENCH_new.json --against bench/baseline.json
     isaac_bench_diff results/BENCH_old.json results/BENCH_new.json --strict

   Loads two BENCH_<rev>.json reports (see Obs.Bench_report) and runs
   Obs.Regress over them: deterministic metrics gate on a tight relative
   tolerance, timing metrics on confidence-interval overlap plus a
   generous threshold, shape checks on pass/fail transitions. Exit
   status 0 means no significant regression, 1 means at least one (or,
   with --strict, any worsening/missing metric), 3 means a report could
   not be loaded. This is the CI gate for the bench observatory. *)

open Cmdliner
module BR = Obs.Bench_report
module R = Obs.Regress

let load_or_die role path =
  match BR.load path with
  | Ok r -> r
  | Error msg ->
    Printf.eprintf "isaac_bench_diff: cannot load %s report %s: %s\n" role path
      msg;
    exit 3

let fmt_value v =
  if Float.is_nan v then "-"
  else if Float.abs v >= 1e6 || (Float.abs v < 1e-3 && v <> 0.0) then
    Printf.sprintf "%.3e" v
  else Printf.sprintf "%.4g" v

let fmt_rel c =
  match c.R.verdict with
  | R.Missing | R.New -> "-"
  | _ when Float.is_nan c.rel -> "-"
  | _ -> Printf.sprintf "%+.1f%%" (100.0 *. c.rel)

let print_env label (r : BR.t) =
  Printf.printf "%-9s rev %s  seed %d  scale %g  host %s\n" label r.env.rev
    r.env.seed r.env.repro_scale r.env.hostname

let run base_path cand_path against strict all det_tol timing_thr wall_thr =
  let base_path, cand_path =
    match (cand_path, against) with
    | Some c, None -> (base_path, c)
    | None, Some b -> (b, base_path)
    | Some _, Some _ ->
      prerr_endline
        "isaac_bench_diff: give either a second positional report or \
         --against, not both";
      exit 3
    | None, None ->
      prerr_endline
        "isaac_bench_diff: need a baseline (second positional report or \
         --against FILE)";
      exit 3
  in
  let base = load_or_die "baseline" base_path in
  let cand = load_or_die "candidate" cand_path in
  print_env "baseline" base;
  print_env "candidate" cand;
  if base.env.seed <> cand.env.seed || base.env.repro_scale <> cand.env.repro_scale
  then
    Printf.printf
      "note: seed/scale differ between reports; deterministic gates may \
       misfire\n";
  List.iter (Printf.printf "note: %s\n") (R.knob_notes base cand);
  let config =
    { R.det_tolerance = det_tol; timing_threshold = timing_thr;
      wall_threshold = wall_thr }
  in
  let comparisons = R.compare_reports ~config base cand in
  let interesting c =
    all || c.R.significant || c.R.verdict <> R.Unchanged
  in
  let shown = List.filter interesting comparisons in
  print_newline ();
  if shown = [] then print_endline "all metrics unchanged"
  else
    Util.Table.print
      ~header:[| "metric"; "baseline"; "candidate"; "delta"; "verdict"; "note" |]
      (List.map
         (fun c ->
           [| c.R.c_name; fmt_value c.base; fmt_value c.cand; fmt_rel c;
              (R.verdict_name c.verdict
              ^ if c.significant then " (significant)" else "");
              c.note |])
         shown);
  let regressions = R.regressions comparisons in
  let worsened = R.worsened comparisons in
  Printf.printf
    "\n%d metrics compared: %d significant regressions, %d worsened or \
     missing\n"
    (List.length comparisons) (List.length regressions) (List.length worsened);
  if regressions <> [] then begin
    print_endline "FAIL: significant regressions";
    exit 1
  end;
  if strict && worsened <> [] then begin
    print_endline "FAIL (strict): worsened or missing metrics";
    exit 1
  end;
  print_endline "OK: no significant regressions"

let cmd =
  let first =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"REPORT"
          ~doc:
            "Candidate report, or the baseline when a second positional \
             report is given.")
  in
  let second =
    Arg.(
      value
      & pos 1 (some file) None
      & info [] ~docv:"CANDIDATE"
          ~doc:"Candidate report (the first positional becomes the baseline).")
  in
  let against =
    Arg.(
      value
      & opt (some file) None
      & info [ "against" ] ~docv:"BASELINE"
          ~doc:"Baseline report to compare the candidate against.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Also fail on statistically insignificant worsening and on \
             metrics missing from the candidate.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "a"; "all" ] ~doc:"List unchanged metrics too, not just drift.")
  in
  let det_tol =
    Arg.(
      value
      & opt float R.default_config.det_tolerance
      & info [ "det-tolerance" ] ~docv:"FRAC"
          ~doc:"Relative tolerance for deterministic metrics.")
  in
  let timing_thr =
    Arg.(
      value
      & opt float R.default_config.timing_threshold
      & info [ "timing-threshold" ] ~docv:"FRAC"
          ~doc:"Relative threshold for CI-backed timing metrics.")
  in
  let wall_thr =
    Arg.(
      value
      & opt float R.default_config.wall_threshold
      & info [ "wall-threshold" ] ~docv:"FRAC"
          ~doc:"Relative threshold for timing metrics without intervals.")
  in
  Cmd.v
    (Cmd.info "isaac_bench_diff"
       ~doc:"Compare two benchmark reports and gate on regressions")
    Term.(
      const run $ first $ second $ against $ strict $ all $ det_tol
      $ timing_thr $ wall_thr)

let () = exit (Cmd.eval cmd)
