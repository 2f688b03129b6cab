module B = Bench_report

type verdict = Improved | Unchanged | Regressed | Missing | New

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "REGRESSED"
  | Missing -> "missing"
  | New -> "new"

type comparison = {
  c_name : string;
  base : float;
  cand : float;
  rel : float;
  verdict : verdict;
  significant : bool;
  note : string;
}

type config = {
  det_tolerance : float;
  timing_threshold : float;
  wall_threshold : float;
}

let default_config =
  { det_tolerance = 0.01; timing_threshold = 0.25; wall_threshold = 0.5 }

let rel_change ~base ~cand =
  if base = cand then 0.0
  else (cand -. base) /. Float.max 1e-12 (Float.abs base)

let ci_disjoint a b =
  match (a, b) with
  | Some (alo, ahi), Some (blo, bhi) -> ahi < blo || bhi < alo
  | _ -> false

(* Compare one metric present in both reports. *)
let compare_metric cfg (bm : B.metric) (cm : B.metric) =
  let rel = rel_change ~base:bm.value ~cand:cm.value in
  let worse =
    match cm.direction with
    | B.Higher_better -> rel < 0.0
    | B.Lower_better -> rel > 0.0
    | B.Neutral -> false
  in
  let verdict, significant, note =
    if cm.direction = B.Neutral then (Unchanged, false, "informational")
    else if Float.abs rel <= cfg.det_tolerance then
      (Unchanged, false, Printf.sprintf "within %.0f%%" (100.0 *. cfg.det_tolerance))
    else if not worse then (Improved, false, "")
    else
      match cm.kind with
      | B.Deterministic ->
        ( Regressed, true,
          Printf.sprintf "deterministic drift > %.0f%%"
            (100.0 *. cfg.det_tolerance) )
      | B.Timing ->
        if bm.ci <> None && cm.ci <> None then
          if ci_disjoint bm.ci cm.ci && Float.abs rel > cfg.timing_threshold
          then (Regressed, true, "CIs disjoint and past threshold")
          else if ci_disjoint bm.ci cm.ci then
            (Regressed, false, "CIs disjoint but within threshold")
          else (Unchanged, false, "CIs overlap")
        else if Float.abs rel > cfg.wall_threshold then
          (Regressed, true, "no CI; past wall threshold")
        else (Regressed, false, "no CI; within wall threshold")
  in
  { c_name = cm.m_name; base = bm.value; cand = cm.value; rel; verdict;
    significant; note }

(* Single-shot experiment wall times become CI-less timing comparisons. *)
let wall_metric (e : B.experiment) =
  { B.m_name = "wall." ^ e.key;
    m_experiment = e.key;
    value = e.wall_seconds;
    unit_ = "s";
    direction = B.Lower_better;
    kind = B.Timing;
    ci = None;
    n = None }

let effective_metrics (r : B.t) =
  r.B.metrics @ List.map wall_metric r.B.experiments

let check_comparisons (base : B.t) (cand : B.t) =
  List.concat_map
    (fun (be : B.experiment) ->
      match B.find_experiment cand be.key with
      | None -> []
      | Some ce ->
        List.filter_map
          (fun (bc : B.check) ->
            match
              List.find_opt (fun (cc : B.check) -> cc.B.claim = bc.B.claim)
                ce.checks
            with
            | Some cc when bc.pass && not cc.pass ->
              Some
                { c_name = Printf.sprintf "check:%s/%s" be.key bc.claim;
                  base = 1.0; cand = 0.0; rel = -1.0; verdict = Regressed;
                  significant = true;
                  note = Printf.sprintf "was %S, now %S" bc.ours cc.ours }
            | Some cc when (not bc.pass) && cc.pass ->
              Some
                { c_name = Printf.sprintf "check:%s/%s" be.key bc.claim;
                  base = 0.0; cand = 1.0; rel = 1.0; verdict = Improved;
                  significant = false; note = "check now passes" }
            | _ -> None)
          be.checks)
    base.B.experiments

let compare_reports ?(config = default_config) base cand =
  let base_metrics = effective_metrics base in
  let cand_metrics = effective_metrics cand in
  let matched =
    List.map
      (fun (cm : B.metric) ->
        match
          List.find_opt (fun (bm : B.metric) -> bm.B.m_name = cm.B.m_name)
            base_metrics
        with
        | Some bm -> compare_metric config bm cm
        | None ->
          { c_name = cm.m_name; base = Float.nan; cand = cm.value; rel = 0.0;
            verdict = New; significant = false; note = "not in baseline" })
      cand_metrics
  in
  let missing =
    List.filter_map
      (fun (bm : B.metric) ->
        if
          List.exists (fun (cm : B.metric) -> cm.B.m_name = bm.B.m_name)
            cand_metrics
        then None
        else
          Some
            { c_name = bm.m_name; base = bm.value; cand = Float.nan;
              rel = 0.0; verdict = Missing; significant = false;
              note = "metric disappeared" })
      base_metrics
  in
  matched @ missing @ check_comparisons base cand

let knob_notes (base : B.t) (cand : B.t) =
  let show = function Some v -> Printf.sprintf "%S" v | None -> "unset" in
  List.sort_uniq compare
    (List.map fst base.env.knobs @ List.map fst cand.env.knobs)
  |> List.filter_map (fun k ->
         let b = List.assoc_opt k base.env.knobs
         and c = List.assoc_opt k cand.env.knobs in
         if b = c then None
         else
           Some
             (Printf.sprintf "knob %s differs: baseline %s, candidate %s" k
                (show b) (show c)))

let regressions l =
  List.filter (fun c -> c.verdict = Regressed && c.significant) l

let worsened l =
  List.filter (fun c -> c.verdict = Regressed || c.verdict = Missing) l
