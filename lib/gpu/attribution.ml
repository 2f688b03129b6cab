type sample = {
  label : string;
  kernel_hash : int64 option;
  report : Perf_model.report;
  counters : Ptx.Interp.counters;
}

type pairing = {
  term : string;
  counter : string;
  term_of : Perf_model.report -> float;
  counter_of : Ptx.Interp.counters -> float;
}

let pairings =
  [ { term = "arith_seconds";
      counter = "interp.issue_slots";
      term_of = (fun r -> r.Perf_model.arith_seconds);
      counter_of = (fun c -> float_of_int (Ptx.Interp.total c)) };
    { term = "mem_seconds";
      counter = "interp.global_transactions";
      (* The mem term is traffic divided by a config-dependent effective
         bandwidth (occupancy- and latency-limited) after L2 filtering;
         transaction counters measure issued traffic only. Correlating
         the term's traffic driver probes the traffic model without
         conflating it with the bandwidth and L2 models. *)
      term_of = (fun r -> r.Perf_model.global_bytes);
      counter_of =
        (fun c ->
          float_of_int
            (c.Ptx.Interp.gld_transactions + c.Ptx.Interp.gst_transactions)) };
    { term = "shared_seconds";
      counter = "interp.shared_transactions";
      term_of = (fun r -> r.Perf_model.shared_seconds);
      counter_of = (fun c -> float_of_int c.Ptx.Interp.shared_transactions) };
    { term = "overhead_seconds";
      counter = "interp.bar_waits";
      term_of = (fun r -> r.Perf_model.overhead_seconds);
      counter_of = (fun c -> float_of_int c.Ptx.Interp.bar) } ]

type row = {
  term : string;
  counter : string;
  n : int;
  pearson_r : float;
  scale : float;
  drift : float;
}

let correlate samples =
  List.map
    (fun p ->
      let xs = Array.of_list (List.map (fun s -> p.term_of s.report) samples) in
      let ys =
        Array.of_list (List.map (fun s -> p.counter_of s.counters) samples)
      in
      let n = Array.length xs in
      let var a =
        n > 1 && Util.Stats.variance a > 0.0
      in
      let pearson_r =
        if var xs && var ys then Util.Stats.correlation xs ys else Float.nan
      in
      let scale =
        if n = 0 then Float.nan
        else
          let my = Util.Stats.mean ys in
          if my > 0.0 then Util.Stats.mean xs /. my else Float.nan
      in
      (* Ratio spread: how far the term strays from "counter times a
         constant". Computed over samples where both sides are positive. *)
      let ratios =
        List.filter_map
          (fun s ->
            let t = p.term_of s.report and c = p.counter_of s.counters in
            if c > 0.0 && t > 0.0 then Some (t /. c) else None)
          samples
      in
      let drift =
        match ratios with
        | [] | [ _ ] -> Float.nan
        | _ ->
          let r = Array.of_list ratios in
          let m = Util.Stats.mean r in
          if m > 0.0 then Util.Stats.stddev r /. m else Float.nan
      in
      { term = p.term; counter = p.counter; n; pearson_r; scale; drift })
    pairings
