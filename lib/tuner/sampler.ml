type t = {
  space : Config_space.t;
  weights : float array array;  (* per parameter, per value: alpha + count *)
}

let alpha_default = 100.0

let fit ?(alpha = alpha_default) ?(warmup = 10_000) rng space ~legal =
  Obs.Span.with_ "sampler.fit"
    ~meta:(fun () -> [ ("warmup", Obs.Json.Int warmup) ])
    (fun () ->
      let weights =
        Array.map
          (fun p -> Array.make (Array.length p.Config_space.values) alpha)
          space
      in
      let accepted = ref 0 in
      for _ = 1 to warmup do
        let cfg = Config_space.random rng space in
        if legal cfg then begin
          incr accepted;
          Array.iteri
            (fun i v ->
              let j = Config_space.value_index space.(i) v in
              weights.(i).(j) <- weights.(i).(j) +. 1.0)
            cfg
        end
      done;
      Obs.Telemetry.add "sampler.warmup_draws" warmup;
      Obs.Telemetry.add "sampler.warmup_legal" !accepted;
      { space; weights })

let marginal t i =
  let w = t.weights.(i) in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

let sample rng t =
  Array.mapi
    (fun i p ->
      let j = Util.Rng.choice_weighted rng t.weights.(i) in
      p.Config_space.values.(j))
    t.space

let sample_legal ?(max_tries = 1000) rng t ~legal =
  let rec go tries =
    if tries = 0 then (Obs.Telemetry.incr "sampler.exhausted"; None)
    else
      let cfg = sample rng t in
      if legal cfg then (Obs.Telemetry.incr "sampler.accepted"; Some cfg)
      else begin
        Obs.Telemetry.incr "sampler.rejected.legal";
        go (tries - 1)
      end
  in
  go max_tries

let sample_verified ?(max_tries = 1000) rng t ~legal ~verify =
  let rec go tries =
    if tries = 0 then (Obs.Telemetry.incr "sampler.exhausted"; None)
    else
      let cfg = sample rng t in
      (* Legality is the cheap structural filter; the static verifier
         only runs on configurations that survive it. *)
      if not (legal cfg) then begin
        Obs.Telemetry.incr "sampler.rejected.legal";
        go (tries - 1)
      end
      else if not (verify cfg) then begin
        Obs.Telemetry.incr "sampler.rejected.verify";
        go (tries - 1)
      end
      else begin
        Obs.Telemetry.incr "sampler.accepted";
        Some cfg
      end
  in
  go max_tries

let acceptance_rate ~trials ~sample ~legal =
  let accepted = ref 0 in
  for _ = 1 to trials do
    if legal (sample ()) then incr accepted
  done;
  float_of_int !accepted /. float_of_int trials
