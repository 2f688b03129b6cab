type measurement = {
  tflops : float;
  seconds : float;
  report : Perf_model.report;
}

let default_noise = 0.03

(* Handles are resolved once at module init so the enabled path costs
   one shard fetch_and_add per event. *)
let t_measurements = Obs.Telemetry.counter "executor.measurements"
let t_illegal = Obs.Telemetry.counter "executor.illegal"
let t_kernel_s = Obs.Telemetry.histo "executor.kernel_s"

let legal (d : Device.t) (c : Kernel_cost.t) =
  Occupancy.legal d (Kernel_cost.occupancy_usage c)

let measure ?(noise = default_noise) rng d c =
  match Perf_model.predict d c with
  | None ->
    if Obs.Telemetry.enabled () then Obs.Telemetry.Counter.incr t_illegal;
    None
  | Some report ->
    let jitter = exp (noise *. Util.Rng.gaussian rng) in
    let seconds = report.seconds *. jitter in
    if Obs.Telemetry.enabled () then begin
      Obs.Telemetry.Counter.incr t_measurements;
      Obs.Telemetry.Histo.observe t_kernel_s seconds
    end;
    Some { tflops = c.useful_flops /. seconds /. 1e12; seconds; report }

let measure_best_of ?(noise = default_noise) ?(reps = 3) rng d c =
  let rec go best k =
    if k = 0 then best
    else
      let best =
        match (measure ~noise rng d c, best) with
        | None, best -> best
        | Some m, None -> Some m
        | Some m, Some b -> Some (if m.seconds < b.seconds then m else b)
      in
      go best (k - 1)
  in
  go None reps
