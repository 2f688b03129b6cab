(** "Run" a kernel on a device: legality check, timing-model evaluation,
    and deterministic measurement noise.

    This is the reproduction's stand-in for launching a real kernel and
    timing it with CUDA events: the tuner benchmarks thousands of
    configurations through this entry point, and the runtime inference
    stage re-evaluates its top candidates here to "smooth out the inherent
    noise" exactly as §6 describes. *)

type measurement = {
  tflops : float;     (** noisy observed performance *)
  seconds : float;    (** noisy observed time *)
  report : Perf_model.report;  (** noiseless model introspection *)
}

val default_noise : float
(** Default multiplicative log-normal noise sigma (3%), typical of
    wall-clock GPU benchmarking jitter. *)

val legal : Device.t -> Kernel_cost.t -> bool
(** Whether the kernel launches at all on the device (per-block resource
    limits; the X vs X̂ distinction of §4). *)

val measure :
  ?noise:float -> Util.Rng.t -> Device.t -> Kernel_cost.t -> measurement option
(** One noisy benchmark run; [None] if the kernel is illegal on the
    device. While the {!Obs.Telemetry} registry collects, each call
    counts [executor.measurements] (or [executor.illegal]) and feeds the
    [executor.kernel_s] histogram — the per-config benchmark cost the
    profiler aggregates. *)

val measure_best_of :
  ?noise:float -> ?reps:int -> Util.Rng.t -> Device.t -> Kernel_cost.t ->
  measurement option
(** Best of [reps] (default 3) runs — the usual benchmarking practice of
    reporting the fastest repetition. *)
