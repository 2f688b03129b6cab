(** Power and energy model.

    §4.1 of the paper notes that the regression target y can be "FLOPS,
    Joules, FLOPS/W..."; the evaluation uses FLOPS only. This module adds
    the energy side so the tuner can optimize efficiency instead of speed
    (exercised by the energy ablation in the benchmark harness).

    The model is the standard utilization-linear one: board power is an
    idle floor plus terms proportional to arithmetic-pipeline and
    DRAM-interface utilization, capped at the 250 W TDP both of the
    paper's devices share (Table 3). *)

val board_watts : Device.t -> Perf_model.report -> float
(** Average board power while the kernel runs, from the report's
    pipeline-utilization breakdown. Always within \[idle, TDP\]. *)

val kernel_joules : Device.t -> Perf_model.report -> float
(** Energy of one kernel execution: [board_watts * seconds]. *)

val gflops_per_watt : Device.t -> Perf_model.report -> float
(** Efficiency: useful GFLOPS divided by board power. *)
