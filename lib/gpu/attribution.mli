(** Model-vs-counter attribution: cross-check the analytical timing
    model against the interpreter's emulated hardware counters.

    {!Perf_model} decomposes predicted kernel time into pipeline terms
    (arithmetic, global memory, shared memory, overheads — the cost
    structure of the paper's Eq. 2–3). {!Ptx.Interp} independently
    executes the same kernels and counts what actually happened: issue
    slots, warp-level global/shared transactions, barrier waits. Each
    cost term should be driven by its counter; this module measures how
    well it is, over a sampled set of verified configurations, so model
    drift is a first-class observable rather than something discovered
    when a reproduced figure silently bends.

    A high Pearson r with low drift says the model term tracks the
    counter up to a constant factor (the device's seconds-per-unit). A
    high r with high drift says the ranking survives but the exchange
    rate wobbles across configurations — usually a second-order effect
    (latency ceilings, wave quantization) the term folds in. A low r is
    a modelling bug. *)

type sample = {
  label : string;  (** config description, for debugging *)
  kernel_hash : int64 option;
  (** {!Ptx.Program.hash} of the executed kernel, when the producer
      computed it — the identity a served plan carries, so an
      attribution outlier can be joined back to the exact kernel that
      produced it. [None] for synthetic samples. *)
  report : Perf_model.report;        (** predicted decomposition *)
  counters : Ptx.Interp.counters;    (** measured ground truth *)
}

type pairing = {
  term : string;          (** [Perf_model.report] field name *)
  counter : string;       (** interpreter counter (or combination) name *)
  term_of : Perf_model.report -> float;
  counter_of : Ptx.Interp.counters -> float;
}

val pairings : pairing list
(** The four term↔counter pairs:
    [arith_seconds ↔ interp.issue_slots] (all dynamically issued
    instructions, including predicated-off ones),
    [mem_seconds ↔ interp.global_transactions] (load + store; the term
    side is {!Perf_model.report.global_bytes}, the mem term's pre-L2
    traffic driver, because the term's seconds additionally divide by a
    config-dependent effective bandwidth that counters cannot see),
    [shared_seconds ↔ interp.shared_transactions],
    [overhead_seconds ↔ interp.bar_waits]. *)

type row = {
  term : string;
  counter : string;
  n : int;            (** samples correlated *)
  pearson_r : float;  (** nan when fewer than 2 samples or zero variance *)
  scale : float;      (** mean(term) / mean(counter): implied s per unit *)
  drift : float;      (** coefficient of variation of the per-sample
                          term/counter ratio over samples with a nonzero
                          counter; 0 = perfectly proportional *)
}

val correlate : sample list -> row list
(** One row per {!pairings} entry over the given samples. *)
