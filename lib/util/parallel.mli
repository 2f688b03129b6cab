(** Multicore fan-out built directly on OCaml 5 [Domain].

    The tuner's two hot loops — benchmarking tens of thousands of
    sampled kernels (§4) and scoring the legal space through the MLP at
    runtime (§6) — are embarrassingly parallel, as is the interpreter's
    grid of independent CTAs; {!run_chunks} spreads them across domains.
    Work functions must be thread-safe (the tuner's are: they share only
    immutable models and per-domain PRNGs).

    Results are deterministic for a fixed (seed, domain-count) pair. *)

val recommended_domains : unit -> int
(** [ISAAC_DOMAINS] env override, else [Domain.recommended_domain_count],
    capped at 8. *)

val run_chunks :
  domains:int ->
  total:int ->
  (chunk:int -> offset:int -> size:int -> 'a) ->
  'a list
(** [run_chunks ~domains ~total f] splits [total] work items into
    [domains] contiguous chunks and runs [f ~chunk ~offset ~size] per
    chunk in its own domain, where [offset] is the chunk's first item;
    results come back in chunk order. [domains <= 1] or [total <= 1]
    runs [f ~chunk:0 ~offset:0 ~size:total] on the calling domain.

    Every spawned domain is joined before the first worker exception
    (in chunk order) is re-raised, so no worker outlives the call, even
    on failure: a trap in one interpreter chunk cannot leave others
    racing on the output buffers, and a failed dataset chunk cannot
    leave its siblings generating and writing checkpoints. *)
