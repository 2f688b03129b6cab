(** Deterministic fault injection for crash-safety tests.

    The offline tuning pipeline must survive killed writes, corrupted
    artifacts and failed benchmarks (see DESIGN.md, "Artifact store &
    crash-safety"). This module turns those failures on from the
    environment so tests — and brave operators — can prove the recovery
    paths actually run:

    {v ISAAC_FAULTS=io_crash:0.01,io_corrupt:0.02,bench_fail:0.05 v}

    Each entry is [kind:rate]. To keep runs reproducible the injector is
    {e deterministic}, not random: a rate [r] means every
    [round(1/r)]-th call of {!fire} for that kind returns [true]
    (rate 1.0 = every call, rate 0 disables the site). Call counters are
    atomic, so worker domains can draw concurrently.

    Fault kinds consulted by the codebase:
    - [io_crash] — {!Artifact.write} dies after flushing half the
      payload to its temp file (the destination is never replaced);
    - [io_corrupt] — {!Artifact.write} flips one payload byte after
      checksumming, so the next read reports a checksum mismatch;
    - [bench_fail] — [Tuner.Dataset] benchmark measurements fail. *)

exception Injected of string
(** Raised by write paths honouring [io_crash] when the fault fires.
    Simulates the process dying mid-operation. *)

val configure : string -> unit
(** [configure spec] replaces the active fault table; [""] disables all
    faults and resets counters. Called automatically at startup with
    [ISAAC_FAULTS]. Raises [Invalid_argument] on a malformed spec. Not
    domain-safe: configure before spawning workers (tests only). *)

val fire : string -> bool
(** [fire kind] advances [kind]'s counter and reports whether this call
    should fault. Always [false] for unarmed kinds. *)
