(* What every workload receives and returns. *)

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  gemm_profile : string;
  conv_profile : string;
}

type result = {
  attempted : int;
  failed : int;
  latencies : float array;
      (** untraced op latencies, raw wall seconds, in op order *)
  calib_every : int;
      (** ops per block between two {!Calib} readings *)
  traced : float array;
      (** trace mode: the same ops' entry-point call under tracing *)
  tail_q : float;
      (** the percentile [tail_ms] reports: the highest with at least ten
          samples beyond it at the workload's minimum op count *)
  min_ops : int;
  setup_s : float;  (** at reference speed, see {!Calib} *)
  setup_raw_s : float;
  speedup : float;
  mse : float;
  counts : (string * float) list;
      (** per-layer counts, taken over the workload's fixed op prefix so
          they depend only on the seed *)
  entry : string;
      (** span name of the op's entry-point call; its self time is what
          the replayed layers leave unexplained *)
  coverage_floor : float;
      (** trace mode fails below this share of untraced op time covered
          by the replayed layers *)
  digest : (string * string) list;
      (** hex digests of the request sequence and of every chosen plan
          or output in the fixed op prefix *)
  notes : (string * Obs.Json.t) list;
}

(* Deterministic per-(seed, purpose) generator. *)
let rng ctx purpose = Util.Rng.create (Hashtbl.hash (ctx.seed, purpose))

let hex s = Digest.to_hex (Digest.string s)

(* The highest whole percentile with at least ten samples beyond it
   when a run makes [n] ops. *)
let tail_q_for n =
  let rec go pct =
    if pct <= 50 || Measure.beyond n (float_of_int pct /. 100.0) >= 10 then
      float_of_int pct /. 100.0
    else go (pct - 1)
  in
  go 99

(* Run [op i] for i = 0, 1, ... in whole passes of [pass] ops: at least
   [min_passes], and a further pass only while it is expected to end
   within [seconds] of the start. Whole passes keep the op mix of a run
   identical on every commit, whatever its speed. A {!Calib} reading
   precedes every block of [calib_every] ops and follows the last one.
   Returns the op count. *)
let run_passes ~seconds ~pass ~min_passes ~calib_every op =
  let t0 = Measure.now_ns () in
  let i = ref 0 and passes = ref 0 in
  let more () =
    !passes < min_passes
    ||
    let el = Measure.since t0 in
    el +. (el /. float_of_int !passes) <= seconds
  in
  while more () do
    for _ = 1 to pass do
      if !i mod calib_every = 0 then Calib.reading ();
      op !i;
      incr i
    done;
    incr passes
  done;
  Calib.reading ();
  !i

(* One op: [untraced ()] alone, or in trace mode paired with
   [traced ()], alternating which goes first so that neither always
   inherits the other's garbage. Returns [untraced]'s result. *)
let paired (ctx : ctx) i ~untraced ~traced =
  if not ctx.trace then untraced ()
  else if i mod 2 = 0 then begin
    let r = untraced () in
    traced ();
    r
  end
  else begin
    traced ();
    untraced ()
  end

(* Median of [reps] timed runs of a set-up step that takes milliseconds,
   at reference speed and raw. *)
let median_setup ~reps f =
  let times = Array.init reps (fun _ -> Calib.timed_steps [ f ]) in
  (Measure.median (Array.map fst times), Measure.median (Array.map snd times))
