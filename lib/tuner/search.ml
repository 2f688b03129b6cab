module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params

type candidate = {
  config : GP.config;
  predicted_tflops : float;
}

type result = {
  best : GP.config;
  best_measurement : Gpu.Executor.measurement;
  candidates : candidate array;
  n_legal : int;
  n_scored : int;
  phases : (string * float) list;
}

(* Growable push into an array (the space has tens of thousands of legal
   points; consing a list and converting later doubles the allocation).
   Results are reversed by the enumerators so callers keep seeing the
   reverse-grid order the historical list API always produced. *)
let grow_push buf n cfg =
  if !n = Array.length !buf then begin
    let bigger = Array.make (max 1024 (2 * !n)) cfg in
    Array.blit !buf 0 bigger 0 !n;
    buf := bigger
  end;
  !buf.(!n) <- cfg;
  incr n

let rev_of buf n = Array.init n (fun i -> buf.(n - 1 - i))

(* --- pruned enumeration -------------------------------------------------- *)

let min_of a = Array.fold_left min a.(0) a
let max_of a = Array.fold_left max a.(0) a

(* Bound-pruned enumeration of the legal GEMM lattice, specialized to
   the grid's parameter order (ms, ns, ks, ml, nl, u, kl, kg, vec, db).
   The structure is {!Config_space.iter_pruned} with the pruning
   predicate inlined level by level, so every check runs at the
   outermost loop level where its inputs are known and loop-invariant
   work (thread counts, staging divisions, register bounds) is hoisted
   out of the inner loops — the generic walk pays a closure dispatch
   and re-derives these per node, which at ~10^5 legal points is most
   of the enumeration time.

   Soundness (never prune a legal leaf — DESIGN.md "Planning hot
   path"): a subtree is skipped only when an exact check on
   already-assigned parameters fails, or a monotone {e lower} bound on
   a resource (registers, shared memory, threads) computed from the
   assigned prefix and the minima/maxima of the still-free parameters
   already exceeds a device cap. A skipped region therefore contains
   no legal configuration, so it cannot contain the argmax over the
   legal set.

   Completeness (never let an illegal leaf survive): by the innermost
   loop every conjunct of [Gemm_params.structurally_legal] and
   [Gpu.Occupancy.legal] has been checked exactly — tile divisibility
   at the ml/nl levels, thread shape / K-splits / reduction scratch at
   the kl level, the grid split at the kg level, vector staging plus
   the exact register estimate at the vec level (vec decides the
   fp16x2 register width; for F32/F64 the kl-level bound is already
   exact), and the staging shared-memory footprint at the db level.
   Surviving leaves {e are} the legal set and are emitted without
   re-verification; the register and shared-memory arithmetic below
   deliberately mirrors [Gemm_params.regs_estimate] / [shared_words],
   and the differential tests in [test_tuner.ml] pin this enumerator
   to element-for-element equality with [legal_configs_reference]
   (which keeps the original build-the-cost-record semantics).

   Leaves are stored packed — [Config_space.num_params] ints per
   config in one flat int array, in forward grid order — so
   enumerating ~10^5 legal points allocates one flat array instead of
   promoting 10^5 short-lived records through the minor heap; config
   records are materialized later, and only for the top-k candidates:
   scoring reads each config's ten ints in place. The walk runs
   twice — once to count, once to fill an exactly-sized buffer —
   because the walk itself is a few percent of the cost of repeatedly
   growing (allocate + zero + copy, each large enough to pace a major
   GC slice) a doubling buffer in the major heap. *)
type packed_enum = { packed : int array; count : int }

(* The model-quality channel is fed by the rebench stage, where every
   model prediction meets a real measurement. Inputs are bucketed by
   FLOP magnitude so drift localizes to a size region rather than
   washing out in a global average. *)
let flops_bucket flops =
  if not (Float.is_finite flops) || flops <= 0.0 then "na"
  else Printf.sprintf "2^%d" (snd (Float.frexp flops) - 1)

let nparams = Config_space.num_params Config_space.gemm

(* One bound-pruned walk of the legal set; calls [emit] once per legal
   configuration, in forward grid order. *)
let walk_legal_gemm device (i : GP.input) ~emit =
  let bytes = Ptx.Types.dtype_bytes i.dtype in
  let shared_max = device.Gpu.Device.shared_per_block_max in
  let regs_max = device.Gpu.Device.regs_per_thread_max in
  let regs_sm = device.Gpu.Device.regs_per_sm in
  let max_threads = min 1024 device.Gpu.Device.max_threads_per_block in
  let warp = device.Gpu.Device.warp_size in
  let min_u = min_of GP.values_u in
  let max_kl = max_of GP.values_kl in
  let f16 = i.dtype = Ptx.Types.F16 in
  (* Registers per value is minimized by the vectorized-fp16 variant, so
     rv_min is a lower bound over the still-free [vec] (and exact for
     F32/F64, whose width never depends on vec). *)
  let rv_min =
    match i.dtype with
    | Ptx.Types.F64 -> 2.0
    | Ptx.Types.F32 -> 1.0
    | Ptx.Types.F16 -> 0.5
  in
  Array.iter (fun ms ->
  Array.iter (fun ns ->
  Array.iter (fun ks ->
  Array.iter (fun ml ->
  if ml mod ms = 0 then
  Array.iter (fun nl ->
  if nl mod ns = 0 then begin
    let mn = ml / ms * (nl / ns) in
    (* threads = mn * kl with kl >= 1, so mn alone already busts the
       cap; and even the largest kl cannot reach a full warp. Staging
       needs (ml+nl)*u*db shared words with db >= 1, u >= min_u. *)
    if mn <= max_threads && mn * max_kl >= 32
       && (ml + nl) * min_u * bytes <= shared_max
    then
      Array.iter (fun u ->
      (* Exact staging lower bound once u is known (db >= 1). *)
      if (ml + nl) * u * bytes <= shared_max then begin
        let la = ml * u and lb = nl * u in
        Array.iter (fun kl ->
        let threads = mn * kl in
        (* Thread-shape and K-split checks are exact from here on. *)
        if threads >= 32 && threads <= max_threads
           && threads mod 32 = 0 && threads mod warp = 0
           && u mod kl = 0
           && (u / kl) mod ks = 0
           && la mod threads = 0
           && lb mod threads = 0
           && not (kl > 1 && ml * nl * bytes > shared_max)
        then begin
          let lat = la / threads and lbt = lb / threads in
          let regs_of rv =
            int_of_float
              (Float.ceil
                 ((float_of_int (ms * ns * ks) *. rv)
                  +. (float_of_int (ms + ns) *. rv *. 2.0)
                  +. (float_of_int ((ml + nl) * u / threads) *. rv)
                  +. 24.0))
          in
          let regs_lb = regs_of rv_min in
          (* Exact register estimate of the non-vectorized F16 variant
             (vec = 1), hoisted out of the vec loop. *)
          let regs_novec_ok =
            (not f16)
            || (let r = regs_of 1.0 in
                r <= regs_max && r * threads <= regs_sm)
          in
          if regs_lb <= regs_max && regs_lb * threads <= regs_sm then
            Array.iter (fun kg ->
            (* A grid split must leave a full prefetch iteration. *)
            if kg = 1 || (i.k + kg - 1) / kg >= u then
              Array.iter (fun vec ->
              (* Staging must divide between threads in whole vectors;
                 vec also fixes fp16x2 vectorization, making the
                 register estimate exact (F32/F64 were exact above). *)
              if lat mod vec = 0 && lbt mod vec = 0
                 && ((not f16) || vec >= 2 || regs_novec_ok)
              then
                Array.iter (fun db ->
                (* Exact staging footprint; the kl > 1 reduction
                   scratch was checked at the kl level, and
                   [shared_words] is the max of the two. *)
                if (ml + nl) * u * db * bytes <= shared_max then
                  emit ms ns ks ml nl u kl kg vec db)
                GP.values_db)
              GP.values_vec)
            GP.values_kg
        end)
        GP.values_kl
      end)
      GP.values_u
  end)
  GP.values_nl)
  GP.values_ml)
  GP.values_ks)
  GP.values_ns)
  GP.values_ms

let legal_configs_fast_packed device (i : GP.input) =
  let count = ref 0 in
  walk_legal_gemm device i
    ~emit:(fun _ _ _ _ _ _ _ _ _ _ -> incr count);
  let total = !count in
  let buf = Array.make (total * nparams) 0 in
  let n = ref 0 in
  walk_legal_gemm device i
    ~emit:(fun ms ns ks ml nl u kl kg vec db ->
      let o = !n * nparams in
      Array.unsafe_set buf o ms;
      Array.unsafe_set buf (o + 1) ns;
      Array.unsafe_set buf (o + 2) ks;
      Array.unsafe_set buf (o + 3) ml;
      Array.unsafe_set buf (o + 4) nl;
      Array.unsafe_set buf (o + 5) u;
      Array.unsafe_set buf (o + 6) kl;
      Array.unsafe_set buf (o + 7) kg;
      Array.unsafe_set buf (o + 8) vec;
      Array.unsafe_set buf (o + 9) db;
      incr n);
  { packed = buf; count = total }

(* Config [j] in the caller-facing (reverse grid) order lives at packed
   slot [count - 1 - j]. *)
let packed_config e j =
  let o = (e.count - 1 - j) * nparams in
  let p = e.packed in
  { GP.ms = p.(o); ns = p.(o + 1); ks = p.(o + 2); ml = p.(o + 3);
    nl = p.(o + 4); u = p.(o + 5); kl = p.(o + 6); kg = p.(o + 7);
    vec = p.(o + 8); db = p.(o + 9) }

let legal_gemm_config_array device (i : GP.input) =
  let e = legal_configs_fast_packed device i in
  Array.init e.count (packed_config e)

(* CONV legality is GEMM legality of the implicit-GEMM view:
   [CP.structurally_legal] delegates to it, and [CP.cost] keeps the base
   record's per-block resource fields untouched. *)
let legal_conv_config_array device (i : CP.input) =
  legal_gemm_config_array device (CP.gemm_input i)

(* Reference enumeration: one unpruned pass over the whole space, with
   legality decided by building the full cost record — the original
   semantics, the differential baseline for the pruned walk. *)
let legal_configs_reference ~structurally_legal ~cost device =
  let buf = ref [||] and n = ref 0 in
  Config_space.iter Config_space.gemm (fun arr ->
      let cfg = GP.config_of_array arr in
      if structurally_legal cfg && Gpu.Executor.legal device (cost cfg) then
        grow_push buf n cfg);
  rev_of !buf !n

let legal_gemm_config_array_ref device (i : GP.input) =
  legal_configs_reference device
    ~structurally_legal:(fun c -> GP.structurally_legal i c)
    ~cost:(fun c -> GP.cost i c)

let legal_conv_config_array_ref device (i : CP.input) =
  legal_configs_reference device
    ~structurally_legal:(fun c -> CP.structurally_legal i c)
    ~cost:(fun c -> CP.cost i c)

let default_cap () = Util.Env_config.int "ISAAC_SEARCH_CAP" 60_000

(* Beyond the cap, every [stride]-th legal config is scored, where the
   stride is ceil(n/cap); within it, all of them. *)
let subsample_stride ~cap n = if n <= cap then 1 else (n + cap - 1) / cap

(* Ranking of scored rows: descending [Float.compare] of the
   predictions, ties to the lower row, so NaN ranks last and the two
   zeros tie. A total order on rows: the order [Array.stable_sort]
   gives. *)
let rank_compare pred a b =
  let c = Float.compare pred.(b) pred.(a) in
  if c <> 0 then c else Int.compare a b

(* A binary heap of the best [k] rows seen so far, rooted at the worst
   of them, then a sort of the [k] survivors. Rows arrive in ascending
   order, so a new row displaces the root only on a strictly greater
   prediction: most rows cost one comparison, against ~log n closure
   calls each in a full sort. *)
let top_k_indices ~k pred =
  let n = Array.length pred in
  let k = max 0 (min k n) in
  let heap = Array.init k Fun.id in
  let rec sift_down i =
    let l = (2 * i) + 1 in
    if l < k then begin
      let worse =
        if l + 1 < k && rank_compare pred heap.(l) heap.(l + 1) < 0 then l + 1
        else l
      in
      if rank_compare pred heap.(i) heap.(worse) < 0 then begin
        let t = heap.(i) in
        heap.(i) <- heap.(worse);
        heap.(worse) <- t;
        sift_down worse
      end
    end
  in
  if k > 0 then begin
    for i = (k / 2) - 1 downto 0 do
      sift_down i
    done;
    for row = k to n - 1 do
      if Float.compare pred.(row) pred.(heap.(0)) > 0 then begin
        heap.(0) <- row;
        sift_down 0
      end
    done;
    Array.sort (rank_compare pred) heap
  end;
  heap

(* The §6 pipeline, one span per phase. Scoring never materializes the
   scored set: row [row] is config [row * stride] in caller-facing
   order, featurized straight from its packed slot into one shared
   feature matrix through the per-query featurization cache, then
   standardized and forwarded as matrix-matrix work. Both fan row ranges
   across domains; rows are independent, so the result is identical for
   any domain count. Config records are built for the top-k rows only. *)
let exhaustive ~op ~gemm_view ~query ~cost ?(top_k = 100) ?cap ?noise
    ?domains rng device ~profile =
  let at_least_one what v =
    if v < 1 then
      invalid_arg
        (Printf.sprintf "Tuner.Search.exhaustive: %s = %d, must be >= 1" what v)
  in
  let cap =
    match cap with
    | Some c -> at_least_one "cap" c; c
    | None ->
      let c = default_cap () in
      at_least_one "ISAAC_SEARCH_CAP" c;
      c
  in
  at_least_one "top_k" top_k;
  let domains =
    match domains with
    | Some d -> d
    | None -> Util.Parallel.recommended_domains ()
  in
  let e, t_enum =
    Obs.Span.with_dur "search.enumerate" (fun () ->
        legal_configs_fast_packed device gemm_view)
  in
  if e.count = 0 then None
  else begin
    let stride = subsample_stride ~cap e.count in
    let n = (e.count + stride - 1) / stride in
    (* Worker domains start with empty DLS — hand them the caller's
       request id so their spans/flight events correlate with the plan
       request that spawned them. *)
    let req = Obs.Span.current_request () in
    let x, t_feat =
      Obs.Span.with_dur "search.featurize" (fun () ->
          let x = Mlp.Matrix.create n Features.dim in
          let (_ : unit list) =
            Util.Parallel.run_chunks ~domains ~total:n
              (fun ~chunk:_ ~offset ~size ->
                Obs.Span.set_request req;
                for row = offset to offset + size - 1 do
                  Features.fill_packed query e.packed
                    ~slot:(e.count - 1 - (row * stride))
                    x ~row
                done)
          in
          x)
    in
    let pred, t_inf =
      Obs.Span.with_dur "search.inference"
        ~meta:(fun () ->
          [ ("n_legal", Obs.Json.Int e.count); ("n_scored", Obs.Json.Int n);
            ("domains", Obs.Json.Int domains);
            ("lanes", Obs.Json.Int Mlp.Network.lanes) ])
        (fun () ->
          match
            Util.Parallel.run_chunks ~domains ~total:n
              (fun ~chunk:_ ~offset ~size ->
                Obs.Span.set_request req;
                Profile.predict_std_matrix profile
                  (Mlp.Matrix.sub_rows x ~off:offset ~len:size))
          with
          | [ pred ] -> pred
          | chunks -> Array.concat chunks)
    in
    let candidates, t_argmax =
      Obs.Span.with_dur "search.argmax" (fun () ->
          Array.map
            (fun row ->
              { config = packed_config e (row * stride);
                predicted_tflops =
                  Features.untarget profile.Profile.scaler pred.(row) })
            (top_k_indices ~k:top_k pred))
    in
    let flops =
      2.0 *. float_of_int gemm_view.GP.m *. float_of_int gemm_view.n
      *. float_of_int gemm_view.k
    in
    (* Re-benchmark the short-list on the device and keep the fastest. *)
    let best, t_rebench =
      Obs.Span.with_dur "search.rebench"
        ~meta:(fun () -> [ ("top_k", Obs.Json.Int (Array.length candidates)) ])
        (fun () ->
          let best = ref None in
          Array.iter
            (fun cand ->
              match
                Gpu.Executor.measure_best_of ?noise rng device (cost cand.config)
              with
              | None -> ()
              | Some m ->
                (* Every rebench pairs a model prediction with a fresh
                   measurement: feed the drift tracker. *)
                Obs.Telemetry.Model.record ~op ~bucket:(flops_bucket flops)
                  ~predicted:cand.predicted_tflops ~measured:m.tflops;
                if Obs.Trace.enabled () then
                  Obs.Trace.emit "config"
                    [ ("phase", Obs.Json.String "rebench");
                      ("config", Obs.Json.String (GP.describe cand.config));
                      ("predicted_tflops", Obs.Json.Float cand.predicted_tflops);
                      ("tflops", Obs.Json.Float m.tflops);
                      ("seconds", Obs.Json.Float m.seconds) ];
                (match !best with
                 | Some (_, bm) when bm.Gpu.Executor.seconds <= m.seconds -> ()
                 | _ -> best := Some (cand.config, m)))
            candidates;
          !best)
    in
    match best with
    | None -> None
    | Some (cfg, m) ->
      Some
        { best = cfg;
          best_measurement = m;
          candidates;
          n_legal = e.count;
          n_scored = n;
          phases =
            [ ("enumerate", t_enum); ("featurize", t_feat);
              ("inference", t_inf); ("argmax", t_argmax);
              ("rebench", t_rebench) ] }
  end

let exhaustive_gemm ?top_k ?cap ?noise ?domains rng device ~profile
    (i : GP.input) =
  exhaustive ?top_k ?cap ?noise ?domains rng device ~profile ~op:"gemm"
    ~gemm_view:i
    ~query:(Features.gemm_query ~log:profile.Profile.log_features i)
    ~cost:(fun cfg -> GP.cost i cfg)

let exhaustive_conv ?top_k ?cap ?noise ?domains rng device ~profile
    (i : CP.input) =
  exhaustive ?top_k ?cap ?noise ?domains rng device ~profile ~op:"conv"
    ~gemm_view:(CP.gemm_input i)
    ~query:(Features.conv_query ~log:profile.Profile.log_features i)
    ~cost:(fun cfg -> CP.cost i cfg)

let oracle_gemm device (i : GP.input) =
  let best = ref None in
  Array.iter
    (fun cfg ->
      match Gpu.Perf_model.predict device (GP.cost i cfg) with
      | None -> ()
      | Some report ->
        (match !best with
         | Some (_, br) when br.Gpu.Perf_model.seconds <= report.seconds -> ()
         | _ -> best := Some (cfg, report)))
    (legal_gemm_config_array device i);
  !best
