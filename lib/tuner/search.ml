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

(* --- configuration codes --------------------------------------------------- *)

(* The GEMM grid, parameter by parameter in [GP.config_of_array] order:
   the value arrays the enumerator walks. *)
let grid =
  [| GP.values_ms; GP.values_ns; GP.values_ks; GP.values_ml; GP.values_nl;
     GP.values_u; GP.values_kl; GP.values_kg; GP.values_vec; GP.values_db |]

let nparams = Array.length grid

(* A configuration as one int, its code: parameter [j]'s index into
   [grid.(j)] in a bit field of [field_bits.(j)] bits at [shift.(j)],
   [ms] lowest. The grid needs 22 bits, so a code fits the 4-byte rows
   of a legality-class entry. *)
let field_bits =
  Array.map
    (fun values ->
      let rec bits b = if 1 lsl b >= Array.length values then b else bits (b + 1) in
      bits 0)
    grid

let shift =
  let s = Array.make nparams 0 in
  for j = 1 to nparams - 1 do
    s.(j) <- s.(j - 1) + field_bits.(j - 1)
  done;
  s

let mask = Array.map (fun b -> (1 lsl b) - 1) field_bits

let () = assert (shift.(nparams - 1) + field_bits.(nparams - 1) <= 31)

let config_of_code code =
  let v j = grid.(j).((code lsr shift.(j)) land mask.(j)) in
  { GP.ms = v 0; ns = v 1; ks = v 2; ml = v 3; nl = v 4; u = v 5; kl = v 6;
    kg = v 7; vec = v 8; db = v 9 }

type codes = Mlp.Network.codes

let codes n : codes = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n

(* --- pruned enumeration -------------------------------------------------- *)

let min_of a = Array.fold_left min a.(0) a
let max_of a = Array.fold_left max a.(0) a

(* [f i values.(i)] for every index of [values], last first. *)
let iter_down f values =
  for i = Array.length values - 1 downto 0 do
    f i (Array.unsafe_get values i)
  done

(* The K-split checks [k] passes, as a bit set over the grid's (kg, u)
   pairs: bit [ig * |values_u| + iu] is set when
   [kg = 1 || ceil (k / kg) >= u] for [kg = values_kg.(ig)] and
   [u = values_u.(iu)]. The walk below reads [k] only through these
   bits. *)
let ksplit_mask k =
  let nu = Array.length GP.values_u in
  let m = ref 0 in
  Array.iteri
    (fun ig kg ->
      Array.iteri
        (fun iu u ->
          if kg = 1 || (k + kg - 1) / kg >= u then
            m := !m lor (1 lsl ((ig * nu) + iu)))
        GP.values_u)
    GP.values_kg;
  !m

(* Bound-pruned enumeration of the legal GEMM lattice, specialized to
   the grid's parameter order (ms, ns, ks, ml, nl, u, kl, kg, vec, db).
   One nested loop per parameter walks the grid depth-first; each check
   runs at the outermost loop level where its inputs are known, and
   skips the whole subtree below that level when it fails. Loop-invariant work (thread counts,
   staging divisions, register bounds) is hoisted out of the inner
   loops; at ~10^5 legal points, re-deriving it per node would be most
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

   The input enters only through its dtype and the K-split bits of its
   [k] ([ksplit_mask]), so inputs that agree on both have one legal set:
   the legality class the planner memoizes. Every level runs its values
   last first, so leaves arrive in reverse grid order, the order
   callers see, each as its code. *)
let walk_legal_gemm device ~dtype ~ksplit ~emit =
  let bytes = Ptx.Types.dtype_bytes dtype in
  let shared_max = device.Gpu.Device.shared_per_block_max in
  let regs_max = device.Gpu.Device.regs_per_thread_max in
  let regs_sm = device.Gpu.Device.regs_per_sm in
  let max_threads = min 1024 device.Gpu.Device.max_threads_per_block in
  let warp = device.Gpu.Device.warp_size in
  let min_u = min_of GP.values_u in
  let max_kl = max_of GP.values_kl in
  let nu = Array.length GP.values_u in
  let f16 = dtype = Ptx.Types.F16 in
  (* Registers per value is minimized by the vectorized-fp16 variant, so
     rv_min is a lower bound over the still-free [vec] (and exact for
     F32/F64, whose width never depends on vec). *)
  let rv_min =
    match dtype with
    | Ptx.Types.F64 -> 2.0
    | Ptx.Types.F32 -> 1.0
    | Ptx.Types.F16 -> 0.5
  in
  iter_down (fun ims ms ->
  let c = ims lsl shift.(0) in
  iter_down (fun ins ns ->
  let c = c lor (ins lsl shift.(1)) in
  iter_down (fun iks ks ->
  let c = c lor (iks lsl shift.(2)) in
  iter_down (fun iml ml ->
  if ml mod ms = 0 then
  let c = c lor (iml lsl shift.(3)) in
  iter_down (fun inl nl ->
  if nl mod ns = 0 then begin
    let c = c lor (inl lsl shift.(4)) in
    let mn = ml / ms * (nl / ns) in
    (* threads = mn * kl with kl >= 1, so mn alone already busts the
       cap; and even the largest kl cannot reach a full warp. Staging
       needs (ml+nl)*u*db shared words with db >= 1, u >= min_u. *)
    if mn <= max_threads && mn * max_kl >= 32
       && (ml + nl) * min_u * bytes <= shared_max
    then
      iter_down (fun iu u ->
      (* Exact staging lower bound once u is known (db >= 1). *)
      if (ml + nl) * u * bytes <= shared_max then begin
        let c = c lor (iu lsl shift.(5)) in
        let la = ml * u and lb = nl * u in
        iter_down (fun ikl kl ->
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
          let c = c lor (ikl lsl shift.(6)) in
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
            iter_down (fun ikg _kg ->
            (* A grid split must leave a full prefetch iteration: the
               K-split bit of (kg, u). *)
            if ksplit land (1 lsl ((ikg * nu) + iu)) <> 0 then
              let c = c lor (ikg lsl shift.(7)) in
              iter_down (fun ivec vec ->
              (* Staging must divide between threads in whole vectors;
                 vec also fixes fp16x2 vectorization, making the
                 register estimate exact (F32/F64 were exact above). *)
              if lat mod vec = 0 && lbt mod vec = 0
                 && ((not f16) || vec >= 2 || regs_novec_ok)
              then
                let c = c lor (ivec lsl shift.(8)) in
                iter_down (fun idb db ->
                (* Exact staging footprint; the kl > 1 reduction
                   scratch was checked at the kl level, and
                   [shared_words] is the max of the two. *)
                if (ml + nl) * u * db * bytes <= shared_max then
                  emit (c lor (idb lsl shift.(9))))
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

(* Every legal code of a class in caller-facing order, in a buffer that
   doubles as it fills, and how many there are. *)
let legal_codes device ~dtype ~ksplit =
  let buf = ref (codes 4096) and n = ref 0 in
  walk_legal_gemm device ~dtype ~ksplit ~emit:(fun code ->
      if !n = Bigarray.Array1.dim !buf then begin
        let bigger = codes (2 * !n) in
        Bigarray.Array1.blit !buf (Bigarray.Array1.sub bigger 0 !n);
        buf := bigger
      end;
      Bigarray.Array1.unsafe_set !buf !n (Int32.of_int code);
      incr n);
  (!buf, !n)

let legal_gemm_config_array device (i : GP.input) =
  let all, n = legal_codes device ~dtype:i.dtype ~ksplit:(ksplit_mask i.k) in
  Array.init n (fun j -> config_of_code (Int32.to_int all.{j}))

(* CONV legality is GEMM legality of the implicit-GEMM view:
   [CP.structurally_legal] delegates to it, and [CP.cost] keeps the base
   record's per-block resource fields untouched. *)
let legal_conv_config_array device (i : CP.input) =
  legal_gemm_config_array device (CP.gemm_input i)

(* Reference enumeration: one unpruned pass over the whole space, with
   legality decided by building the full cost record — the original
   semantics, the differential baseline for the pruned walk. Results
   are reversed so they come in the reverse grid order the walk
   emits. *)
let legal_configs_reference ~structurally_legal ~cost device =
  let legal = ref [] in
  Config_space.iter Config_space.gemm (fun arr ->
      let cfg = GP.config_of_array arr in
      if structurally_legal cfg && Gpu.Executor.legal device (cost cfg) then
        legal := cfg :: !legal);
  Array.of_list !legal

let legal_gemm_config_array_ref device (i : GP.input) =
  legal_configs_reference device
    ~structurally_legal:(fun c -> GP.structurally_legal i c)
    ~cost:(fun c -> GP.cost i c)

let legal_conv_config_array_ref device (i : CP.input) =
  legal_configs_reference device
    ~structurally_legal:(fun c -> CP.structurally_legal i c)
    ~cost:(fun c -> CP.cost i c)

(* The model-quality channel is fed by the rebench stage, where every
   model prediction meets a real measurement. Inputs are bucketed by
   FLOP magnitude so drift localizes to a size region rather than
   washing out in a global average. *)
let flops_bucket flops =
  if not (Float.is_finite flops) || flops <= 0.0 then "na"
  else Printf.sprintf "2^%d" (snd (Float.frexp flops) - 1)

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

(* --- legality classes ------------------------------------------------------ *)

(* A legality class: the inputs one walk serves. The walk reads the
   device, and an input only through its dtype and K-split bits, and
   the scored rows also depend on the cap, so equal keys mean equal
   entries. *)
type class_key = {
  device : Gpu.Device.t;
  dtype : Ptx.Types.dtype;
  ksplit : int;
  cap : int;
}

(* A class's legal-set size and its scored rows, as codes: row [r] is
   legal configuration [r * stride] in caller-facing order. *)
type class_entry = { n_legal : int; rows : codes }

let class_entry (key : class_key) =
  let all, n_legal = legal_codes key.device ~dtype:key.dtype ~ksplit:key.ksplit in
  let stride = subsample_stride ~cap:key.cap n_legal in
  let rows = codes ((n_legal + stride - 1) / stride) in
  for r = 0 to Bigarray.Array1.dim rows - 1 do
    Bigarray.Array1.unsafe_set rows r (Bigarray.Array1.unsafe_get all (r * stride))
  done;
  { n_legal; rows }

type planner = (class_key, class_entry) Plan_cache.t

let planner () = Plan_cache.create ()

(* Each tuning parameter's standardized feature values under
   [profile], indexed as its field of a code indexes them: table [j]
   has [2^field_bits.(j)] entries, and the codes' fields are packed
   lowest first in parameter order, the layout
   {!Mlp.Network.predict_codes} reads. Entries no value uses stay 0. *)
let tuning_tables profile =
  let log = profile.Profile.log_features in
  Array.mapi
    (fun j values ->
      let table = Array.make (1 lsl field_bits.(j)) 0.0 in
      Array.iteri
        (fun i v ->
          table.(i) <-
            Profile.standardize_feature profile (Features.input_dim + j)
              (Features.tuning_slot ~log v))
        values;
      table)
    grid

let t_class_hit = Obs.Telemetry.counter "search.class_hit"
let t_class_miss = Obs.Telemetry.counter "search.class_miss"

(* The §6 pipeline, one span per phase. Enumeration is a lookup of the
   input's legality class in the planner's memo, which walks the
   lattice on a miss. Scoring never materializes the scored set: row
   [row] of the class entry is a code, which the network scores in
   place from the request's standardized static slots and the
   profile's [tuning_tables] ({!Mlp.Network.predict_codes}). Row ranges
   fan across domains; rows are independent, so the result is
   identical for any domain count. Config records are built for the
   top-k rows only. *)
let exhaustive ~op ~gemm_view ~query ~cost ?(top_k = 100) ?cap ?noise
    ?domains ?planner:given rng device ~profile =
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
  let classes = match given with Some p -> p | None -> planner () in
  let key =
    { device; dtype = gemm_view.GP.dtype; ksplit = ksplit_mask gemm_view.GP.k;
      cap }
  in
  let outcome = ref Plan_cache.Miss in
  let e, t_enum =
    Obs.Span.with_dur "search.enumerate"
      ~meta:(fun () ->
        [ ("class", Obs.Json.String (Plan_cache.outcome_name !outcome)) ])
      (fun () ->
        let e, o, _ =
          Plan_cache.find_or_compute classes key (fun () -> class_entry key)
        in
        outcome := o;
        e)
  in
  if Obs.Telemetry.enabled () then
    Obs.Telemetry.Counter.incr
      (match !outcome with
       | Plan_cache.Miss -> t_class_miss
       | Plan_cache.Hit | Plan_cache.Coalesced -> t_class_hit);
  if e.n_legal = 0 then None
  else begin
    let n = Bigarray.Array1.dim e.rows in
    (* Worker domains start with empty DLS — hand them the caller's
       request id so their spans/flight events correlate with the plan
       request that spawned them. *)
    let req = Obs.Span.current_request () in
    let (shared, tables), t_feat =
      Obs.Span.with_dur "search.featurize" (fun () ->
          ( Array.mapi (Profile.standardize_feature profile)
              (Features.static_slots query),
            tuning_tables profile ))
    in
    let pred, t_inf =
      Obs.Span.with_dur "search.inference"
        ~meta:(fun () ->
          [ ("n_legal", Obs.Json.Int e.n_legal); ("n_scored", Obs.Json.Int n);
            ("domains", Obs.Json.Int domains);
            ("lanes", Obs.Json.Int Mlp.Network.lanes) ])
        (fun () ->
          match
            Util.Parallel.run_chunks ~domains ~total:n
              (fun ~chunk:_ ~offset ~size ->
                Obs.Span.set_request req;
                Mlp.Network.predict_codes profile.Profile.net ~shared ~tables
                  e.rows ~off:offset ~len:size)
          with
          | [ pred ] -> pred
          | chunks -> Array.concat chunks)
    in
    let candidates, t_argmax =
      Obs.Span.with_dur "search.argmax" (fun () ->
          Array.map
            (fun row ->
              { config = config_of_code (Int32.to_int e.rows.{row});
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
          n_legal = e.n_legal;
          n_scored = n;
          phases =
            [ ("enumerate", t_enum); ("featurize", t_feat);
              ("inference", t_inf); ("argmax", t_argmax);
              ("rebench", t_rebench) ] }
  end

let exhaustive_gemm ?top_k ?cap ?noise ?domains ?planner rng device ~profile
    (i : GP.input) =
  exhaustive ?top_k ?cap ?noise ?domains ?planner rng device ~profile ~op:"gemm"
    ~gemm_view:i
    ~query:(Features.gemm_query ~log:profile.Profile.log_features i)
    ~cost:(fun cfg -> GP.cost i cfg)

let exhaustive_conv ?top_k ?cap ?noise ?domains ?planner rng device ~profile
    (i : CP.input) =
  exhaustive ?top_k ?cap ?noise ?domains ?planner rng device ~profile ~op:"conv"
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
