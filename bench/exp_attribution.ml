(* Model-vs-counter attribution: sample verified GEMM/CONV configurations
   on small shapes, execute each kernel under the interpreter, and
   correlate every Perf_model cost term against its emulated hardware
   counter (Gpu.Attribution). Shapes are small enough that the
   interpreter — the reproduction's ground truth — really runs every
   kernel; configs and shapes both vary, so each cost term sweeps a wide
   dynamic range and a healthy model shows r close to 1 with low drift. *)

module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params

let device = Gpu.Device.p100

let gemm_shapes =
  [ GP.input 16 16 16;
    GP.input 32 32 32;
    GP.input 64 32 32;
    GP.input ~b_trans:true 32 64 32;
    GP.input 64 64 64;
    GP.input 96 96 96 ]

let conv_shapes =
  [ CP.input ~n:2 ~c:8 ~k:16 ~p:8 ~q:8 ~r:3 ~s:3 ();
    CP.input ~n:1 ~c:16 ~k:32 ~p:6 ~q:6 ~r:3 ~s:3 ();
    CP.input ~n:4 ~c:16 ~k:32 ~p:12 ~q:12 ~r:3 ~s:3 () ]

let per_shape () = Util.Env_config.int "ISAAC_ATTR_PER_SHAPE" 8

(* Draw up to [n] distinct verified configurations for one shape. *)
let sample_configs rng ~legal ~verify n =
  let space = Tuner.Config_space.gemm in
  let sampler = Tuner.Sampler.fit ~warmup:2000 rng space ~legal in
  let seen = Hashtbl.create 16 in
  let rec go acc remaining tries =
    if remaining = 0 || tries = 0 then List.rev acc
    else
      match Tuner.Sampler.sample_verified rng sampler ~legal ~verify with
      | None -> List.rev acc
      | Some flat ->
        let key = Array.to_list flat in
        if Hashtbl.mem seen key then go acc remaining (tries - 1)
        else begin
          Hashtbl.add seen key ();
          go (flat :: acc) (remaining - 1) (tries - 1)
        end
  in
  go [] n (20 * n)

(* A served plan's kernel identity (the generated program's structural
   hash), carried on each sample so outliers can be matched against the
   plans that serve the same kernel. *)
let hash_of program = Some (Ptx.Program.hash program)

let gemm_samples rng input =
  let legal = Tuner.Dataset.gemm_legal device input in
  let verify = Tuner.Dataset.gemm_static_ok input in
  let a = Array.init (input.GP.m * input.GP.k) (fun _ -> Util.Rng.uniform rng) in
  let b = Array.init (input.GP.k * input.GP.n) (fun _ -> Util.Rng.uniform rng) in
  List.filter_map
    (fun flat ->
      let cfg = GP.config_of_array flat in
      match Gpu.Perf_model.predict device (GP.cost input cfg) with
      | None -> None
      | Some report ->
        let _, counters = Codegen.Gemm.run_counted input cfg ~a ~b () in
        Some
          { Gpu.Attribution.label =
              Printf.sprintf "gemm %dx%dx%d %s" input.m input.n input.k
                (GP.describe cfg);
            kernel_hash = hash_of (Codegen.Gemm.generate input cfg);
            report; counters })
    (sample_configs rng ~legal ~verify (per_shape ()))

let conv_samples rng input =
  let legal = Tuner.Dataset.conv_legal device input in
  let verify = Tuner.Dataset.conv_static_ok input in
  let image =
    Array.init
      (input.CP.n * input.CP.c * CP.h input * CP.w input)
      (fun _ -> Util.Rng.uniform rng)
  in
  let filter =
    Array.init (CP.crs input * input.CP.k) (fun _ -> Util.Rng.uniform rng)
  in
  List.filter_map
    (fun flat ->
      let cfg = GP.config_of_array flat in
      match Gpu.Perf_model.predict device (CP.cost input cfg) with
      | None -> None
      | Some report ->
        let _, counters = Codegen.Conv.run_counted input cfg ~image ~filter in
        Some
          { Gpu.Attribution.label = CP.describe_name input cfg;
            kernel_hash = hash_of (Codegen.Conv.generate input cfg);
            report; counters })
    (sample_configs rng ~legal ~verify (per_shape ()))

let run () =
  Reporting.print_header
    "Attribution: Perf_model cost terms vs interpreter counters (P100)";
  let rng = Engines.fresh_rng "attribution" in
  let samples =
    List.concat_map (gemm_samples rng) gemm_shapes
    @ List.concat_map (conv_samples rng) conv_shapes
  in
  let n = List.length samples in
  let distinct =
    let set = Hashtbl.create 64 in
    List.iter
      (fun (s : Gpu.Attribution.sample) ->
        Option.iter (fun h -> Hashtbl.replace set h ()) s.kernel_hash)
      samples;
    Hashtbl.length set
  in
  Printf.printf
    "%d verified configurations executed under the interpreter (%d distinct \
     kernel hashes)\n"
    n distinct;
  Reporting.metric ~experiment:"attribution" ~unit_:"kernels" ~n
    "attribution.distinct_kernels" (float_of_int distinct);
  if Util.Env_config.bool "ISAAC_ATTR_VERBOSE" false then
    Util.Table.print
      ~header:
        (Array.of_list
           ("configuration"
           :: List.concat_map
                (fun (p : Gpu.Attribution.pairing) -> [ p.term; p.counter ])
                Gpu.Attribution.pairings))
      (List.map
         (fun (s : Gpu.Attribution.sample) ->
           Array.of_list
             (s.label
             :: List.concat_map
                  (fun (p : Gpu.Attribution.pairing) ->
                    [ Printf.sprintf "%.3g" (p.term_of s.report);
                      Printf.sprintf "%.0f" (p.counter_of s.counters) ])
                  Gpu.Attribution.pairings))
         samples);
  let rows = Gpu.Attribution.correlate samples in
  Util.Table.print
    ~header:[| "cost term"; "counter"; "n"; "pearson r"; "s/unit"; "drift" |]
    (List.map
       (fun (r : Gpu.Attribution.row) ->
         [| r.term; r.counter; string_of_int r.n;
            Printf.sprintf "%.3f" r.pearson_r;
            Printf.sprintf "%.3g" r.scale;
            Printf.sprintf "%.2f" r.drift |])
       rows);
  Reporting.record_attribution rows;
  let find term =
    List.find (fun (r : Gpu.Attribution.row) -> r.term = term) rows
  in
  List.iter
    (fun (r : Gpu.Attribution.row) ->
      Reporting.metric
        ~experiment:"attribution" ~unit_:"r" ~n:r.n
        (Printf.sprintf "attribution.%s.pearson_r" r.term)
        r.pearson_r)
    rows;
  [ Reporting.check_min ~claim:"verified configs correlated"
      ~paper:"n/a (extension)" ~value:(float_of_int n) ~at_least:32.0;
    Reporting.check_min ~claim:"memory term tracks global transactions (r)"
      ~paper:"n/a (extension)" ~value:(find "mem_seconds").pearson_r
      ~at_least:0.8;
    Reporting.check_min ~claim:"arithmetic term tracks issue slots (r)"
      ~paper:"n/a (extension)" ~value:(find "arith_seconds").pearson_r
      ~at_least:0.6;
    Reporting.check_min ~claim:"shared term tracks shared transactions (r)"
      ~paper:"n/a (extension)" ~value:(find "shared_seconds").pearson_r
      ~at_least:0.6 ]
