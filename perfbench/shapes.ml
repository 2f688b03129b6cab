(* The inputs the workloads draw from, and their wire encoding. *)

module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params

type t = Gemm of GP.input | Conv of CP.input

let device = Gpu.Device.p100

(* Table 4 on the P100 (fp32 and mixed precision, DeepBench M = K =
   2560) and Table 5 (fp32 and fp16): 62 distinct shapes. *)
let table =
  let gemm suite = List.map (fun (t : Workloads.Gemm_suites.task) -> Gemm t.input) suite in
  let conv dtype =
    List.map (fun (t : Workloads.Conv_suites.task) -> Conv t.input)
      (Workloads.Conv_suites.suite dtype)
  in
  Array.of_list
    (List.sort_uniq compare
       (gemm (Workloads.Gemm_suites.fp32_suite ~mk:2560)
        @ gemm (Workloads.Gemm_suites.mixed_suite ~mk:2560)
        @ conv Ptx.Types.F32 @ conv Ptx.Types.F16))

(* One training step of every network in [Workloads.Networks.all], in
   execution order: 29 layers over 22 distinct shapes. *)
let network_step =
  Workloads.Networks.all Ptx.Types.F32
  |> List.concat_map (fun (net : Workloads.Networks.network) -> net.layers)
  |> List.map (fun (_, layer) ->
         match layer with
         | Workloads.Networks.Gemm i -> Gemm i
         | Workloads.Networks.Conv i -> Conv i)
  |> Array.of_list

let distinct shapes = Array.of_list (List.sort_uniq compare (Array.to_list shapes))

let request ~id = function
  | Gemm i ->
    Printf.sprintf
      {|{"op":"gemm","id":%d,"m":%d,"n":%d,"k":%d,"dtype":"%s","a_trans":%b,"b_trans":%b}|}
      id i.m i.n i.k (Ptx.Types.dtype_name i.dtype) i.a_trans i.b_trans
  | Conv i ->
    Printf.sprintf
      {|{"op":"conv","id":%d,"n":%d,"c":%d,"k":%d,"p":%d,"q":%d,"r":%d,"s":%d,"stride":%d,"pad":%d,"dtype":"%s"}|}
      id i.n i.c i.k i.p i.q i.r i.s i.stride i.pad (Ptx.Types.dtype_name i.dtype)

let describe = function
  | Gemm i ->
    Printf.sprintf "gemm %dx%dx%d %s%s%s" i.m i.n i.k (Ptx.Types.dtype_name i.dtype)
      (if i.a_trans then " at" else "") (if i.b_trans then " bt" else "")
  | Conv i ->
    Printf.sprintf "conv n%d c%d k%d p%d q%d r%d s%d st%d pad%d %s" i.n i.c i.k i.p
      i.q i.r i.s i.stride i.pad (Ptx.Types.dtype_name i.dtype)

let legal shape (c : GP.config) =
  let a = GP.config_to_array c in
  match shape with
  | Gemm i -> Tuner.Dataset.gemm_legal device i a
  | Conv i -> Tuner.Dataset.conv_legal device i a

(* TFLOPS of the vendor library's heuristic pick on the same simulated
   device — cuBLAS for GEMM, cuDNN for CONV. The measurement noise is
   seeded by the shape, so the figure does not depend on request order. *)
let vendor_tflops shape =
  let rng = Util.Rng.create (Hashtbl.hash ("perfbench.vendor", shape)) in
  match shape with
  | Gemm i -> Option.map (fun (_, (m : Gpu.Executor.measurement)) -> m.tflops)
                (Baselines.Cublas.heuristic rng device i)
  | Conv i -> Option.map (fun (_, (m : Gpu.Executor.measurement)) -> m.tflops)
                (Baselines.Cudnn.heuristic rng device i)
