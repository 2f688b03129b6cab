(* Kernel explorer: look inside the code generator.

   Prints the mini-PTX emitted for a small GEMM parameterization, its
   static instruction mix, the resource/occupancy picture on both
   devices, and the §8.3 bounds-checking comparison (predication vs
   divergent branches) with real dynamic instruction counts from the
   interpreter.

   Run with:  dune exec examples/kernel_explorer.exe *)

module GP = Codegen.Gemm_params

let () =
  let input = GP.input 100 100 64 in
  let config = { GP.ms = 2; ns = 2; ks = 1; ml = 16; nl = 16; u = 8; kl = 2;
                 kg = 2; vec = 1; db = 1 } in
  let program = Codegen.Gemm.generate input config in

  Printf.printf "=== Generated PTX for GEMM %dx%dx%d, %s ===\n\n" input.m input.n
    input.k (GP.describe config);
  let text = Ptx.Disasm.program program in
  (* The full listing is long; print the head and the loop skeleton. *)
  let lines = String.split_on_char '\n' text in
  List.iteri (fun i l -> if i < 40 then print_endline l) lines;
  Printf.printf "  ... (%d instructions total)\n" (Array.length program.body);

  let mix = Ptx.Analysis.of_program program in
  Printf.printf "\nStatic instruction mix: %d fma, %d ialu, %d ld.shared, %d st.shared, %d ld.global, %d bar\n"
    mix.fma mix.ialu mix.ld_shared mix.st_shared mix.ld_global mix.bar;

  (* Register allocation: the generator emits fresh virtual registers;
     liveness + linear scan recover the physical count a PTX assembler
     would use. *)
  let pr = Ptx.Liveness.pressure program in
  let allocated = Ptx.Regalloc.allocate program in
  Printf.printf
    "\nRegister allocation: %d/%d/%d virtual f/i/p regs -> MaxLive %d/%d/%d -> allocated %d/%d/%d\n"
    program.n_fregs program.n_iregs program.n_pregs pr.fregs pr.iregs pr.pregs
    allocated.n_fregs allocated.n_iregs allocated.n_pregs;

  (* Resource usage and what the occupancy calculator makes of it. *)
  Printf.printf "\n=== Resources and occupancy ===\n";
  let cost = GP.cost input config in
  Printf.printf "threads/block %d, regs/thread %d (cost-model estimate), shared %d B\n"
    cost.threads_per_block cost.regs_per_thread cost.shared_bytes;
  List.iter
    (fun device ->
      match Gpu.Perf_model.predict device cost with
      | Some r ->
        Printf.printf "  %-12s occupancy %4.0f%%, %2d blocks/SM, bound: %s, %.2f TFLOPS\n"
          device.Gpu.Device.name (100.0 *. r.occupancy) r.blocks_per_sm
          (Gpu.Perf_model.bound_name r.bound) r.tflops
      | None -> Printf.printf "  %-12s cannot launch\n" device.Gpu.Device.name)
    Gpu.Device.all;

  (* §8.3: bounds-checking strategies, functionally and in the model. *)
  Printf.printf "\n=== Bounds checking (paper section 8.3) ===\n";
  let rng = Util.Rng.create 3 in
  let a = Array.init (input.m * input.k) (fun _ -> Util.Rng.uniform rng) in
  let b = Array.init (input.k * input.n) (fun _ -> Util.Rng.uniform rng) in
  let reference = Codegen.Gemm.reference input ~a ~b in
  List.iter
    (fun (name, bounds) ->
      let out, counters = Codegen.Gemm.run_counted ~bounds input config ~a ~b () in
      let ok = Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) out reference in
      Printf.printf
        "  %-11s %8d dynamic instrs (%6d masked, %5d branches) -> %s\n" name
        (Ptx.Interp.total counters) counters.predicated_off counters.branch
        (if ok then "correct" else "WRONG");
      ignore bounds)
    [ ("predicated", GP.Predicated); ("branch", GP.Branch) ];
  (* For the timing-model comparison use a compute-bound production-size
     kernel (the tiny one above is latency-bound, so extra instructions
     hide in the bubbles — itself an instructive effect). *)
  let big = GP.input 2049 2049 2048 in
  let big_cfg = { GP.ms = 8; ns = 8; ks = 1; ml = 64; nl = 64; u = 8; kl = 1;
                  kg = 1; vec = 4; db = 2 } in
  let model_time bounds =
    match Gpu.Perf_model.predict Gpu.Device.p100 (GP.cost ~bounds big big_cfg) with
    | Some r -> r.seconds
    | None -> Float.nan
  in
  let base = model_time GP.Unchecked in
  Printf.printf
    "  timing model overhead vs unchecked: predication %+.1f%%, branches %+.1f%%\n"
    (100.0 *. (model_time GP.Predicated /. base -. 1.0))
    (100.0 *. (model_time GP.Branch /. base -. 1.0))
