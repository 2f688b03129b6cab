type arch = Maxwell | Pascal

type t = {
  name : string;
  arch : arch;
  sm_count : int;
  cores_per_sm : int;
  clock_ghz : float;
  dram_bw_gbs : float;
  l2_bytes : int;
  shared_per_sm : int;
  shared_per_block_max : int;
  regs_per_sm : int;
  regs_per_thread_max : int;
  max_threads_per_sm : int;
  max_threads_per_block : int;
  max_blocks_per_sm : int;
  warp_size : int;
  fma_latency : float;
  mem_latency : float;
  shared_bw_bytes_per_clk : int;
  fp64_ratio : float;
  has_fp16x2 : bool;
  atom_cycles : float;
  launch_overhead_us : float;
}

let gtx980ti =
  { name = "GTX 980 Ti";
    arch = Maxwell;
    sm_count = 22;
    cores_per_sm = 128;
    clock_ghz = 1.029;              (* sustained: 2816 * 2 * 1.029 = 5.8 TFLOPS *)
    dram_bw_gbs = 336.0;
    l2_bytes = 3 * 1024 * 1024;
    shared_per_sm = 96 * 1024;
    shared_per_block_max = 48 * 1024;
    regs_per_sm = 65536;
    regs_per_thread_max = 255;
    max_threads_per_sm = 2048;
    max_threads_per_block = 1024;
    max_blocks_per_sm = 32;
    warp_size = 32;
    fma_latency = 6.0;
    mem_latency = 370.0;
    shared_bw_bytes_per_clk = 128;
    fp64_ratio = 1.0 /. 32.0;
    has_fp16x2 = false;
    atom_cycles = 2.5;
    launch_overhead_us = 4.0 }

let p100 =
  { name = "Tesla P100";
    arch = Pascal;
    sm_count = 56;
    cores_per_sm = 64;
    clock_ghz = 1.353;              (* 3584 * 2 * 1.353 = 9.7 TFLOPS *)
    dram_bw_gbs = 732.0;
    l2_bytes = 4 * 1024 * 1024;
    shared_per_sm = 64 * 1024;
    shared_per_block_max = 48 * 1024;
    regs_per_sm = 65536;
    regs_per_thread_max = 255;
    max_threads_per_sm = 2048;
    max_threads_per_block = 1024;
    max_blocks_per_sm = 32;
    warp_size = 32;
    fma_latency = 6.0;
    mem_latency = 440.0;
    shared_bw_bytes_per_clk = 128;
    fp64_ratio = 0.5;
    has_fp16x2 = true;
    atom_cycles = 2.0;
    launch_overhead_us = 4.0 }

let all = [ gtx980ti; p100 ]

(* Two views of data-type speed. [flops_rate] scales peak flops: fp16x2
   doubles flops on devices with the instruction; elsewhere fp16 runs at
   the fp32 rate (promoted, or two-op emulation of packed kernels).
   [instr_rate] scales *instruction* throughput, which is what the timing
   model divides instruction counts by: a packed-fp16 kernel on a device
   without fp16x2 issues at half rate (each packed FMA costs two fp32
   FMAs), cancelling its halved instruction count. *)
let flops_rate t (dtype : Ptx.Types.dtype) ~vectorized =
  match dtype with
  | F32 -> 1.0
  | F64 -> t.fp64_ratio
  | F16 -> if vectorized && t.has_fp16x2 then 2.0 else 1.0

let instr_rate t (dtype : Ptx.Types.dtype) ~vectorized =
  match dtype with
  | F32 -> 1.0
  | F64 -> t.fp64_ratio
  | F16 -> if vectorized then (if t.has_fp16x2 then 1.0 else 0.5) else 1.0

let peak_tflops t dtype ~vectorized =
  let cores = float_of_int (t.sm_count * t.cores_per_sm) in
  2.0 *. cores *. t.clock_ghz *. flops_rate t dtype ~vectorized /. 1000.0

let fma_warp_throughput t dtype ~vectorized =
  float_of_int t.cores_per_sm /. float_of_int t.warp_size *. instr_rate t dtype ~vectorized
