type input = {
  m : int;
  n : int;
  k : int;
  dtype : Ptx.Types.dtype;
  a_trans : bool;
  b_trans : bool;
}

type config = {
  ms : int;
  ns : int;
  ks : int;
  ml : int;
  nl : int;
  u : int;
  kl : int;
  kg : int;
  vec : int;
  db : int;
}

type bounds_mode = Predicated | Branch | Unchecked

type epilogue = Plain | Relu | Bias | Bias_relu

(* The largest dimension [cost] takes: 2^31 - 1, the [int] range of
   cuBLAS and cuDNN. [cost] multiplies grid extents in OCaml ints
   ([ceil_div], the grid product), which a larger dimension would wrap
   into a nonsense plan. *)
let max_dim = 0x7fff_ffff

let check_dim fn name v =
  if v > max_dim then
    invalid_arg (Printf.sprintf "%s: %S = %d is above %d" fn name v max_dim)

let input ?(dtype = Ptx.Types.F32) ?(a_trans = false) ?(b_trans = false) m n k =
  check_dim "Gemm_params.input" "m" m;
  check_dim "Gemm_params.input" "n" n;
  check_dim "Gemm_params.input" "k" k;
  { m; n; k; dtype; a_trans; b_trans }

let values_ms = [| 1; 2; 4; 8 |]
let values_ns = [| 1; 2; 4; 8 |]
let values_ks = [| 1; 2; 4 |]
let values_ml = [| 8; 16; 32; 64; 128 |]
let values_nl = [| 8; 16; 32; 64; 128 |]
let values_u = [| 4; 8; 16; 32 |]
let values_kl = [| 1; 2; 4; 8 |]
let values_kg = [| 1; 2; 4; 8; 16; 32; 64 |]
let values_vec = [| 1; 2; 4 |]
let values_db = [| 1; 2 |]

let config_of_array a =
  assert (Array.length a = 10);
  { ms = a.(0); ns = a.(1); ks = a.(2); ml = a.(3); nl = a.(4); u = a.(5);
    kl = a.(6); kg = a.(7); vec = a.(8); db = a.(9) }

let config_to_array c =
  [| c.ms; c.ns; c.ks; c.ml; c.nl; c.u; c.kl; c.kg; c.vec; c.db |]

let threads_per_block c = c.ml / c.ms * (c.nl / c.ns) * c.kl

let ceil_div a b = (a + b - 1) / b

let structurally_legal (i : input) (c : config) =
  let ok_tile = c.ml mod c.ms = 0 && c.nl mod c.ns = 0 in
  if not ok_tile then false
  else begin
    let threads = threads_per_block c in
    let ok_threads = threads >= 32 && threads <= 1024 && threads mod 32 = 0 in
    (* K_L splits the prefetched K-chunk between thread groups; K_S further
       splits each group's chunk into independent register chains. *)
    let ok_split = c.u mod c.kl = 0 && c.u / c.kl mod c.ks = 0 in
    (* Cooperative staging must divide evenly between threads, in whole
       vectors. *)
    let la = c.ml * c.u and lb = c.nl * c.u in
    let ok_stage =
      la mod threads = 0 && lb mod threads = 0
      && la / threads mod c.vec = 0
      && lb / threads mod c.vec = 0
    in
    (* A grid-level split must leave each z-slice at least one full
       prefetch iteration (input-dependent legality). *)
    let ok_kg = c.kg = 1 || ceil_div i.k c.kg >= c.u in
    ok_threads && ok_split && ok_stage && ok_kg
  end

let shared_words c =
  let staging = (c.ml + c.nl) * c.u * c.db in
  let scratch = if c.kl > 1 then c.ml * c.nl else 0 in
  max staging scratch

let regs_per_value (dtype : Ptx.Types.dtype) ~vectorized =
  match dtype with
  | F64 -> 2.0
  | F32 -> 1.0
  | F16 -> if vectorized then 0.5 else 1.0

let vectorized_fp16 (i : input) (c : config) = i.dtype = Ptx.Types.F16 && c.vec >= 2

let regs_estimate (i : input) (c : config) =
  let vectorized = vectorized_fp16 i c in
  let rv = regs_per_value i.dtype ~vectorized in
  let threads = threads_per_block c in
  let acc = float_of_int (c.ms * c.ns * c.ks) *. rv in
  let fragments = float_of_int (c.ms + c.ns) *. rv *. 2.0 in
  let staging = float_of_int ((c.ml + c.nl) * c.u / threads) *. rv in
  let addressing = 24.0 in
  int_of_float (Float.ceil (acc +. fragments +. staging +. addressing))

let bounds_overhead mode (i : input) (c : config) =
  let ragged =
    i.m mod c.ml <> 0 || i.n mod c.nl <> 0 || ceil_div i.k c.kg mod c.u <> 0
  in
  match mode with
  | Predicated -> 0.02
  (* Branches cost the comparison, the jump, divergence replay and the
     loss of uniform-issue scheduling around every guarded access. *)
  | Branch -> if ragged then 0.40 else 0.32
  | Unchecked -> 0.0

(* DRAM transaction efficiency: the extent (elements) of a staged tile
   along each operand's contiguous storage direction determines how much
   of each 128-byte line a warp consumes; panels are streamed along K so a
   large floor applies (lines left partially used by one iteration are
   finished by the next from L2). *)
let coalescing_parts (i : input) (c : config) =
  let b = float_of_int (Ptx.Types.dtype_bytes i.dtype) in
  let extent_a = if i.a_trans then c.ml else c.u in
  let extent_b = if i.b_trans then c.u else c.nl in
  let raw e = Float.min 1.0 (float_of_int e *. b /. 128.0) in
  (* Lines left partially consumed by one K-iteration are finished by the
     next from L2, so the floor is high. *)
  let dram e = Float.max 0.85 (raw e) in
  ( (dram extent_a +. dram extent_b) /. 2.0,
    (raw extent_a +. raw extent_b) /. 2.0 )

(* The inner loop reads shared memory in [u][ml] / [u][nl] order; if the
   global layout's contiguous direction disagrees, staging is a transpose
   in shared memory (paper: DeepBench-Backward needs both transposed). *)
let transposed_staging (i : input) = (i.a_trans, not i.b_trans)

let describe_name i c =
  Printf.sprintf "gemm_%s_%c%c_%dx%dx%d_t%d" (Ptx.Types.dtype_name i.dtype)
    (if i.a_trans then 't' else 'n')
    (if i.b_trans then 't' else 'n')
    c.ml c.nl c.u (threads_per_block c)

let cost ?(bounds = Predicated) (i : input) (c : config) =
  assert (structurally_legal i c);
  let dtype = i.dtype in
  let bytes = Ptx.Types.dtype_bytes dtype in
  let bytes_f = float_of_int bytes in
  let vectorized = vectorized_fp16 i c in
  let width = if vectorized then 2 else 1 in
  let threads = threads_per_block c in
  let grid_m = ceil_div i.m c.ml in
  let grid_n = ceil_div i.n c.nl in
  let grid_k = c.kg in
  let blocks = grid_m * grid_n * grid_k in
  let kc = ceil_div i.k c.kg in
  let k_iters = float_of_int (ceil_div kc c.u) in
  (* Loaded panel extents, clipped to the problem: out-of-bounds lanes
     are predicated off (and Unchecked bounds are only legal when tiles
     divide the shape), so tile-rounding overshoot never turns into
     issued traffic — charging padded extents overstates ragged shapes. *)
  let mp = float_of_int (min (grid_m * c.ml) i.m) in
  let np = float_of_int (min (grid_n * c.nl) i.n) in
  let kp =
    Float.min (k_iters *. float_of_int (c.u * grid_k)) (float_of_int i.k)
  in
  let blocks_f = float_of_int blocks in
  (* FMA instructions: ml*nl*u scalar multiply-accumulates per block per
     iteration, packed two-wide under fp16x2. *)
  let issued_fmas =
    blocks_f *. k_iters *. float_of_int (c.ml * c.nl * c.u) /. float_of_int width
  in
  let useful_flops = 2.0 *. float_of_int i.m *. float_of_int i.n *. float_of_int i.k in
  (* Addressing and loop bookkeeping per thread per iteration, amortized
     over that iteration's FMAs. *)
  let la = c.ml * c.u / threads and lb = c.nl * c.u / threads in
  let uc = c.u / c.kl in
  let trans_a, trans_b = transposed_staging i in
  let stage_ialu =
    let per_elem ta = if ta then 4.0 else 3.0 in
    (float_of_int la *. per_elem trans_a +. float_of_int lb *. per_elem trans_b)
    /. float_of_int c.vec
  in
  let inner_ialu = float_of_int (uc * (c.ms + c.ns)) /. float_of_int (2 * c.vec) in
  let loop_ialu = 8.0 in
  let fmas_per_thread_iter = float_of_int (c.ms * c.ns * uc) /. float_of_int width in
  let ialu_per_fma = (stage_ialu +. inner_ialu +. loop_ialu) /. fmas_per_thread_iter in
  (* Global traffic: every block loads its full A and B panels. *)
  let load_a_bytes = mp *. kp *. float_of_int grid_n *. bytes_f in
  let load_b_bytes = np *. kp *. float_of_int grid_m *. bytes_f in
  let store_bytes =
    if c.kg > 1 then 0.0 else float_of_int i.m *. float_of_int i.n *. bytes_f
  in
  let atom_ops =
    if c.kg > 1 then float_of_int i.m *. float_of_int i.n *. float_of_int c.kg else 0.0
  in
  (* Shared traffic: staging stores (inflated by in-shared transposes) +
     fragment loads + the K_L reduction epilogue. *)
  let stage_factor ta = if ta then 1.3 else 1.0 in
  let staging_bytes =
    blocks_f *. k_iters
    *. (float_of_int (c.ml * c.u) *. stage_factor trans_a
        +. float_of_int (c.nl * c.u) *. stage_factor trans_b)
    *. bytes_f
  in
  (* Fragment loads: per iteration each of the mn_threads·kl threads
     loads ms A-words and ns B-words uc times, i.e. ml·nl·u/ns A-words
     and ml·nl·u/ms B-words per block-iteration. *)
  let fragment_a_bytes =
    blocks_f *. k_iters *. float_of_int (c.ml * c.nl * c.u)
    /. float_of_int c.ns *. bytes_f
  in
  let fragment_b_bytes =
    blocks_f *. k_iters *. float_of_int (c.ml * c.nl * c.u)
    /. float_of_int c.ms *. bytes_f
  in
  let fragment_bytes = fragment_a_bytes +. fragment_b_bytes in
  let kl_epilogue_bytes =
    if c.kl > 1 then
      blocks_f *. float_of_int ((c.kl - 1) * 2 * c.ml * c.nl) *. bytes_f
    else 0.0
  in
  (* Vectorized (≥64-bit) shared accesses halve bank-transaction overhead,
     doubling sustainable shared bandwidth. *)
  let shared_vec_discount = if c.vec >= 2 then 0.5 else 1.0 in
  (* Bank-conflict serialization, per access pattern (32 banks, one word
     wide; same-word lanes broadcast):
     - staging stores walk flat addresses at stride 1: conflict-free;
     - A-fragment loads step [ms] words per lane over the ml/ms distinct
       row groups (lanes of equal tm broadcast);
     - B-fragment loads step [ns] words per lane across the tn groups,
       which change once per ml/ms lanes;
     - the K_L scratch is an [ml][nl] tile addressed at stride ms·nl,
       which for the usual power-of-two nl lands every lane on the same
       bank.
     The factor is the traffic-weighted mean degree, and multiplies the
     shared-pipeline time in {!Gpu.Perf_model}. *)
  let shared_conflict_factor =
    let deg ~distinct ~stride =
      float_of_int (Gpu.Memory_model.stride_conflict_degree ~distinct ~stride)
    in
    let tm_groups = c.ml / c.ms in
    let deg_a = deg ~distinct:(min 32 tm_groups) ~stride:c.ms in
    let deg_b =
      deg ~distinct:(min (c.nl / c.ns) (max 1 (32 / tm_groups))) ~stride:c.ns
    in
    let deg_kl = deg ~distinct:(min 32 tm_groups) ~stride:(c.ms * c.nl) in
    let weighted =
      staging_bytes +. (fragment_a_bytes *. deg_a) +. (fragment_b_bytes *. deg_b)
      +. (kl_epilogue_bytes *. deg_kl)
    in
    let total = staging_bytes +. fragment_bytes +. kl_epilogue_bytes in
    if total > 0.0 then weighted /. total else 1.0
  in
  let barriers =
    (if c.db = 2 then 1.0 else 2.0) *. k_iters +. (2.0 *. float_of_int (c.kl - 1))
  in
  { Gpu.Kernel_cost.name = describe_name i c;
    dtype;
    vectorized_fp16 = vectorized;
    threads_per_block = threads;
    regs_per_thread = regs_estimate i c;
    shared_bytes = shared_words c * bytes;
    grid_m;
    grid_n;
    grid_k;
    tile_m = c.ml;
    tile_n = c.nl;
    u_depth = c.u;
    useful_flops;
    issued_fmas;
    fma_flops = 2.0 *. float_of_int width;
    ialu_per_fma;
    extra_instr_frac = bounds_overhead bounds i c;
    load_a_bytes;
    load_b_bytes;
    store_bytes;
    atom_ops;
    coalescing = (let dram, _ = coalescing_parts i c in dram);
    tx_coalescing = (let _, tx = coalescing_parts i c in tx);
    shared_traffic_bytes =
      (staging_bytes +. fragment_bytes +. kl_epilogue_bytes) *. shared_vec_discount;
    shared_conflict_factor;
    ilp = float_of_int (c.ms * c.ns * c.ks) /. float_of_int width;
    mlp = Float.min 16.0 (float_of_int ((la + lb) / c.vec));
    barriers_per_block = barriers;
    k_iters }

let describe c =
  Printf.sprintf "%dx%dx%d ms%d ns%d ks%d kl%d kg%d v%d db%d" c.ml c.nl c.u c.ms c.ns
    c.ks c.kl c.kg c.vec c.db

let equal_config (a : config) (b : config) = a = b
