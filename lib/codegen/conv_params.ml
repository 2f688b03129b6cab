type input = {
  n : int;
  c : int;
  k : int;
  p : int;
  q : int;
  r : int;
  s : int;
  stride : int;
  pad : int;
  dtype : Ptx.Types.dtype;
}

let check_dim = Gemm_params.check_dim "Conv_params.input"

(* The implicit GEMM's extents must fit [Gemm_params.max_dim] too. The
   product of positive factors, each already at most [max_dim], is
   taken factor by factor and saturates above it, so it never
   overflows. *)
let times a b =
  if a > Gemm_params.max_dim / b then Gemm_params.max_dim + 1 else a * b

let check_product names x y z =
  if x >= 1 && y >= 1 && z >= 1 && times (times x y) z > Gemm_params.max_dim then
    invalid_arg
      (Printf.sprintf "Conv_params.input: %s is above %d" names Gemm_params.max_dim)

let check_min name v min =
  if v < min then
    invalid_arg (Printf.sprintf "Conv_params.input: %S = %d is below %d" name v min)

(* Input spatial extents, from the output size, filter, stride and
   padding: H = (P-1)*stride + R - 2*pad. *)
let h i = ((i.p - 1) * i.stride) + i.r - (2 * i.pad)
let w i = ((i.q - 1) * i.stride) + i.s - (2 * i.pad)

let input ?(dtype = Ptx.Types.F32) ?(stride = 1) ?(pad = 0) ~n ~c ~k ~p ~q ~r ~s () =
  check_min "stride" stride 1;
  check_min "pad" pad 0;
  check_dim "n" n; check_dim "c" c; check_dim "k" k; check_dim "p" p;
  check_dim "q" q; check_dim "r" r; check_dim "s" s;
  check_dim "stride" stride; check_dim "pad" pad;
  check_product {|"n" * "p" * "q"|} n p q;
  check_product {|"c" * "r" * "s"|} c r s;
  let i = { n; c; k; p; q; r; s; stride; pad; dtype } in
  (* Every field is at most [max_dim] by now, so neither extent
     overflows. A pad that leaves no input row or column has nothing
     to convolve. *)
  if h i < 1 || w i < 1 then
    invalid_arg
      (Printf.sprintf "Conv_params.input: %S = %d leaves a %d x %d input" "pad"
         pad (h i) (w i));
  i

(* Extents of the zero-padded image the kernel actually gathers from. *)
let h_padded i = h i + (2 * i.pad)
let w_padded i = w i + (2 * i.pad)
let npq i = i.n * i.p * i.q
let crs i = i.c * i.r * i.s

let gemm_input i = Gemm_params.input ~dtype:i.dtype (npq i) i.k (crs i)

let structurally_legal i cfg = Gemm_params.structurally_legal (gemm_input i) cfg

let describe_name i (cfg : Gemm_params.config) =
  Printf.sprintf "conv_%s_n%dc%dk%d_p%dq%dr%ds%d_%dx%dx%d"
    (Ptx.Types.dtype_name i.dtype) i.n i.c i.k i.p i.q i.r i.s cfg.ml cfg.nl cfg.u

let cost ?bounds i (cfg : Gemm_params.config) =
  let base = Gemm_params.cost ?bounds (gemm_input i) cfg in
  let threads = Gemm_params.threads_per_block cfg in
  let la = cfg.ml * cfg.u / threads in
  let uc = cfg.u / cfg.kl in
  (* Each staged image element costs two table lookups plus an add; the
     tables are tiny and L2-resident, so they add instructions and a
     little L2 traffic rather than DRAM bandwidth. *)
  let gather_ialu = 3.0 *. float_of_int la in
  let fmas_per_thread_iter =
    float_of_int (cfg.ms * cfg.ns * uc)
    /. (if base.vectorized_fp16 then 2.0 else 1.0)
  in
  (* Patch overlap: the im2col A-operand charges every output its full
     R·S window, but ml consecutive outputs along a row stride through
     the image and share window columns — a tile touches about
     (ml·stride + s − 1) distinct columns where im2col counts ml·s. The
     interpreter's transaction counters see the deduplicated accesses
     (equal addresses broadcast within a warp, neighbours share
     segments), and so do DRAM and L2 on real hardware. *)
  let overlap =
    Float.min 1.0
      (float_of_int ((cfg.ml * i.stride) + i.s - 1)
      /. float_of_int (cfg.ml * i.s))
  in
  { base with
    name = describe_name i cfg;
    ialu_per_fma = base.ialu_per_fma +. (gather_ialu /. fmas_per_thread_iter);
    load_a_bytes = base.load_a_bytes *. overlap;
    coalescing = base.coalescing *. 0.9;
    tx_coalescing = base.tx_coalescing *. 0.9;
    mlp = Float.max 1.0 (base.mlp *. 0.75) }
