let dim = 16
let input_dim = 6

let log2 x = Float.log x /. Float.log 2.0

let tr log v = if log then log2 (float_of_int v) else float_of_int v

let pack ~log ~m ~n ~k ~bytes ~flag_a ~flag_b config =
  assert (Array.length config = 10);
  let f = Array.make dim 0.0 in
  f.(0) <- tr log m;
  f.(1) <- tr log n;
  f.(2) <- tr log k;
  f.(3) <- tr log bytes;
  f.(4) <- flag_a;
  f.(5) <- flag_b;
  Array.iteri (fun i v -> f.(6 + i) <- tr log v) config;
  f

(* --- per-query featurization cache ------------------------------------- *)

(* Memoized log2 of small non-negative ints. Tuning-parameter values are
   tiny powers of two (<= 128), so during a planning query every config
   slot is a table lookup instead of a [log] call. Entries are computed
   by the same [tr] the uncached path uses, hence bit-identical; the
   table is immutable after module init, so lookups are domain-safe. *)
let log2_memo_size = 256
let log2_memo = Array.init log2_memo_size (fun v -> tr true (max 1 v))

let tr_memo log v =
  if not log then float_of_int v
  else if v > 0 && v < log2_memo_size then Array.unsafe_get log2_memo v
  else tr log v

type query = {
  prefix : float array;  (* the six static input slots of [pack] *)
  q_log : bool;
}

let gemm_query ~log (i : Codegen.Gemm_params.input) =
  { prefix =
      [| tr log i.m; tr log i.n; tr log i.k;
         tr log (Ptx.Types.dtype_bytes i.dtype);
         (if i.a_trans then 1.0 else 0.0);
         (if i.b_trans then 1.0 else 0.0) |];
    q_log = log }

let conv_query ~log (i : Codegen.Conv_params.input) =
  let gi = Codegen.Conv_params.gemm_input i in
  { prefix =
      [| tr log gi.m; tr log gi.n; tr log gi.k;
         tr log (Ptx.Types.dtype_bytes i.dtype);
         tr log (i.r * i.s); 0.0 |];
    q_log = log }

let static_slots q = Array.copy q.prefix

let tuning_slot ~log v = tr log v

let fill_query q config (x : Mlp.Matrix.t) ~row =
  assert (Array.length config = 10);
  assert (x.Mlp.Matrix.cols = dim);
  assert (row >= 0 && row < x.Mlp.Matrix.rows);
  let d = x.Mlp.Matrix.data in
  let base = row * dim in
  for j = 0 to input_dim - 1 do
    Bigarray.Array1.unsafe_set d (base + j) (Array.unsafe_get q.prefix j)
  done;
  for j = 0 to 9 do
    Bigarray.Array1.unsafe_set d (base + input_dim + j)
      (tr_memo q.q_log (Array.unsafe_get config j))
  done

let query_features q config =
  let x = Mlp.Matrix.create 1 dim in
  fill_query q config x ~row:0;
  Array.init dim (fun j -> Mlp.Matrix.get x 0 j)

let gemm_features ~log (i : Codegen.Gemm_params.input) config =
  pack ~log ~m:i.m ~n:i.n ~k:i.k
    ~bytes:(Ptx.Types.dtype_bytes i.dtype)
    ~flag_a:(if i.a_trans then 1.0 else 0.0)
    ~flag_b:(if i.b_trans then 1.0 else 0.0)
    config

let conv_features ~log (i : Codegen.Conv_params.input) config =
  let gi = Codegen.Conv_params.gemm_input i in
  pack ~log ~m:gi.m ~n:gi.n ~k:gi.k
    ~bytes:(Ptx.Types.dtype_bytes i.dtype) ~flag_a:(tr log (i.r * i.s))
    ~flag_b:0.0 config

type scaler = { mean : float; std : float }

let fit_target_scaler tflops =
  let logs = Array.map (fun v -> assert (v > 0.0); Float.log v) tflops in
  let mean = Util.Stats.mean logs in
  let std = Float.max 1e-6 (Util.Stats.stddev logs) in
  { mean; std }

let target s v = (Float.log v -. s.mean) /. s.std
let untarget s y = Float.exp ((y *. s.std) +. s.mean)
