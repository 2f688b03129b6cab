type layer = {
  w : Tensor.t;          (* out × in *)
  b : float array;       (* out *)
  (* Adam first/second moments *)
  mw : Tensor.t;
  vw : Tensor.t;
  mb : float array;
  vb : float array;
}

type t = {
  layers : layer array;
  arch : int array;
  mutable step : int;   (* Adam timestep *)
}

let create rng ~sizes =
  assert (Array.length sizes >= 2);
  assert (sizes.(Array.length sizes - 1) = 1);
  let layers =
    Array.init
      (Array.length sizes - 1)
      (fun i ->
        let fan_in = sizes.(i) and fan_out = sizes.(i + 1) in
        { w = Tensor.random_he rng fan_out fan_in;
          b = Array.make fan_out 0.0;
          mw = Tensor.create fan_out fan_in;
          vw = Tensor.create fan_out fan_in;
          mb = Array.make fan_out 0.0;
          vb = Array.make fan_out 0.0 })
  in
  { layers; arch = Array.copy sizes; step = 0 }

let sizes t = Array.copy t.arch

let num_weights t =
  Array.fold_left
    (fun acc l -> acc + (l.w.Tensor.rows * l.w.Tensor.cols) + Array.length l.b)
    0 t.layers

let is_finite t =
  Array.for_all
    (fun l ->
      Array.for_all Float.is_finite l.w.Tensor.data
      && Array.for_all Float.is_finite l.b)
    t.layers

(* Forward pass keeping pre-activations (z) and activations (a) of every
   layer for backprop. *)
let forward t x =
  let n = Array.length t.layers in
  let zs = Array.make n x and activations = Array.make (n + 1) x in
  for i = 0 to n - 1 do
    let l = t.layers.(i) in
    let z = Tensor.matmul_nt activations.(i) l.w in
    Tensor.add_row_inplace z l.b;
    zs.(i) <- z;
    let a = if i = n - 1 then z else begin
        let a = Tensor.copy z in
        Tensor.relu_inplace a;
        a
      end
    in
    activations.(i + 1) <- a
  done;
  (zs, activations)

let predict t x =
  let _, activations = forward t x in
  let out = activations.(Array.length t.layers) in
  assert (out.Tensor.cols = 1);
  Array.copy out.Tensor.data

let predict_one t features =
  let x = Tensor.of_array ~rows:1 ~cols:(Array.length features) features in
  (predict t x).(0)

(* Batched inference over Bigarray storage, the planning hot path. The
   kernel is C (forward_stubs.c): output neurons as SIMD lanes over
   weights transposed once per call, skipping exact-zero inputs when a
   layer's weights are all finite. Per output element the arithmetic is
   the same single-accumulator ascending-k dot product as
   Tensor.matmul_nt followed by the same [+ bias] and [< 0 -> 0] relu,
   so the result is bit-identical to [predict] on the same rows. The
   weights and biases are copied into one Bigarray per call so the
   kernel can run outside the OCaml heap with the runtime lock
   released. *)
external forward_stub :
  int array -> Matrix.storage -> Matrix.storage -> int -> Matrix.storage -> unit
  = "isaac_mlp_forward_batch"

let forward_batch t ~input =
  let rows = input.Matrix.rows in
  if input.Matrix.cols <> t.arch.(0) then
    invalid_arg "Network.forward_batch: input width";
  let params =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (num_weights t)
  in
  let off = ref 0 in
  let put a =
    Array.iteri (fun i v -> Bigarray.Array1.unsafe_set params (!off + i) v) a;
    off := !off + Array.length a
  in
  Array.iter (fun l -> put l.w.Tensor.data; put l.b) t.layers;
  let out = Matrix.create rows t.arch.(Array.length t.arch - 1) in
  forward_stub t.arch params input.Matrix.data rows out.Matrix.data;
  out

let predict_matrix t x =
  let out = forward_batch t ~input:x in
  assert (out.Matrix.cols = 1);
  Matrix.to_array out

type adam = { lr : float; beta1 : float; beta2 : float; epsilon : float }

let default_adam = { lr = 1e-3; beta1 = 0.9; beta2 = 0.999; epsilon = 1e-8 }

let adam_update opt ~step ~m ~v ~g ~theta =
  let n = Array.length theta in
  let bc1 = 1.0 -. (opt.beta1 ** float_of_int step) in
  let bc2 = 1.0 -. (opt.beta2 ** float_of_int step) in
  for i = 0 to n - 1 do
    m.(i) <- (opt.beta1 *. m.(i)) +. ((1.0 -. opt.beta1) *. g.(i));
    v.(i) <- (opt.beta2 *. v.(i)) +. ((1.0 -. opt.beta2) *. g.(i) *. g.(i));
    let mhat = m.(i) /. bc1 and vhat = v.(i) /. bc2 in
    theta.(i) <- theta.(i) -. (opt.lr *. mhat /. (sqrt vhat +. opt.epsilon))
  done

let train_batch t opt ~x ~y =
  let batch = x.Tensor.rows in
  assert (Array.length y = batch);
  let n = Array.length t.layers in
  let zs, activations = forward t x in
  let out = activations.(n) in
  (* MSE and its gradient on the linear output. *)
  let loss = ref 0.0 in
  let delta = Tensor.create batch 1 in
  for i = 0 to batch - 1 do
    let d = out.Tensor.data.(i) -. y.(i) in
    loss := !loss +. (d *. d);
    delta.Tensor.data.(i) <- 2.0 *. d /. float_of_int batch
  done;
  t.step <- t.step + 1;
  let delta = ref delta in
  for i = n - 1 downto 0 do
    let l = t.layers.(i) in
    let dw = Tensor.matmul_tn !delta activations.(i) in
    let db = Tensor.col_sums !delta in
    if i > 0 then begin
      let d_prev = Tensor.matmul_nn !delta l.w in
      Tensor.relu_mask_inplace d_prev zs.(i - 1);
      delta := d_prev
    end;
    adam_update opt ~step:t.step ~m:l.mw.Tensor.data ~v:l.vw.Tensor.data
      ~g:dw.Tensor.data ~theta:l.w.Tensor.data;
    adam_update opt ~step:t.step ~m:l.mb ~v:l.vb ~g:db ~theta:l.b
  done;
  !loss /. float_of_int batch

let mse t ~x ~y =
  let pred = predict t x in
  Util.Stats.mse pred y

let copy t =
  { layers =
      Array.map
        (fun l ->
          { w = Tensor.copy l.w; b = Array.copy l.b; mw = Tensor.copy l.mw;
            vw = Tensor.copy l.vw; mb = Array.copy l.mb; vb = Array.copy l.vb })
        t.layers;
    arch = Array.copy t.arch;
    step = t.step }

let save_buf buf t =
  Buffer.add_string buf (Printf.sprintf "mlp %d\n" (Array.length t.arch));
  Array.iter (fun s -> Buffer.add_string buf (Printf.sprintf "%d " s)) t.arch;
  Buffer.add_string buf (Printf.sprintf "\n%d\n" t.step);
  Array.iter
    (fun l ->
      Array.iter
        (fun v -> Buffer.add_string buf (Printf.sprintf "%.17g " v))
        l.w.Tensor.data;
      Buffer.add_char buf '\n';
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%.17g " v)) l.b;
      Buffer.add_char buf '\n')
    t.layers

let save t oc =
  let buf = Buffer.create 4096 in
  save_buf buf t;
  Buffer.output_buffer oc buf

let load_from line =
  let header = line () in
  let arch_len = Scanf.sscanf header "mlp %d" Fun.id in
  let arch =
    let parts =
      String.split_on_char ' ' (String.trim (line ())) |> List.map int_of_string
    in
    assert (List.length parts = arch_len);
    Array.of_list parts
  in
  let step = int_of_string (String.trim (line ())) in
  let floats_of_line l =
    String.split_on_char ' ' (String.trim l)
    |> List.filter (fun s -> s <> "")
    |> List.map float_of_string
    |> Array.of_list
  in
  let layers =
    Array.init (arch_len - 1) (fun i ->
        let fan_in = arch.(i) and fan_out = arch.(i + 1) in
        let wdata = floats_of_line (line ()) in
        assert (Array.length wdata = fan_in * fan_out);
        let b = floats_of_line (line ()) in
        assert (Array.length b = fan_out);
        { w = Tensor.of_array ~rows:fan_out ~cols:fan_in wdata;
          b;
          mw = Tensor.create fan_out fan_in;
          vw = Tensor.create fan_out fan_in;
          mb = Array.make fan_out 0.0;
          vb = Array.make fan_out 0.0 })
  in
  { layers; arch; step }

let load ic = load_from (fun () -> input_line ic)
