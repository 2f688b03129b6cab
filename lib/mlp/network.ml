module A = Bigarray.Array1

(* Every weight and bias lives in one flat vector, in the layout the C
   kernel reads: per layer, fan_out × fan_in row-major weights, then
   fan_out biases. The gradient and Adam's two moments are vectors of
   the same layout, so one loop updates them all. *)
type t = {
  arch : int array;
  params : Matrix.storage;
  grad : Matrix.storage;   (* last minibatch's loss gradient *)
  m : Matrix.storage;      (* Adam first moment *)
  v : Matrix.storage;      (* Adam second moment *)
  mutable step : int;      (* Adam timestep *)
}

let zeros n = (Matrix.create n 1).Matrix.data

(* Lengths of the flat vector's segments in order: each layer's weights,
   then its biases. The serialization writes one line per segment. *)
let segments arch =
  List.concat
    (List.init (Array.length arch - 1) (fun i ->
         [ arch.(i) * arch.(i + 1); arch.(i + 1) ]))

let of_params arch params step =
  let n = A.dim params in
  { arch; params; grad = zeros n; m = zeros n; v = zeros n; step }

(* He-normal weights, N(0, sqrt(2 / fan_in)) — the standard choice for
   relu networks — and zero biases. *)
let create rng ~sizes =
  assert (Array.length sizes >= 2);
  assert (sizes.(Array.length sizes - 1) = 1);
  let params = zeros (List.fold_left ( + ) 0 (segments sizes)) in
  let off = ref 0 in
  for i = 0 to Array.length sizes - 2 do
    let fan_in = sizes.(i) and fan_out = sizes.(i + 1) in
    let sigma = sqrt (2.0 /. float_of_int fan_in) in
    for k = !off to !off + (fan_in * fan_out) - 1 do
      A.unsafe_set params k (sigma *. Util.Rng.gaussian rng)
    done;
    off := !off + ((fan_in + 1) * fan_out)
  done;
  of_params (Array.copy sizes) params 0

let sizes t = Array.copy t.arch

let num_weights t = A.dim t.params

let is_finite t =
  let rec from k = k = A.dim t.params || (Float.is_finite t.params.{k} && from (k + 1)) in
  from 0

let check_input name t (x : Matrix.t) =
  if x.cols <> t.arch.(0) || A.dim x.data < x.rows * x.cols then
    invalid_arg (name ^ ": input width")

(* The pure-OCaml forward pass, the reference the C kernel must match:
   the activations of every layer, input first, hidden layers after
   relu. Per element: the ascending-k single-accumulator dot product,
   then [+ bias], then [v < 0 -> 0] on hidden layers. *)
let forward t (x : Matrix.t) =
  check_input "Network.predict" t x;
  let layers = Array.length t.arch - 1 and rows = x.rows in
  let p = t.params in
  let acts = Array.make (layers + 1) x in
  let w0 = ref 0 in
  for i = 0 to layers - 1 do
    let fan_in = t.arch.(i) and fan_out = t.arch.(i + 1) in
    let b0 = !w0 + (fan_in * fan_out) and relu = i < layers - 1 in
    let a = acts.(i).data and z = Matrix.create rows fan_out in
    let zd = z.data in
    for r = 0 to rows - 1 do
      let abase = r * fan_in and zbase = r * fan_out in
      for j = 0 to fan_out - 1 do
        let wbase = !w0 + (j * fan_in) in
        let acc = ref 0.0 in
        for k = 0 to fan_in - 1 do
          acc := !acc +. (A.unsafe_get a (abase + k) *. A.unsafe_get p (wbase + k))
        done;
        let v = !acc +. A.unsafe_get p (b0 + j) in
        A.unsafe_set zd (zbase + j) (if relu && v < 0.0 then 0.0 else v)
      done
    done;
    acts.(i + 1) <- z;
    w0 := b0 + fan_out
  done;
  acts

let predict t x =
  let out = (forward t x).(Array.length t.arch - 1) in
  assert (out.Matrix.cols = 1);
  Matrix.to_array out

let predict_one t features =
  (predict t (Matrix.of_array ~rows:1 ~cols:(Array.length features) features)).(0)

(* The C kernels (forward_stubs.c) are compiled once per vector width;
   the widest one the running CPU supports is chosen here, once, while
   the module initialises and before any domain can call a kernel. *)
external widest_lanes : unit -> int = "isaac_mlp_widest_lanes"

external compiled_lanes_stub : unit -> int array = "isaac_mlp_compiled_lanes"

let lanes = widest_lanes ()

let compiled_lanes = Array.to_list (compiled_lanes_stub ())

let check_lanes name l =
  if not (List.mem l compiled_lanes && l <= lanes) then
    invalid_arg (Printf.sprintf "%s: %d lanes not supported by this CPU" name l)

(* Batched inference, the planning hot path: the C kernel reads the
   parameter vector and the batch in place, outside the OCaml heap, with
   the runtime lock released. Its output is bit-identical to [predict]
   on the same rows, at every width. *)
external forward_stub :
  int -> int array -> Matrix.storage -> Matrix.storage -> int -> Matrix.storage -> unit
  = "isaac_mlp_forward_batch_byte" "isaac_mlp_forward_batch"

let forward_at lanes t ~input =
  check_input "Network.forward_batch" t input;
  let out = Matrix.create input.Matrix.rows t.arch.(Array.length t.arch - 1) in
  forward_stub lanes t.arch t.params input.Matrix.data input.Matrix.rows out.Matrix.data;
  out

let forward_batch t ~input = forward_at lanes t ~input

let forward_batch_at ~lanes t ~input =
  check_lanes "Network.forward_batch_at" lanes;
  forward_at lanes t ~input

let predict_matrix t x =
  let out = forward_batch t ~input:x in
  assert (out.Matrix.cols = 1);
  Matrix.to_array out

type codes = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Coded inference: the C kernel reads the codes and the parameter
   vector in place, copies [shared] and [tables] out of the OCaml heap
   and validates every size. *)
external codes_stub :
  int -> int array -> Matrix.storage -> float array -> float array array ->
  codes -> int -> int -> Matrix.storage -> unit
  = "isaac_mlp_forward_codes_byte" "isaac_mlp_forward_codes"

let codes_at lanes t ~shared ~tables codes ~off ~len =
  let out = Matrix.create (max 0 len) 1 in
  codes_stub lanes t.arch t.params shared tables codes off len out.Matrix.data;
  Matrix.to_array out

let predict_codes t ~shared ~tables codes ~off ~len =
  codes_at lanes t ~shared ~tables codes ~off ~len

let predict_codes_at ~lanes t ~shared ~tables codes ~off ~len =
  check_lanes "Network.predict_codes_at" lanes;
  codes_at lanes t ~shared ~tables codes ~off ~len

type adam = { lr : float; beta1 : float; beta2 : float; epsilon : float }

let default_adam = { lr = 1e-3; beta1 = 0.9; beta2 = 0.999; epsilon = 1e-8 }

(* Fill [t.grad] with the MSE gradient of a minibatch whose activations
   are [acts], walking the layers back to front from the pre-update
   parameters; returns the summed squared error. Per element the
   accumulation order is that of a plain matrix product: batch rows
   ascending for the weight and bias gradients, output units ascending
   for the delta passed down, skipping zero deltas except in the bias
   sum. *)
let backprop t acts y =
  let layers = Array.length t.arch - 1 in
  let rows = acts.(0).Matrix.rows in
  let p = t.params and g = t.grad in
  let out = acts.(layers).Matrix.data in
  let loss = ref 0.0 in
  let delta = ref (Matrix.create rows 1) in
  for r = 0 to rows - 1 do
    let d = A.unsafe_get out r -. y.(r) in
    loss := !loss +. (d *. d);
    A.unsafe_set !delta.data r (2.0 *. d /. float_of_int rows)
  done;
  A.fill g 0.0;
  let b0 = ref (A.dim p) in
  for i = layers - 1 downto 0 do
    let fan_in = t.arch.(i) and fan_out = t.arch.(i + 1) in
    let bias = !b0 - fan_out in
    let w0 = bias - (fan_in * fan_out) in
    let d = !delta.data and a = acts.(i).data in
    (* Layer i-1's delta; the input layer needs none. *)
    let prev = Matrix.create rows (if i > 0 then fan_in else 0) in
    let pd = prev.data in
    for r = 0 to rows - 1 do
      let dbase = r * fan_out and abase = r * fan_in in
      for j = 0 to fan_out - 1 do
        let dv = A.unsafe_get d (dbase + j) in
        A.unsafe_set g (bias + j) (A.unsafe_get g (bias + j) +. dv);
        if dv <> 0.0 then begin
          let wbase = w0 + (j * fan_in) in
          for k = 0 to fan_in - 1 do
            A.unsafe_set g (wbase + k)
              (A.unsafe_get g (wbase + k) +. (dv *. A.unsafe_get a (abase + k)))
          done;
          if i > 0 then
            for k = 0 to fan_in - 1 do
              A.unsafe_set pd (abase + k)
                (A.unsafe_get pd (abase + k) +. (dv *. A.unsafe_get p (wbase + k)))
            done
        end
      done;
      (* Layer i-1's output is relu(z), and relu(z) <= 0 exactly when
         z <= 0 (NaN fails both), so the activation masks the delta
         where z would. *)
      if i > 0 then
        for k = abase to abase + fan_in - 1 do
          if A.unsafe_get a k <= 0.0 then A.unsafe_set pd k 0.0
        done
    done;
    delta := prev;
    b0 := w0
  done;
  !loss

let check_batch t (x : Matrix.t) y =
  check_input "Network.train_batch" t x;
  if x.rows < 1 then invalid_arg "Network.train_batch: x has no rows";
  if Array.length y <> x.rows then invalid_arg "Network.train_batch: y length"

(* Adam's bias corrections for the step about to be taken. *)
let bias_corrections t opt =
  let step = float_of_int (t.step + 1) in
  (1.0 -. (opt.beta1 ** step), 1.0 -. (opt.beta2 ** step))

(* The pure-OCaml training step, the reference the C step must match. *)
let train_batch_ref t opt ~x ~y =
  check_batch t x y;
  let loss = backprop t (forward t x) y in
  let bc1, bc2 = bias_corrections t opt in
  t.step <- t.step + 1;
  let p = t.params and g = t.grad and m = t.m and v = t.v in
  for k = 0 to A.dim p - 1 do
    let gk = A.unsafe_get g k in
    let mk = (opt.beta1 *. A.unsafe_get m k) +. ((1.0 -. opt.beta1) *. gk) in
    let vk = (opt.beta2 *. A.unsafe_get v k) +. ((1.0 -. opt.beta2) *. gk *. gk) in
    A.unsafe_set m k mk;
    A.unsafe_set v k vk;
    let mhat = mk /. bc1 and vhat = vk /. bc2 in
    A.unsafe_set p k (A.unsafe_get p k -. (opt.lr *. mhat /. (sqrt vhat +. opt.epsilon)))
  done;
  loss /. float_of_int x.rows

(* The training step: forward, backward and Adam in one C call
   (forward_stubs.c), bit-identical to [train_batch_ref]. *)
external train_stub :
  int -> int array -> Matrix.storage -> Matrix.storage -> Matrix.storage ->
  Matrix.storage -> Matrix.storage -> int -> float array -> float array -> float
  = "isaac_mlp_train_batch_byte" "isaac_mlp_train_batch"

let train_at lanes t opt ~x ~y =
  check_batch t x y;
  let bc1, bc2 = bias_corrections t opt in
  let hyper = [| opt.lr; opt.beta1; opt.beta2; opt.epsilon; bc1; bc2 |] in
  let loss =
    train_stub lanes t.arch t.params t.grad t.m t.v x.Matrix.data x.rows y hyper
  in
  t.step <- t.step + 1;
  loss /. float_of_int x.rows

let train_batch t opt ~x ~y = train_at lanes t opt ~x ~y

let train_batch_at ~lanes t opt ~x ~y =
  check_lanes "Network.train_batch_at" lanes;
  train_at lanes t opt ~x ~y

let mse t ~x ~y = Util.Stats.mse (predict t x) y

let copy t =
  let dup a =
    let c = zeros (A.dim a) in
    A.blit a c;
    c
  in
  { t with arch = Array.copy t.arch; params = dup t.params; grad = dup t.grad;
           m = dup t.m; v = dup t.v }

let save_buf buf t =
  Printf.bprintf buf "mlp %d\n" (Array.length t.arch);
  Array.iter (Printf.bprintf buf "%d ") t.arch;
  Printf.bprintf buf "\n%d\n" t.step;
  let off = ref 0 in
  List.iter
    (fun len ->
      for k = !off to !off + len - 1 do
        Printf.bprintf buf "%.17g " (A.unsafe_get t.params k)
      done;
      Buffer.add_char buf '\n';
      off := !off + len)
    (segments t.arch)

(* Every segment's line is parsed and length-checked before the
   parameter vector is allocated, so the allocation is bounded by the
   payload, whatever widths the header claims. *)
let load_from line =
  let arch_len = Scanf.sscanf (line ()) "mlp %d" Fun.id in
  let words l = List.filter (( <> ) "") (String.split_on_char ' ' (String.trim l)) in
  let arch = Array.of_list (List.map int_of_string (words (line ()))) in
  if Array.length arch <> arch_len then
    failwith (Printf.sprintf "mlp: %d layer widths, expected %d" (Array.length arch) arch_len);
  let step = int_of_string (String.trim (line ())) in
  let values =
    List.mapi
      (fun s len ->
        let v = List.map float_of_string (words (line ())) in
        if List.length v <> len then
          failwith
            (Printf.sprintf "mlp layer %d %s: %d values, expected %d" (s / 2)
               (if s mod 2 = 0 then "weights" else "biases") (List.length v) len);
        v)
      (segments arch)
  in
  let params = zeros (List.fold_left ( + ) 0 (segments arch)) in
  List.iteri (A.set params) (List.concat values);
  of_params arch params step
