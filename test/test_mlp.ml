(* Tests for the MLP library: the tensor algebra of the forward and
   backward passes against naive references, the forward pass against
   hand-computed values, backpropagation against finite differences,
   training dynamics, serialization, and the float contracts of the C
   kernels: batched inference against [predict], the training step
   against [train_batch_ref], at every vector width the CPU supports. *)

let quick name f = Alcotest.test_case name `Quick f

(* The C kernel entry a float-contract case calls: the library's own
   ([forward_batch], [train_batch]), which runs the widest width the CPU
   supports, or the test-only entry forced to [At lanes] doubles per
   vector. *)
type entry = Library | At of int

let forward_with entry net x =
  match entry with
  | Library -> Mlp.Network.predict_matrix net x
  | At lanes -> Mlp.Matrix.to_array (Mlp.Network.forward_batch_at ~lanes net ~input:x)

let train_with = function
  | Library -> Mlp.Network.train_batch
  | At lanes -> Mlp.Network.train_batch_at ~lanes

(* A case's name, prefixed with its width unless it runs the library's
   own entry. *)
let named name = function
  | Library -> name
  | At lanes -> Printf.sprintf "%d lanes: %s" lanes name

let rng = Util.Rng.create 1234

let random_mat rows cols =
  Mlp.Matrix.of_array ~rows ~cols
    (Array.init (rows * cols) (fun _ -> Util.Rng.gaussian rng))

(* The network type is abstract, so tests read and set its parameters
   through the text serialization: a 3-line header (width count,
   widths, Adam step), then per layer one line of row-major weights and
   one of biases. [params] lists every weight and bias in that flat
   order; [with_params net p] is a fresh network with [net]'s header and
   the parameters [p]. *)
let serialized net =
  let buf = Buffer.create 4096 in
  Mlp.Network.save_buf buf net;
  String.split_on_char '\n' (Buffer.contents buf)

let load_lines lines =
  let rest = ref lines in
  Mlp.Network.load_from (fun () ->
      match !rest with [] -> raise End_of_file | l :: tl -> rest := tl; l)

let params net =
  List.filteri (fun i _ -> i >= 3) (serialized net)
  |> List.concat_map (fun l ->
         List.map float_of_string
           (List.filter (( <> ) "") (String.split_on_char ' ' l)))
  |> Array.of_list

let step net = int_of_string (String.trim (List.nth (serialized net) 2))

let with_params net p =
  let sizes = Mlp.Network.sizes net in
  let off = ref 0 in
  let line len =
    let l = String.concat " " (List.init len (fun k -> Printf.sprintf "%.17g" p.(!off + k))) in
    off := !off + len;
    l
  in
  let body =
    List.concat
      (List.init (Array.length sizes - 1) (fun i ->
           let w = line (sizes.(i) * sizes.(i + 1)) in
           [ w; line sizes.(i + 1) ]))
  in
  load_lines (List.filteri (fun i _ -> i < 3) (serialized net) @ body)

(* Bit equality that also tells -0.0 from +0.0; NaN matches NaN in
   position only, since a NaN's payload is not part of the contract. *)
let same_bits want got =
  Array.length want = Array.length got
  && Array.for_all2
       (fun a b ->
         if Float.is_nan a then Float.is_nan b
         else Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       want got

(* [steps] consecutive steps of the C training step through [entry] on
   one deep copy of [net] and of [train_batch_ref] on another: the
   losses and every parameter must agree bit for bit after each step.
   The later steps also compare Adam's moments and step count, which
   they read. *)
let steps_match_ref ?(steps = 3) entry net x y =
  let adam = Mlp.Network.default_adam in
  let c = Mlp.Network.copy net and r = Mlp.Network.copy net in
  List.for_all
    (fun _ ->
      let loss_c = train_with entry c adam ~x ~y in
      let loss_r = Mlp.Network.train_batch_ref r adam ~x ~y in
      same_bits [| loss_r |] [| loss_c |] && same_bits (params r) (params c))
    (List.init steps Fun.id)

(* --- tensor ------------------------------------------------------------- *)

(* The matrix algebra inside [Network]'s forward and backward passes,
   each product, bias add and relu observed through the public calls on
   networks whose parameters are set by hand. *)

let net_with sizes p = with_params (Mlp.Network.create (Util.Rng.create 0) ~sizes) p

(* Row-major [m × n] product of [get_a : m × k] and [get_b : k × n]. *)
let naive_mm ~m ~n ~k get_a get_b =
  Array.init (m * n) (fun ij ->
      let i = ij / n and j = ij mod n in
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc := !acc +. (get_a i l *. get_b l j)
      done;
      !acc)

let check_close name want got =
  Array.iteri
    (fun i v ->
      if Float.abs (v -. got.(i)) > 1e-9 then
        Alcotest.failf "%s: element %d differs: %g vs %g" name i v got.(i))
    want

(* An Adam step with no momentum (beta1 = beta2 = 0) and lr = epsilon =
   2^500, far above any gradient here, moves each parameter by
   lr * g / (|g| + epsilon) = g exactly. So the parameters before the
   step minus those after are the gradient backpropagation computed, up
   to the rounding of p - g. *)
let gradient net ~x ~y =
  let big = Float.ldexp 1.0 500 in
  let probe = { Mlp.Network.lr = big; beta1 = 0.0; beta2 = 0.0; epsilon = big } in
  let before = params net in
  ignore (Mlp.Network.train_batch net probe ~x ~y);
  Array.map2 ( -. ) before (params net)

(* The output delta of a batch: d(MSE)/d(prediction). *)
let output_delta net x y =
  let rows = float_of_int x.Mlp.Matrix.rows in
  Array.map2 (fun p t -> 2.0 *. (p -. t) /. rows) (Mlp.Network.predict net x) y

let gaussians r n = Array.init n (fun _ -> Util.Rng.gaussian r)

(* Forward: a (5 × 7) batch times the transpose of a (4 × 7) weight
   matrix, one linear network per weight row. *)
let test_matmul_nt () =
  let r = Util.Rng.create 41 in
  let a = Mlp.Matrix.of_array ~rows:5 ~cols:7 (gaussians r 35) in
  let b = gaussians r 28 in
  let cols =
    Array.init 4 (fun j ->
        let row_j = Array.append (Array.sub b (j * 7) 7) [| 0. |] in
        Mlp.Network.predict (net_with [| 7; 1 |] row_j) a)
  in
  check_close "nt"
    (naive_mm ~m:5 ~n:4 ~k:7 (Mlp.Matrix.get a) (fun l j -> b.((j * 7) + l)))
    (Array.init 20 (fun ij -> cols.(ij mod 4).(ij / 4)))

(* Backward: the delta a layer passes down is its own delta times its
   weights. A 5-3-4-1 network on the 5 × 5 identity batch with every
   relu active, so the first layer's weight gradient is that delta,
   transposed. *)
let test_matmul_nn () =
  let r = Util.Rng.create 42 in
  let pos n = Array.init n (fun _ -> 0.5 +. Util.Rng.uniform r) in
  let w2 = pos 12 and w3 = gaussians r 4 in
  let net =
    net_with [| 5; 3; 4; 1 |]
      (Array.concat [ pos 15; Array.make 3 0.5; w2; Array.make 4 0.5; w3; [| 0. |] ])
  in
  let x =
    Mlp.Matrix.of_array ~rows:5 ~cols:5 (Array.init 25 (fun i -> if i mod 6 = 0 then 1. else 0.))
  in
  let y = gaussians r 5 in
  let d = output_delta net x y in
  let g = gradient net ~x ~y in
  check_close "nn"
    (naive_mm ~m:5 ~n:3 ~k:4 (fun row i -> d.(row) *. w3.(i)) (fun i j -> w2.((i * 3) + j)))
    (Array.init 15 (fun rj -> g.(((rj mod 3) * 5) + (rj / 3))))

(* Backward: a layer's weight gradient is the transpose of its input
   batch times its delta. A 5-4-1 network on a 7-row batch, hidden
   biases high enough that every relu is active. *)
let test_matmul_tn () =
  let r = Util.Rng.create 43 in
  let w2 = gaussians r 4 in
  let net =
    net_with [| 5; 4; 1 |] (Array.concat [ gaussians r 20; Array.make 4 100.; w2; [| 0. |] ])
  in
  let x = Mlp.Matrix.of_array ~rows:7 ~cols:5 (gaussians r 35) in
  let y = gaussians r 7 in
  let d = output_delta net x y in
  let g = gradient net ~x ~y in
  check_close "tn"
    (naive_mm ~m:4 ~n:5 ~k:7 (fun j row -> d.(row) *. w2.(j)) (Mlp.Matrix.get x))
    (Array.sub g 0 20)

(* Forward: hidden-layer relu, through a 1-1-1 identity network. *)
let test_relu () =
  let net = net_with [| 1; 1; 1 |] [| 1.; 0.; 1.; 0. |] in
  let x = Mlp.Matrix.of_array ~rows:4 ~cols:1 [| -1.0; 0.0; 2.0; -3.0 |] in
  Alcotest.(check (array (float 0.0))) "relu" [| 0.0; 0.0; 2.0; 0.0 |]
    (Mlp.Network.predict net x)

(* Backward: the hidden delta is zeroed where the pre-activation is
   <= 0. Hidden pre-activations [-1; 0.5; 0; 3] and an incoming delta of
   9 on every unit, read off the hidden weights' and biases' gradients. *)
let test_relu_mask () =
  let net =
    net_with [| 1; 4; 1 |] [| -1.0; 0.5; 0.0; 3.0; 0.; 0.; 0.; 0.; 1.; 1.; 1.; 1.; 0. |]
  in
  (* prediction 3.5 against target -1: output delta 2 * 4.5 = 9 *)
  let g = gradient net ~x:(Mlp.Matrix.of_array ~rows:1 ~cols:1 [| 1. |]) ~y:[| -1. |] in
  Alcotest.(check (array (float 0.0))) "weights" [| 0.0; 9.0; 0.0; 9.0 |] (Array.sub g 0 4);
  Alcotest.(check (array (float 0.0))) "biases" [| 0.0; 9.0; 0.0; 9.0 |] (Array.sub g 4 4)

(* Backward: a layer's bias gradient is the column sums of its delta.
   Two rows whose output deltas are 1 and 2 reach hidden units with
   output weights [1; 2; 3]: hidden deltas [[1, 2, 3]; [2, 4, 6]]. *)
let test_col_sums () =
  let net = net_with [| 1; 3; 1 |] [| 1.; 1.; 1.; 0.; 0.; 0.; 1.; 2.; 3.; 0. |] in
  let x = Mlp.Matrix.of_array ~rows:2 ~cols:1 [| 1.; 1. |] in
  (* both rows predict 6 *)
  let g = gradient net ~x ~y:[| 5.; 4. |] in
  Alcotest.(check (array (float 0.0))) "hidden biases" [| 3.; 6.; 9. |] (Array.sub g 3 3);
  Alcotest.(check (float 0.0)) "output bias" 3. g.(9)

(* Forward: the bias row is added to every row of the product. Identity
   hidden weights and biases [10; 20], read out one unit at a time. *)
let test_add_row () =
  let x = Mlp.Matrix.of_array ~rows:2 ~cols:2 [| 1.; 2.; 3.; 4. |] in
  let unit readout =
    let hidden = [| 1.; 0.; 0.; 1.; 10.; 20. |] in
    Mlp.Network.predict (net_with [| 2; 2; 1 |] (Array.append hidden readout)) x
  in
  let u0 = unit [| 1.; 0.; 0. |] and u1 = unit [| 0.; 1.; 0. |] in
  Alcotest.(check (array (float 0.0))) "bias" [| 11.; 22.; 13.; 24. |]
    [| u0.(0); u1.(0); u0.(1); u1.(1) |]

(* --- network ------------------------------------------------------------ *)

let test_num_weights () =
  let net = Mlp.Network.create rng ~sizes:[| 3; 4; 1 |] in
  (* 3*4 + 4 biases + 4*1 + 1 bias = 21 *)
  Alcotest.(check int) "weights" 21 (Mlp.Network.num_weights net)

let test_predict_shape () =
  let net = Mlp.Network.create rng ~sizes:[| 3; 8; 1 |] in
  let x = random_mat 10 3 in
  Alcotest.(check int) "10 outputs" 10 (Array.length (Mlp.Network.predict net x))

(* The flat layout, by hand: a 2-2-1 network whose hidden layer is
   [[1, -2]; [3, 4]] with biases [0.5; -100] (unit 1 is dead), and whose
   output layer is [2, 7] with bias 1. *)
let test_predict_by_hand () =
  let net =
    with_params (Mlp.Network.create rng ~sizes:[| 2; 2; 1 |])
      [| 1.; -2.; 3.; 4.; 0.5; -100.; 2.; 7.; 1. |]
  in
  let x = Mlp.Matrix.of_array ~rows:3 ~cols:2 [| 1.; 0.; 0.; 1.; 2.; 0.25 |] in
  (* hidden unit 0: relu(x0 - 2 x1 + 0.5); output: 2 h0 + 1 *)
  Alcotest.(check (array (float 0.0))) "hand-computed" [| 4.; 1.; 5. |]
    (Mlp.Network.predict net x)

(* Backpropagation against central differences of [Network.mse]. On a
   fresh network one Adam step moves each parameter by about
   -lr * sign(g), so every parameter with a clearly non-zero gradient
   must move against it, and one with an exactly zero gradient (the
   weights and bias of a dead relu unit, and the weights reading its
   output) must not move. *)
let test_train_batch_finite_differences () =
  let r = Util.Rng.create 31 in
  let fresh = Mlp.Network.create r ~sizes:[| 3; 6; 5; 1 |] in
  let p = params fresh in
  (* Non-zero biases (parameters 18-23, 54-58 and 64), so no
     pre-activation sits exactly on relu's kink, where the two
     one-sided derivatives differ. Then hidden unit 2 of layer 0 never
     fires: its bias is parameter 20. *)
  List.iter
    (fun k -> p.(k) <- 0.1 *. Util.Rng.gaussian r)
    (List.init 6 (( + ) 18) @ List.init 5 (( + ) 54) @ [ 64 ]);
  p.(20) <- -100.0;
  let net = with_params fresh p in
  let x = Mlp.Matrix.of_array ~rows:8 ~cols:3 (Array.init 24 (fun _ -> Util.Rng.gaussian r)) in
  let y = Array.init 8 (fun _ -> Util.Rng.gaussian r) in
  Alcotest.(check bool) "C step = reference, dead unit included" true
    (steps_match_ref Library net x y);
  let h = 1e-5 in
  let fd =
    Array.mapi
      (fun k v ->
        let at dv =
          let q = Array.copy p in
          q.(k) <- v +. dv;
          Mlp.Network.mse (with_params net q) ~x ~y
        in
        (at h -. at (-.h)) /. (2.0 *. h))
      p
  in
  ignore (Mlp.Network.train_batch net Mlp.Network.default_adam ~x ~y);
  let moved = params net in
  let dead = ref 0 and live = ref 0 in
  Array.iteri
    (fun k g ->
      let delta = moved.(k) -. p.(k) in
      if g = 0.0 then begin
        incr dead;
        if delta <> 0.0 then Alcotest.failf "parameter %d: zero gradient, moved by %g" k delta
      end
      else if Float.abs g > 1e-6 then begin
        incr live;
        if not (delta *. g < 0.0) then
          Alcotest.failf "parameter %d: gradient %g, moved by %g" k g delta
      end)
    fd;
  (* the dead unit's 3 input weights, its bias and 5 output weights *)
  Alcotest.(check bool) "dead unit's 9 parameters seen" true (!dead >= 9);
  Alcotest.(check bool) "most parameters checked" true (!live >= 40)

let test_training_descends () =
  let net = Mlp.Network.create rng ~sizes:[| 2; 16; 1 |] in
  (* Fit y = x0 + 2*x1 on a fixed batch: loss must fall monotonically on
     average. *)
  let n = 64 in
  let x = random_mat n 2 in
  let y = Array.init n (fun i -> Mlp.Matrix.get x i 0 +. (2.0 *. Mlp.Matrix.get x i 1)) in
  let adam = Mlp.Network.default_adam in
  let first = Mlp.Network.train_batch net adam ~x ~y in
  for _ = 1 to 300 do
    ignore (Mlp.Network.train_batch net adam ~x ~y)
  done;
  let last = Mlp.Network.mse net ~x ~y in
  Alcotest.(check bool) "loss falls 10x" true (last < first /. 10.0)

let test_fit_linear_function () =
  let rng2 = Util.Rng.create 9 in
  let net = Mlp.Network.create rng2 ~sizes:[| 2; 32; 32; 1 |] in
  let n = 512 in
  let x = random_mat n 2 in
  let y = Array.init n (fun i ->
      let a = Mlp.Matrix.get x i 0 and b = Mlp.Matrix.get x i 1 in
      Float.max a b)
  in
  let (_ : Mlp.Train.history) =
    Mlp.Train.fit ~epochs:60 ~batch_size:32 rng2 net ~x ~y
  in
  (* max(a,b) is exactly the kind of kink relu nets capture (paper §5). *)
  Alcotest.(check bool) "fits max()" true (Mlp.Network.mse net ~x ~y < 0.01)

let test_history_shape () =
  let net = Mlp.Network.create rng ~sizes:[| 2; 4; 1 |] in
  let x = random_mat 100 2 in
  let y = Array.make 100 1.0 in
  let h = Mlp.Train.fit ~epochs:5 rng net ~x ~y ~validation:(x, y) in
  Alcotest.(check int) "train history" 5 (Array.length h.epoch_train_mse);
  Alcotest.(check int) "val history" 5 (Array.length h.epoch_val_mse)

let test_save_load_roundtrip () =
  let net = Mlp.Network.create rng ~sizes:[| 4; 8; 4; 1 |] in
  let net2 = load_lines (serialized net) in
  Alcotest.(check (list string)) "same serialization" (serialized net) (serialized net2);
  let x = random_mat 7 4 in
  Alcotest.(check (array (float 0.0))) "same predictions"
    (Mlp.Network.predict net x) (Mlp.Network.predict net2 x)

(* --- batched forward (Matrix path) --------------------------------------- *)

let test_matrix_roundtrip () =
  let a = Array.init 12 float_of_int in
  let m = Mlp.Matrix.of_array ~rows:4 ~cols:3 a in
  Alcotest.(check (array (float 0.0))) "roundtrip" a (Mlp.Matrix.to_array m);
  Alcotest.(check (float 0.0)) "get" 7.0 (Mlp.Matrix.get m 2 1)

let test_matrix_sub_rows_shares_storage () =
  let m = Mlp.Matrix.of_array ~rows:4 ~cols:3 (Array.init 12 float_of_int) in
  let v = Mlp.Matrix.sub_rows m ~off:1 ~len:2 in
  Alcotest.(check int) "view rows" 2 v.Mlp.Matrix.rows;
  Alcotest.(check (float 0.0)) "view offset" 3.0 (Mlp.Matrix.get v 0 0);
  Mlp.Matrix.set v 1 2 99.0;
  Alcotest.(check (float 0.0)) "write visible in parent" 99.0 (Mlp.Matrix.get m 2 2)

(* The float contract of the planning hot path: the batched Bigarray
   forward must be bit-equal to the OCaml reference — exact zero
   tolerance — for any batch size, including 1 and the widths that
   leave a partly filled SIMD vector or accumulator block. *)
let test_forward_batch_matches_predict entry =
  List.iter
    (fun sizes ->
      let net = Mlp.Network.create rng ~sizes in
      List.iter
        (fun batch ->
          let x = random_mat batch sizes.(0) in
          let want = Mlp.Network.predict net x in
          let got = forward_with entry net x in
          Alcotest.(check (array (float 0.0)))
            (Printf.sprintf "bit-equal at batch=%d" batch)
            want got)
        [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 14; 16; 17; 33 ])
    [ [| 16; 32; 1 |]; [| 16; 32; 64; 32; 1 |]; [| 3; 5; 1 |] ]

let test_forward_batch_rows_match_scalar () =
  let net = Mlp.Network.create rng ~sizes:[| 16; 32; 64; 32; 1 |] in
  let x = random_mat 37 16 in
  let batch = Mlp.Network.predict_matrix net x in
  Array.iteri
    (fun r p ->
      let row = Array.init 16 (fun j -> Mlp.Matrix.get x r j) in
      Alcotest.(check (float 0.0)) "row = scalar path"
        (Mlp.Network.predict_one net row) p)
    batch

(* Inputs the kernel special-cases: exact zeros of both signs (skipped)
   and whole zero rows, mixed with Gaussian values. *)
let zeroish_inputs r ~rows ~cols =
  let x = Mlp.Matrix.create rows cols in
  for i = 0 to rows - 1 do
    let zero_row = Util.Rng.int r 8 = 0 in
    for j = 0 to cols - 1 do
      let v =
        if zero_row then 0.0
        else
          match Util.Rng.int r 8 with
          | 0 | 1 -> 0.0
          | 2 -> -0.0
          | _ -> Util.Rng.gaussian r
      in
      Mlp.Matrix.set x i j v
    done
  done;
  x

(* One Adam step moves every bias off zero, so the bias add is exercised
   too (fresh networks start with zero biases). *)
let trained_net r sizes =
  let net = Mlp.Network.create r ~sizes in
  let x = zeroish_inputs r ~rows:4 ~cols:sizes.(0) in
  ignore
    (Mlp.Network.train_batch net Mlp.Network.default_adam ~x
       ~y:(Array.init 4 (fun _ -> Util.Rng.gaussian r)));
  net

(* The batched forward through [entry] on a [sub_rows] view at offset
   [off] of a larger matrix whose other rows are garbage, against
   [predict] on the rows alone. *)
let view_matches_predict entry r net x ~off =
  let rows = x.Mlp.Matrix.rows and cols = x.Mlp.Matrix.cols in
  let big = Mlp.Matrix.create (off + rows + 2) cols in
  for i = 0 to off + rows + 1 do
    for j = 0 to cols - 1 do
      let v =
        if i >= off && i < off + rows then Mlp.Matrix.get x (i - off) j
        else Util.Rng.gaussian r
      in
      Mlp.Matrix.set big i j v
    done
  done;
  let view = Mlp.Matrix.sub_rows big ~off ~len:rows in
  same_bits (Mlp.Network.predict net x) (forward_with entry net view)

let prop_forward_batch_bit_equal entry =
  QCheck.Test.make ~name:(named "forward_batch bit-equals predict" entry) ~count:60
    QCheck.(quad (int_range 1 70) (int_range 0 40) (int_range 0 5)
              (int_range 0 10_000))
    (fun (inputs, batch, off, seed) ->
      let r = Util.Rng.create (1 + seed) in
      let hidden = Array.init (1 + (seed mod 3)) (fun _ -> 1 + Util.Rng.int r 70) in
      let sizes = Array.concat [ [| inputs |]; hidden; [| 1 |] ] in
      let net = trained_net r sizes in
      view_matches_predict entry r net (zeroish_inputs r ~rows:batch ~cols:inputs) ~off)

(* The training step's float contract: three consecutive C steps against
   the OCaml reference on random widths, depths and batch sizes. *)
let prop_train_batch_bit_equal entry =
  QCheck.Test.make ~name:(named "train_batch bit-equals train_batch_ref" entry) ~count:60
    QCheck.(triple (int_range 1 70) (int_range 1 130) (int_range 0 10_000))
    (fun (inputs, batch, seed) ->
      let r = Util.Rng.create (1 + seed) in
      let hidden = Array.init (1 + (seed mod 3)) (fun _ -> 1 + Util.Rng.int r 70) in
      let sizes = Array.concat [ [| inputs |]; hidden; [| 1 |] ] in
      let net = trained_net r sizes in
      let x = zeroish_inputs r ~rows:batch ~cols:inputs in
      steps_match_ref entry net x (Array.init batch (fun _ -> Util.Rng.gaussian r)))

let test_forward_batch_wide_input entry =
  let r = Util.Rng.create 600 in
  let net = trained_net r [| 640; 70; 33; 1 |] in
  List.iter
    (fun batch ->
      Alcotest.(check bool)
        (Printf.sprintf "bit-equal at batch=%d" batch)
        true
        (view_matches_predict entry r net (zeroish_inputs r ~rows:batch ~cols:640)
           ~off:3))
    [ 0; 1; 9; 40 ]

(* With a non-finite weight a zero input no longer contributes an exact
   zero (0 * inf and 0 * nan are NaN), so the kernel must not skip zeros
   in that layer: NaN must land exactly where [predict] puts it. An inf
   weight leaves a mix of NaN, infinite and finite outputs; a NaN weight
   poisons every row. *)
let test_forward_batch_nonfinite_weights entry =
  let r = Util.Rng.create 77 in
  let base = trained_net r [| 5; 9; 6; 1 |] in
  let x = zeroish_inputs r ~rows:40 ~cols:5 in
  List.iter
    (fun (name, k, value, mixed) ->
      let p = params base in
      p.(k) <- value;
      let net = with_params base p in
      Alcotest.(check bool) (name ^ ": not finite") false (Mlp.Network.is_finite net);
      let want = Mlp.Network.predict net x in
      Alcotest.(check bool) (name ^ ": some NaN") true (Array.exists Float.is_nan want);
      Alcotest.(check bool) (name ^ ": some not NaN") mixed
        (Array.exists (fun v -> not (Float.is_nan v)) want);
      Alcotest.(check bool) (name ^ ": NaN positions and other bits match") true
        (view_matches_predict entry r net x ~off:1);
      (* The training step on the same rows with the first one all
         zero: 0 * inf is NaN, so no zero may be skipped there. *)
      let xz = Mlp.Matrix.copy x in
      for j = 0 to 4 do Mlp.Matrix.set xz 0 j 0.0 done;
      Alcotest.(check bool) (name ^ ": C step = reference, zero row included") true
        (steps_match_ref entry net xz (Array.init 40 float_of_int)))
    (* parameter 84 is layer 1's weight 30, after layer 0's 45 weights
       and 9 biases *)
    [ ("inf weight", 7, Float.infinity, true); ("nan weight", 84, Float.nan, false) ]

(* Zero deltas are skipped, not multiplied: 0 * inf is NaN. In each
   network the reference keeps the first weight finite only because of
   a skip, so a C step that multiplied instead would put NaN there.
   - Weight gradient: a 1-2-1 network on the rows [inf; -1]. In row 0
     hidden unit 0 reads -inf and is dead, so its delta is 0 against
     the activation inf; row 1 gives its weight a finite gradient.
   - Delta passed down: a 1-2-2-1 network whose second layer has weight
     -inf. Hidden unit 0 of that layer is dead in every row, and its
     zero delta meets the -inf weight on the way down. *)
let test_zero_deltas_skipped entry =
  List.iter
    (fun (name, sizes, p, inputs) ->
      let net = net_with sizes p in
      let rows = Array.length inputs in
      let x = Mlp.Matrix.of_array ~rows ~cols:1 inputs in
      let y = Array.make rows 0.0 in
      let r = Mlp.Network.copy net in
      ignore (Mlp.Network.train_batch_ref r Mlp.Network.default_adam ~x ~y);
      Alcotest.(check bool) (name ^ ": reference keeps the first weight finite") true
        (Float.is_finite (params r).(0));
      Alcotest.(check bool) (name ^ ": C step = reference") true
        (steps_match_ref entry net x y))
    [ ("weight gradient", [| 1; 2; 1 |], [| -1.; 1.; 0.; 0.; 1.; 1.; 0. |],
       [| Float.infinity; -1.0 |]);
      ("delta passed down", [| 1; 2; 2; 1 |],
       [| 1.; 1.; 0.; 0.; Float.neg_infinity; 0.; 1.; 1.; 0.; 0.; 1.; 1.; 0. |],
       [| 0.5; 2.0 |]) ]

(* The output layer of a one-output network runs [lanes] rows per
   vector, one row per lane, every input added in ascending order. Each
   case compares every row with [predict], on views at two offsets:
   - every batch size from 1 to [lanes + 1], and larger ones that leave
     a partly filled last group;
   - a network with no hidden layer, whose input rows are the output
     layer's inputs, -0.0 and NaN among them;
   - NaN inputs, which reach the last hidden layer through relu;
   - non-finite output weights: inf, -inf and NaN on a hidden unit
     that is zero in every row, where 0 * inf is NaN in every lane (a
     kernel that skipped the zero column would leave those rows
     finite), and inf on a live unit. *)
let test_output_layer_rows entry =
  let lanes = match entry with Library -> Mlp.Network.lanes | At l -> l in
  let batches =
    List.init (lanes + 1) (fun b -> b + 1) @ [ (2 * lanes) + 1; (3 * lanes) - 1; 37 ]
  in
  let r = Util.Rng.create 8128 in
  (* Zeros of both signs and whole zero rows, and with [nan] some NaNs. *)
  let inputs ?(nan = false) ~cols batch =
    let x = zeroish_inputs r ~rows:batch ~cols in
    if nan then
      for i = 0 to batch - 1 do
        if Util.Rng.int r 3 = 0 then Mlp.Matrix.set x i (Util.Rng.int r cols) Float.nan
      done;
    x
  in
  let check name net ?nan cols =
    List.iter
      (fun batch ->
        let x = inputs ?nan ~cols batch in
        List.iter
          (fun off ->
            if not (view_matches_predict entry r net x ~off) then
              Alcotest.failf "%s: batch %d at offset %d differs from predict" name
                batch off)
          [ 0; 3 ])
      batches
  in
  check "hidden layers" (trained_net r [| 16; 32; 64; 32; 1 |]) 16;
  check "NaN inputs" (trained_net r [| 7; 9; 1 |]) ~nan:true 7;
  check "no hidden layer" (trained_net r [| 5; 1 |]) ~nan:true 5;
  (* A 4-6-1 network whose hidden unit 2 has zero weights and bias -1,
     so relu makes it zero in every row. Parameters: 24 weights and 6
     biases, then the output layer's 6 weights and its bias. *)
  let base = trained_net r [| 4; 6; 1 |] in
  let dead = Array.copy (params base) in
  for k = 0 to 3 do dead.(8 + k) <- 0.0 done;
  dead.(24 + 2) <- -1.0;
  List.iter
    (fun (name, unit, w) ->
      let p = Array.copy dead in
      p.(30 + unit) <- w;
      let net = with_params base p in
      let x = inputs ~cols:4 9 in
      if unit = 2 then
        Alcotest.(check bool) (name ^ ": every prediction NaN") true
          (Array.for_all Float.is_nan (Mlp.Network.predict net x));
      check name net 4)
    [ ("inf weight on a dead unit", 2, Float.infinity);
      ("-inf weight on a dead unit", 2, Float.neg_infinity);
      ("NaN weight on a dead unit", 2, Float.nan);
      ("inf weight on a live unit", 0, Float.infinity) ];
  let p = params (trained_net r [| 5; 1 |]) in
  p.(1) <- Float.infinity;
  check "no hidden layer, inf weight" (net_with [| 5; 1 |] p) 5

(* The kernel computes one output per row. A network with two outputs,
   which only a hand-written serialization can give, is refused by
   name. *)
let test_forward_batch_output_width entry =
  let net =
    load_lines [ "mlp 3"; "2 3 2"; "0"; "1 2 3 4 5 6"; "0 0 0"; "1 2 3 4 5 6"; "0 0" ]
  in
  Alcotest.check_raises "two outputs"
    (Invalid_argument "Network.forward_batch: output width") (fun () ->
      ignore (forward_with entry net (random_mat 3 2)))

(* --- coded rows ----------------------------------------------------------- *)

let codes_with entry net ~shared ~tables codes ~off ~len =
  match entry with
  | Library -> Mlp.Network.predict_codes net ~shared ~tables codes ~off ~len
  | At lanes -> Mlp.Network.predict_codes_at ~lanes net ~shared ~tables codes ~off ~len

let int32_codes l : Mlp.Network.codes =
  Bigarray.Array1.of_array Bigarray.int32 Bigarray.c_layout
    (Array.of_list (List.map Int32.of_int l))

let log2 n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 0

(* The input rows [len] codes from [off] stand for: [shared], then per
   table the entry its field of the code selects, fields packed lowest
   first, each [log2 (length)] bits wide, the code read unsigned. *)
let materialize ~shared ~tables (codes : Mlp.Network.codes) ~off ~len =
  let ns = Array.length shared in
  let x = Mlp.Matrix.create len (ns + Array.length tables) in
  for r = 0 to len - 1 do
    let code = Int32.to_int codes.{off + r} land 0xffff_ffff in
    Array.iteri (fun k v -> Mlp.Matrix.set x r k v) shared;
    let shift = ref 0 in
    Array.iteri
      (fun j t ->
        let n = Array.length t in
        Mlp.Matrix.set x r (ns + j) t.((code lsr !shift) land (n - 1));
        shift := !shift + log2 n)
      tables
  done;
  x

let codes_match_predict entry net ~shared ~tables codes ~off ~len =
  same_bits
    (Mlp.Network.predict net (materialize ~shared ~tables codes ~off ~len))
    (codes_with entry net ~shared ~tables codes ~off ~len)

(* Values the first layer special-cases: zeros of both signs, and with
   [nan] some NaNs, among Gaussian values. *)
let coded_value ?(nan = false) r =
  match Util.Rng.int r 8 with
  | 0 | 1 -> 0.0
  | 2 -> -0.0
  | 3 when nan -> Float.nan
  | _ -> Util.Rng.gaussian r

(* [n] random codes over [bits] bits, the top bit (the int32 sign)
   included when [bits = 32]. *)
let random_codes r ~bits n =
  int32_codes
    (List.init n (fun _ ->
         let lo = Util.Rng.int r (1 lsl min bits 16) in
         if bits <= 16 then lo else lo lor (Util.Rng.int r (1 lsl (bits - 16)) lsl 16)))

(* The coded kernel against [predict] on random networks of depth 0 to
   2, random shared and table values (zeros, NaN), random field widths
   (0 to 3 bits, so length-1 tables too), batch sizes and offsets. *)
let prop_codes_bit_equal entry =
  QCheck.Test.make ~name:(named "predict_codes bit-equals predict" entry) ~count:60
    QCheck.(quad (int_range 0 6) (int_range 0 10) (int_range 0 40) (int_range 0 10_000))
    (fun (ns, nf, batch, seed) ->
      let r = Util.Rng.create (1 + seed) in
      let nf = if ns + nf = 0 then 1 else nf in
      let hidden = Array.init (seed mod 3) (fun _ -> 1 + Util.Rng.int r 40) in
      let net = trained_net r (Array.concat [ [| ns + nf |]; hidden; [| 1 |] ]) in
      let nan = seed mod 2 = 0 in
      let shared = Array.init ns (fun _ -> coded_value ~nan r) in
      let bits = Array.init nf (fun _ -> Util.Rng.int r 4) in
      let tables =
        Array.map (fun b -> Array.init (1 lsl b) (fun _ -> coded_value ~nan r)) bits
      in
      let off = seed mod 5 in
      let codes =
        random_codes r ~bits:(Array.fold_left ( + ) 0 bits) (off + batch + 2)
      in
      codes_match_predict entry net ~shared ~tables codes ~off ~len:batch)

(* Fixed cases, each at every batch size from 1 to 2 * lanes + 1 and at
   offsets 0 and 3 into the codes, against [predict] row for row:
   - codes that run every table index of every field, whose fields
     fill all 32 bits, so codes with the int32 sign bit set occur;
   - all-zero tables and shared values, of both signs;
   - NaN among the shared and table values;
   - an inf weight on a shared input and a NaN weight on a coded one,
     each meeting zero values, so a layer that skipped zeros would
     miss a NaN;
   - a network with no hidden layer, whose inputs are the row-lane
     output layer's, with and without an inf weight. *)
let test_codes_cases entry =
  let lanes = match entry with Library -> Mlp.Network.lanes | At l -> l in
  let r = Util.Rng.create 4242 in
  let bits = [| 3; 1; 3; 2; 3; 3; 3; 3; 3; 3; 3; 2 |] in
  let values f = Array.map (fun b -> Array.init (1 lsl b) (fun _ -> f ())) bits in
  (* Row [i] puts index [i mod 2^b] in every field of [b] bits, so the
     8 rows run every index of every field; the last field's top bit is
     bit 31 of the code, so row 7 is negative as an int32. *)
  let every_index =
    int32_codes
      (List.init 8 (fun i ->
           snd
             (Array.fold_left
                (fun (shift, c) b -> (shift + b, c lor ((i land ((1 lsl b) - 1)) lsl shift)))
                (0, 0) bits)))
  in
  assert (Array.fold_left ( + ) 0 bits = 32);
  assert (Int32.compare every_index.{7} 0l < 0);
  let check name net ~shared ~tables =
    if
      not
        (codes_match_predict entry net ~shared ~tables every_index ~off:0 ~len:8)
    then Alcotest.failf "%s: every index differs from predict" name;
    List.iter
      (fun len ->
        List.iter
          (fun off ->
            let codes = random_codes r ~bits:32 (off + len + 1) in
            if not (codes_match_predict entry net ~shared ~tables codes ~off ~len) then
              Alcotest.failf "%s: batch %d at offset %d differs from predict" name len off)
          [ 0; 3 ])
      (List.init ((2 * lanes) + 1) (fun b -> b + 1))
  in
  let sizes = [| 16; 32; 64; 32; 1 |] in
  let net = trained_net r sizes in
  let gauss () = Util.Rng.gaussian r in
  check "every index" net ~shared:(Array.init 4 (fun _ -> gauss ())) ~tables:(values gauss);
  check "zeros" net ~shared:[| 0.0; -0.0; 0.0; -0.0 |]
    ~tables:(values (fun () -> if Util.Rng.int r 2 = 0 then 0.0 else -0.0));
  let zeroish ?nan () = coded_value ?nan r in
  let shared = Array.init 4 (fun _ -> zeroish ()) in
  shared.(1) <- 0.0;
  let tables = values (zeroish ~nan:true) in
  check "NaN values" net ~shared:(Array.init 4 (fun _ -> zeroish ~nan:true ())) ~tables;
  (* Weight k of first-layer neuron 3 is parameter 3 * 16 + k. *)
  List.iter
    (fun (name, k, w) ->
      let p = params net in
      p.((3 * 16) + k) <- w;
      let net = with_params net p in
      Alcotest.(check bool) (name ^ ": not finite") false (Mlp.Network.is_finite net);
      check name net ~shared ~tables:(values (zeroish ~nan:false)))
    [ ("inf weight on a zero shared input", 1, Float.infinity);
      ("NaN weight on a coded input", 9, Float.nan) ];
  let flat = trained_net r [| 16; 1 |] in
  check "no hidden layer" flat ~shared ~tables;
  let p = params flat in
  p.(7) <- Float.neg_infinity;
  check "no hidden layer, -inf weight" (net_with [| 16; 1 |] p) ~shared
    ~tables:(values (zeroish ~nan:false))

(* Every size the kernel validates is refused by name before it reads a
   code. *)
let test_codes_bad_sizes entry =
  let net = trained_net (Util.Rng.create 31) [| 4; 5; 1 |] in
  let codes = int32_codes [ 0; 1; 2; 3 ] in
  let tables = [| [| 1.0; 2.0 |]; [| 3.0 |] |] in
  let refused name msg f =
    Alcotest.check_raises name (Invalid_argument ("Network.predict_codes: " ^ msg))
      (fun () -> ignore (f ()))
  in
  let call ?(net = net) ?(shared = [| 0.5; 0.25 |]) ?(tables = tables) ?(off = 0)
      ?(len = 4) () =
    codes_with entry net ~shared ~tables codes ~off ~len
  in
  Alcotest.(check int) "valid call" 4 (Array.length (call ()));
  refused "one input short" "input width" (call ~shared:[| 0.5 |]);
  refused "one input over" "input width" (call ~tables:[| [| 1.0 |]; [| 1.0 |]; [| 1.0 |] |]);
  refused "empty table" "table length" (call ~tables:[| [| 1.0 |]; [||] |]);
  refused "table of 3" "table length" (call ~tables:[| [| 1.0; 2.0; 3.0 |]; [| 1.0 |] |]);
  refused "33 bits of fields" "code width"
    (call ~tables:[| Array.make (1 lsl 17) 0.0; Array.make (1 lsl 16) 0.0 |]);
  refused "negative offset" "row range" (call ~off:(-1) ~len:1);
  refused "negative length" "row range" (call ~len:(-1));
  refused "past the end" "row range" (call ~off:1 ~len:4);
  refused "offset past the end" "row range" (call ~off:5 ~len:0);
  Alcotest.(check int) "empty range at the end" 0 (Array.length (call ~off:4 ~len:0 ()));
  let two_outputs =
    load_lines [ "mlp 3"; "2 3 2"; "0"; "1 2 3 4 5 6"; "0 0 0"; "1 2 3 4 5 6"; "0 0" ]
  in
  refused "two outputs" "output width"
    (call ~net:two_outputs ~shared:[| 0.5 |] ~tables:[| [| 1.0 |] |]);
  match entry with
  | Library -> ()
  | At _ ->
    Alcotest.check_raises "3 lanes"
      (Invalid_argument "Network.predict_codes_at: 3 lanes not supported by this CPU")
      (fun () ->
        ignore
          (Mlp.Network.predict_codes_at ~lanes:3 net ~shared:[| 0.5; 0.25 |] ~tables
             codes ~off:0 ~len:4))

let test_split () =
  let x = random_mat 100 3 in
  let y = Array.init 100 float_of_int in
  let (xt, yt), (xv, yv) = Mlp.Train.split rng ~test_fraction:0.2 ~x ~y in
  Alcotest.(check int) "train rows" 80 xt.Mlp.Matrix.rows;
  Alcotest.(check int) "test rows" 20 xv.Mlp.Matrix.rows;
  Alcotest.(check int) "train labels" 80 (Array.length yt);
  Alcotest.(check int) "test labels" 20 (Array.length yv);
  (* disjoint and exhaustive *)
  let all = Array.concat [ yt; yv ] in
  Array.sort compare all;
  Array.iteri (fun i v -> Alcotest.(check (float 0.0)) "partition" (float_of_int i) v) all

(* Fewer rows than one batch train as one batch of all of them: one
   Adam step per epoch. No rows at all is rejected. *)
let test_fit_fewer_rows_than_a_batch () =
  let r = Util.Rng.create 5 in
  let net = Mlp.Network.create r ~sizes:[| 2; 4; 1 |] in
  let before = params net in
  let x = random_mat 10 2 and y = Array.init 10 float_of_int in
  let h = Mlp.Train.fit ~epochs:3 r net ~x ~y in
  Alcotest.(check int) "one step per epoch" 3 (step net);
  Alcotest.(check bool) "finite epoch losses" true
    (Array.for_all Float.is_finite h.epoch_train_mse);
  Alcotest.(check bool) "weights moved" true (params net <> before);
  Alcotest.check_raises "no rows" (Invalid_argument "Train.fit: 0 training rows")
    (fun () -> ignore (Mlp.Train.fit r net ~x:(Mlp.Matrix.create 0 2) ~y:[||]))

(* Argument holes: each raises [Invalid_argument] naming the argument,
   and a rejected step leaves the network as it was. *)
let test_fit_batch_size_zero () =
  let r = Util.Rng.create 6 in
  let net = Mlp.Network.create r ~sizes:[| 2; 4; 1 |] in
  Alcotest.check_raises "batch_size 0" (Invalid_argument "Train.fit: batch_size 0")
    (fun () ->
      ignore (Mlp.Train.fit ~batch_size:0 r net ~x:(random_mat 10 2) ~y:(Array.make 10 0.0)))

let test_fit_negative_epochs () =
  let r = Util.Rng.create 7 in
  let net = Mlp.Network.create r ~sizes:[| 2; 4; 1 |] in
  Alcotest.check_raises "epochs -1" (Invalid_argument "Train.fit: epochs -1") (fun () ->
      ignore (Mlp.Train.fit ~epochs:(-1) r net ~x:(random_mat 10 2) ~y:(Array.make 10 0.0)))

let test_train_batch_no_rows () =
  let net = trained_net (Util.Rng.create 8) [| 2; 4; 1 |] in
  let before = serialized net in
  List.iter
    (fun (name, step) ->
      Alcotest.check_raises name (Invalid_argument "Network.train_batch: x has no rows")
        (fun () -> ignore (step net Mlp.Network.default_adam ~x:(Mlp.Matrix.create 0 2) ~y:[||]));
      Alcotest.(check (list string)) (name ^ ": network unchanged") before (serialized net))
    [ ("train_batch", Mlp.Network.train_batch); ("train_batch_ref", Mlp.Network.train_batch_ref) ]

let test_train_batch_width () =
  let net = trained_net (Util.Rng.create 9) [| 2; 4; 1 |] in
  List.iter
    (fun (name, step) ->
      Alcotest.check_raises name (Invalid_argument "Network.train_batch: input width")
        (fun () ->
          ignore (step net Mlp.Network.default_adam ~x:(random_mat 4 3) ~y:(Array.make 4 0.0))))
    [ ("train_batch", Mlp.Network.train_batch); ("train_batch_ref", Mlp.Network.train_batch_ref) ]

let prop_copy_independent =
  QCheck.Test.make ~name:"network copy is deep" QCheck.unit (fun () ->
      let rng = Util.Rng.create 3 in
      let net = Mlp.Network.create rng ~sizes:[| 2; 4; 1 |] in
      let copy = Mlp.Network.copy net in
      let x = Mlp.Matrix.of_array ~rows:1 ~cols:2 [| 1.0; 2.0 |] in
      let before = (Mlp.Network.predict copy x).(0) in
      ignore (Mlp.Network.train_batch net Mlp.Network.default_adam ~x ~y:[| 5.0 |]);
      (Mlp.Network.predict copy x).(0) = before)

(* The float-contract cases, through [entry]. *)
let contract_cases entry =
  [ quick (named "forward_batch = predict" entry) (fun () ->
        test_forward_batch_matches_predict entry);
    quick (named "input width 640" entry) (fun () -> test_forward_batch_wide_input entry);
    quick (named "non-finite weights" entry) (fun () ->
        test_forward_batch_nonfinite_weights entry);
    quick (named "zero deltas skipped" entry) (fun () -> test_zero_deltas_skipped entry);
    QCheck_alcotest.to_alcotest (prop_forward_batch_bit_equal entry);
    QCheck_alcotest.to_alcotest (prop_train_batch_bit_equal entry) ]

(* The same cases at every width the kernel is compiled for. A width
   the running CPU lacks is skipped by name and never called: its
   instructions would fault. *)
let ran, skipped = List.partition (fun l -> l <= Mlp.Network.lanes) Mlp.Network.compiled_lanes

let at_every_width cases =
  List.concat_map
    (fun lanes ->
      List.map
        (fun (name, speed, run) ->
          Alcotest.test_case name speed
            (if List.mem lanes ran then run else fun () -> Alcotest.skip ()))
        (cases (At lanes)))
    Mlp.Network.compiled_lanes

(* Listed after [contract_cases] at every width, so the cases above keep
   their numbers. *)
let four_row_case entry =
  [ quick (named "four-row output layer" entry) (fun () -> test_output_layer_rows entry);
    quick (named "output width 2 rejected" entry) (fun () ->
        test_forward_batch_output_width entry) ]

(* The coded-row kernel's cases, listed last for the same reason. *)
let coded_cases entry =
  [ QCheck_alcotest.to_alcotest (prop_codes_bit_equal entry);
    quick (named "predict_codes = predict" entry) (fun () -> test_codes_cases entry);
    quick (named "predict_codes sizes refused" entry) (fun () ->
        test_codes_bad_sizes entry) ]

let () =
  let show l = String.concat " " (List.map string_of_int l) in
  Printf.printf "test_mlp: kernel widths run: %s lanes; skipped, not supported by this CPU: %s\n%!"
    (show ran) (if skipped = [] then "none" else show skipped ^ " lanes");
  Alcotest.run "mlp"
    [ ("tensor",
       [ quick "matmul_nt" test_matmul_nt;
         quick "matmul_nn" test_matmul_nn;
         quick "matmul_tn" test_matmul_tn;
         quick "relu" test_relu;
         quick "relu mask" test_relu_mask;
         quick "col sums" test_col_sums;
         quick "add row" test_add_row ]);
      ("network",
       [ quick "num weights" test_num_weights;
         quick "predict shape" test_predict_shape;
         quick "predict by hand" test_predict_by_hand;
         quick "train_batch vs finite differences" test_train_batch_finite_differences;
         quick "training descends" test_training_descends;
         Alcotest.test_case "fits max()" `Slow test_fit_linear_function;
         quick "history shape" test_history_shape;
         quick "save/load" test_save_load_roundtrip;
         QCheck_alcotest.to_alcotest prop_copy_independent ]);
      ("matrix",
       [ quick "roundtrip" test_matrix_roundtrip;
         quick "sub_rows view" test_matrix_sub_rows_shares_storage;
         quick "rows match scalar path" test_forward_batch_rows_match_scalar ]
       @ contract_cases Library @ four_row_case Library @ coded_cases Library);
      ("widths",
       at_every_width contract_cases @ at_every_width four_row_case
       @ at_every_width coded_cases);
      ("train",
       [ quick "split" test_split;
         quick "fewer rows than a batch" test_fit_fewer_rows_than_a_batch;
         quick "batch_size 0" test_fit_batch_size_zero;
         quick "negative epochs" test_fit_negative_epochs;
         quick "train_batch on no rows" test_train_batch_no_rows;
         quick "train_batch input width" test_train_batch_width ]) ]
