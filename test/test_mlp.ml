(* Tests for the MLP library: tensor algebra against naive references,
   training dynamics, and serialization. *)

let quick name f = Alcotest.test_case name `Quick f

let rng = Util.Rng.create 1234

let random_mat rows cols =
  let t = Mlp.Tensor.create rows cols in
  Array.iteri (fun i _ -> t.Mlp.Tensor.data.(i) <- Util.Rng.gaussian rng) t.Mlp.Tensor.data;
  t

let naive_mm ~m ~n ~k get_a get_b =
  let out = Mlp.Tensor.create m n in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc := !acc +. (get_a i l *. get_b l j)
      done;
      Mlp.Tensor.set out i j !acc
    done
  done;
  out

let check_close name a b =
  assert (a.Mlp.Tensor.rows = b.Mlp.Tensor.rows && a.Mlp.Tensor.cols = b.Mlp.Tensor.cols);
  Array.iteri
    (fun i v ->
      if Float.abs (v -. b.Mlp.Tensor.data.(i)) > 1e-9 then
        Alcotest.failf "%s: element %d differs: %g vs %g" name i v b.Mlp.Tensor.data.(i))
    a.Mlp.Tensor.data

let test_matmul_nt () =
  let a = random_mat 5 7 and b = random_mat 4 7 in
  let got = Mlp.Tensor.matmul_nt a b in
  let want =
    naive_mm ~m:5 ~n:4 ~k:7 (Mlp.Tensor.get a) (fun l j -> Mlp.Tensor.get b j l)
  in
  check_close "nt" got want

let test_matmul_nn () =
  let a = random_mat 5 7 and b = random_mat 7 4 in
  check_close "nn" (Mlp.Tensor.matmul_nn a b)
    (naive_mm ~m:5 ~n:4 ~k:7 (Mlp.Tensor.get a) (Mlp.Tensor.get b))

let test_matmul_tn () =
  let a = random_mat 7 5 and b = random_mat 7 4 in
  check_close "tn" (Mlp.Tensor.matmul_tn a b)
    (naive_mm ~m:5 ~n:4 ~k:7 (fun i l -> Mlp.Tensor.get a l i) (Mlp.Tensor.get b))

let test_relu () =
  let t = Mlp.Tensor.of_array ~rows:1 ~cols:4 [| -1.0; 0.0; 2.0; -3.0 |] in
  Mlp.Tensor.relu_inplace t;
  Alcotest.(check (array (float 0.0))) "relu" [| 0.0; 0.0; 2.0; 0.0 |] t.Mlp.Tensor.data

let test_relu_mask () =
  let z = Mlp.Tensor.of_array ~rows:1 ~cols:4 [| -1.0; 0.5; 0.0; 3.0 |] in
  let d = Mlp.Tensor.of_array ~rows:1 ~cols:4 [| 9.0; 9.0; 9.0; 9.0 |] in
  Mlp.Tensor.relu_mask_inplace d z;
  Alcotest.(check (array (float 0.0))) "mask" [| 0.0; 9.0; 0.0; 9.0 |] d.Mlp.Tensor.data

let test_col_sums () =
  let t = Mlp.Tensor.of_array ~rows:2 ~cols:3 [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  Alcotest.(check (array (float 1e-12))) "col sums" [| 5.; 7.; 9. |]
    (Mlp.Tensor.col_sums t)

let test_add_row () =
  let t = Mlp.Tensor.of_array ~rows:2 ~cols:2 [| 1.; 2.; 3.; 4. |] in
  Mlp.Tensor.add_row_inplace t [| 10.; 20. |];
  Alcotest.(check (array (float 0.0))) "bias" [| 11.; 22.; 13.; 24. |] t.Mlp.Tensor.data

(* --- network ------------------------------------------------------------ *)

let test_num_weights () =
  let net = Mlp.Network.create rng ~sizes:[| 3; 4; 1 |] in
  (* 3*4 + 4 biases + 4*1 + 1 bias = 21 *)
  Alcotest.(check int) "weights" 21 (Mlp.Network.num_weights net)

let test_predict_shape () =
  let net = Mlp.Network.create rng ~sizes:[| 3; 8; 1 |] in
  let x = random_mat 10 3 in
  Alcotest.(check int) "10 outputs" 10 (Array.length (Mlp.Network.predict net x))

let test_training_descends () =
  let net = Mlp.Network.create rng ~sizes:[| 2; 16; 1 |] in
  (* Fit y = x0 + 2*x1 on a fixed batch: loss must fall monotonically on
     average. *)
  let n = 64 in
  let x = random_mat n 2 in
  let y = Array.init n (fun i -> Mlp.Tensor.get x i 0 +. (2.0 *. Mlp.Tensor.get x i 1)) in
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
      let a = Mlp.Tensor.get x i 0 and b = Mlp.Tensor.get x i 1 in
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
  let path = Filename.temp_file "mlp" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Mlp.Network.save net oc;
      close_out oc;
      let ic = open_in path in
      let net2 = Mlp.Network.load ic in
      close_in ic;
      let x = random_mat 7 4 in
      Alcotest.(check (array (float 1e-12))) "same predictions"
        (Mlp.Network.predict net x) (Mlp.Network.predict net2 x))

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
   forward must be bit-equal to the Tensor pipeline — exact zero
   tolerance — for any batch size, including 1 and the widths that
   leave a partly filled SIMD vector or accumulator block. *)
let test_forward_batch_matches_predict () =
  List.iter
    (fun sizes ->
      let net = Mlp.Network.create rng ~sizes in
      List.iter
        (fun batch ->
          let x = random_mat batch sizes.(0) in
          let want = Mlp.Network.predict net x in
          let got = Mlp.Network.predict_matrix net (Mlp.Matrix.of_tensor x) in
          Alcotest.(check (array (float 0.0)))
            (Printf.sprintf "bit-equal at batch=%d" batch)
            want got)
        [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 14; 16; 17; 33 ])
    [ [| 16; 32; 1 |]; [| 16; 32; 64; 32; 1 |]; [| 3; 5; 1 |] ]

let test_forward_batch_rows_match_scalar () =
  let net = Mlp.Network.create rng ~sizes:[| 16; 32; 64; 32; 1 |] in
  let x = random_mat 37 16 in
  let batch = Mlp.Network.predict_matrix net (Mlp.Matrix.of_tensor x) in
  Array.iteri
    (fun r p ->
      let row = Array.init 16 (fun j -> Mlp.Tensor.get x r j) in
      Alcotest.(check (float 0.0)) "row = scalar path"
        (Mlp.Network.predict_one net row) p)
    batch

(* Bit equality that also tells -0.0 from +0.0; NaN matches NaN in
   position only, since a NaN's payload is not part of the contract. *)
let same_bits want got =
  Array.length want = Array.length got
  && Array.for_all2
       (fun a b ->
         if Float.is_nan a then Float.is_nan b
         else Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       want got

(* Inputs the kernel special-cases: exact zeros of both signs (skipped)
   and whole zero rows, mixed with Gaussian values. *)
let zeroish_inputs r ~rows ~cols =
  let x = Mlp.Tensor.create rows cols in
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
      Mlp.Tensor.set x i j v
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

(* [predict_matrix] on a [sub_rows] view at offset [off] of a larger
   matrix whose other rows are garbage, against [predict] on the rows
   alone. *)
let view_matches_predict r net x ~off =
  let rows = x.Mlp.Tensor.rows and cols = x.Mlp.Tensor.cols in
  let big = Mlp.Matrix.create (off + rows + 2) cols in
  for i = 0 to off + rows + 1 do
    for j = 0 to cols - 1 do
      let v =
        if i >= off && i < off + rows then Mlp.Tensor.get x (i - off) j
        else Util.Rng.gaussian r
      in
      Mlp.Matrix.set big i j v
    done
  done;
  let view = Mlp.Matrix.sub_rows big ~off ~len:rows in
  same_bits (Mlp.Network.predict net x) (Mlp.Network.predict_matrix net view)

let prop_forward_batch_bit_equal =
  QCheck.Test.make ~name:"forward_batch bit-equals predict" ~count:60
    QCheck.(quad (int_range 1 70) (int_range 0 40) (int_range 0 5)
              (int_range 0 10_000))
    (fun (inputs, batch, off, seed) ->
      let r = Util.Rng.create (1 + seed) in
      let hidden = Array.init (1 + (seed mod 3)) (fun _ -> 1 + Util.Rng.int r 70) in
      let sizes = Array.concat [ [| inputs |]; hidden; [| 1 |] ] in
      let net = trained_net r sizes in
      view_matches_predict r net (zeroish_inputs r ~rows:batch ~cols:inputs) ~off)

let test_forward_batch_wide_input () =
  let r = Util.Rng.create 600 in
  let net = trained_net r [| 640; 70; 33; 1 |] in
  List.iter
    (fun batch ->
      Alcotest.(check bool)
        (Printf.sprintf "bit-equal at batch=%d" batch)
        true
        (view_matches_predict r net (zeroish_inputs r ~rows:batch ~cols:640)
           ~off:3))
    [ 0; 1; 9; 40 ]

(* Set weights through the text serialization (the network type is
   abstract): [(layer, index, value)] replaces that layer's weight. *)
let with_weights net edits =
  let buf = Buffer.create 4096 in
  Mlp.Network.save_buf buf net;
  let lines = Array.of_list (String.split_on_char '\n' (Buffer.contents buf)) in
  List.iter
    (fun (layer, index, value) ->
      let line = 3 + (2 * layer) in
      let words =
        Array.of_list
          (List.filter (( <> ) "") (String.split_on_char ' ' lines.(line)))
      in
      words.(index) <- value;
      lines.(line) <- String.concat " " (Array.to_list words))
    edits;
  let rest = ref (Array.to_list lines) in
  Mlp.Network.load_from (fun () ->
      match !rest with [] -> raise End_of_file | l :: tl -> rest := tl; l)

(* With a non-finite weight a zero input no longer contributes an exact
   zero (0 * inf and 0 * nan are NaN), so the kernel must not skip zeros
   in that layer: NaN must land exactly where [predict] puts it. An inf
   weight leaves a mix of NaN, infinite and finite outputs; a NaN weight
   poisons every row. *)
let test_forward_batch_nonfinite_weights () =
  let r = Util.Rng.create 77 in
  let base = trained_net r [| 5; 9; 6; 1 |] in
  let x = zeroish_inputs r ~rows:40 ~cols:5 in
  List.iter
    (fun (name, edits, mixed) ->
      let net = with_weights base edits in
      Alcotest.(check bool) (name ^ ": not finite") false (Mlp.Network.is_finite net);
      let want = Mlp.Network.predict net x in
      Alcotest.(check bool) (name ^ ": some NaN") true (Array.exists Float.is_nan want);
      Alcotest.(check bool) (name ^ ": some not NaN") mixed
        (Array.exists (fun v -> not (Float.is_nan v)) want);
      Alcotest.(check bool) (name ^ ": NaN positions and other bits match") true
        (view_matches_predict r net x ~off:1))
    [ ("inf weight", [ (0, 7, "inf") ], true); ("nan weight", [ (1, 30, "nan") ], false) ]

let test_split () =
  let x = random_mat 100 3 in
  let y = Array.init 100 float_of_int in
  let (xt, yt), (xv, yv) = Mlp.Train.split rng ~test_fraction:0.2 ~x ~y in
  Alcotest.(check int) "train rows" 80 xt.Mlp.Tensor.rows;
  Alcotest.(check int) "test rows" 20 xv.Mlp.Tensor.rows;
  Alcotest.(check int) "train labels" 80 (Array.length yt);
  Alcotest.(check int) "test labels" 20 (Array.length yv);
  (* disjoint and exhaustive *)
  let all = Array.concat [ yt; yv ] in
  Array.sort compare all;
  Array.iteri (fun i v -> Alcotest.(check (float 0.0)) "partition" (float_of_int i) v) all

let prop_copy_independent =
  QCheck.Test.make ~name:"network copy is deep" QCheck.unit (fun () ->
      let rng = Util.Rng.create 3 in
      let net = Mlp.Network.create rng ~sizes:[| 2; 4; 1 |] in
      let copy = Mlp.Network.copy net in
      let x = Mlp.Tensor.of_array ~rows:1 ~cols:2 [| 1.0; 2.0 |] in
      let before = (Mlp.Network.predict copy x).(0) in
      ignore (Mlp.Network.train_batch net Mlp.Network.default_adam ~x ~y:[| 5.0 |]);
      (Mlp.Network.predict copy x).(0) = before)

let () =
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
         quick "training descends" test_training_descends;
         Alcotest.test_case "fits max()" `Slow test_fit_linear_function;
         quick "history shape" test_history_shape;
         quick "save/load" test_save_load_roundtrip;
         QCheck_alcotest.to_alcotest prop_copy_independent ]);
      ("matrix",
       [ quick "roundtrip" test_matrix_roundtrip;
         quick "sub_rows view" test_matrix_sub_rows_shares_storage;
         quick "forward_batch = predict" test_forward_batch_matches_predict;
         quick "rows match scalar path" test_forward_batch_rows_match_scalar;
         quick "input width 640" test_forward_batch_wide_input;
         quick "non-finite weights" test_forward_batch_nonfinite_weights;
         QCheck_alcotest.to_alcotest prop_forward_batch_bit_equal ]);
      ("train", [ quick "split" test_split ]) ]
