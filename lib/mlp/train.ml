type history = {
  epoch_train_mse : float array;
  epoch_val_mse : float array;
}

(* Row [r] of [src] into row [i] of [dst]. *)
let blit_row (src : Matrix.t) r (dst : Matrix.t) i =
  for j = 0 to src.cols - 1 do
    dst.data.{(i * dst.cols) + j} <- src.data.{(r * src.cols) + j}
  done

let rows x idx =
  let out = Matrix.create (List.length idx) x.Matrix.cols in
  List.iteri (fun i r -> blit_row x r out i) idx;
  out

let fit ?(batch_size = 64) ?(epochs = 20) ?(adam = Network.default_adam) ?validation
    rng net ~x ~y =
  let n = x.Matrix.rows in
  if batch_size < 1 then invalid_arg (Printf.sprintf "Train.fit: batch_size %d" batch_size);
  if epochs < 0 then invalid_arg (Printf.sprintf "Train.fit: epochs %d" epochs);
  if Array.length y <> n then invalid_arg "Train.fit: y length";
  if n < 1 then invalid_arg (Printf.sprintf "Train.fit: %d training rows" n);
  (* Fewer rows than one batch train as one batch of all of them. *)
  let batch_size = min batch_size n in
  Obs.Span.with_ "mlp.fit"
    ~meta:(fun () ->
      [ ("epochs", Obs.Json.Int epochs);
        ("batch_size", Obs.Json.Int batch_size);
        ("n", Obs.Json.Int n) ])
    (fun () ->
  let order = Array.init n (fun i -> i) in
  let train_hist = Array.make epochs 0.0 in
  let val_hist =
    match validation with Some _ -> Array.make epochs 0.0 | None -> [||]
  in
  let xb = Matrix.create batch_size x.Matrix.cols in
  let yb = Array.make batch_size 0.0 in
  for epoch = 0 to epochs - 1 do
    Util.Rng.shuffle rng order;
    let batches = ref 0 and loss_sum = ref 0.0 in
    let i = ref 0 in
    while !i + batch_size <= n do
      for j = 0 to batch_size - 1 do
        let r = order.(!i + j) in
        blit_row x r xb j;
        yb.(j) <- y.(r)
      done;
      loss_sum := !loss_sum +. Network.train_batch net adam ~x:xb ~y:yb;
      incr batches;
      i := !i + batch_size
    done;
    train_hist.(epoch) <- !loss_sum /. float_of_int !batches;
    let fe = float_of_int epoch in
    Obs.Trace.point "mlp.train_mse" ~x:fe ~y:train_hist.(epoch);
    Obs.Trace.point "mlp.lr" ~x:fe ~y:adam.Network.lr;
    Obs.Telemetry.incr "mlp.epochs";
    match validation with
    | Some (xv, yv) ->
      val_hist.(epoch) <- Network.mse net ~x:xv ~y:yv;
      Obs.Trace.point "mlp.val_mse" ~x:fe ~y:val_hist.(epoch)
    | None -> ()
  done;
  { epoch_train_mse = train_hist; epoch_val_mse = val_hist })

let split rng ~test_fraction ~x ~y =
  let n = x.Matrix.rows in
  let order = Array.to_list (Util.Rng.permutation rng n) in
  let n_test = int_of_float (Float.round (float_of_int n *. test_fraction)) in
  let n_test = max 1 (min (n - 1) n_test) in
  let rec take k = function
    | [] -> ([], [])
    | hd :: tl ->
      if k = 0 then ([], hd :: tl)
      else
        let a, b = take (k - 1) tl in
        (hd :: a, b)
  in
  let test_idx, train_idx = take n_test order in
  let pick idx = (rows x idx, Array.of_list (List.map (fun i -> y.(i)) idx)) in
  (pick train_idx, pick test_idx)
