type t = {
  op : [ `Gemm | `Conv ];
  device : string;
  net : Mlp.Network.t;
  scaler : Features.scaler;
  log_features : bool;
  feat_mean : float array;
  feat_std : float array;
}

let default_arch = [| 32; 64; 32 |]

(* Per-feature z-scoring, fitted on the training set. Both the log and
   raw feature variants get it, so Table 2's ablation isolates the log
   transform itself (as in the paper) rather than raw-scale blow-up. *)
let fit_feature_scaler (x : Mlp.Matrix.t) =
  let d = x.cols and n = x.rows in
  let mean = Array.make d 0.0 and std = Array.make d 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to d - 1 do
      mean.(j) <- mean.(j) +. Mlp.Matrix.get x i j
    done
  done;
  Array.iteri (fun j v -> mean.(j) <- v /. float_of_int n) mean;
  for i = 0 to n - 1 do
    for j = 0 to d - 1 do
      let dv = Mlp.Matrix.get x i j -. mean.(j) in
      std.(j) <- std.(j) +. (dv *. dv)
    done
  done;
  Array.iteri (fun j v -> std.(j) <- Float.max 1e-6 (sqrt (v /. float_of_int n))) std;
  (mean, std)

(* Feature [j]'s value [v], z-scored: the one expression both
   [standardize] and [standardize_feature] apply, so a value
   standardized alone equals the one [standardize] leaves in a matrix. *)
let[@inline] zscore ~feat_mean ~feat_std j v = (v -. feat_mean.(j)) /. feat_std.(j)

(* [zscore] per feature, in place. Walks rows in storage order
   (row-major) so the pass is a single sequential sweep. *)
let standardize ~feat_mean ~feat_std (x : Mlp.Matrix.t) =
  let d = x.cols and n = x.rows in
  assert (Array.length feat_mean = d && Array.length feat_std = d);
  let data = x.data in
  for i = 0 to n - 1 do
    let base = i * d in
    for j = 0 to d - 1 do
      Bigarray.Array1.unsafe_set data (base + j)
        (zscore ~feat_mean ~feat_std j (Bigarray.Array1.unsafe_get data (base + j)))
    done
  done

let standardize_feature t j v =
  zscore ~feat_mean:t.feat_mean ~feat_std:t.feat_std j v

let features_of t (ds : Dataset.t) =
  if t.log_features then ds.features_log else ds.features_raw

let train ?(arch = default_arch) ?(epochs = 20) ?(log_features = true) rng
    (ds : Dataset.t) =
  let scaler = Features.fit_target_scaler ds.tflops in
  let y = Array.map (Features.target scaler) ds.tflops in
  let x = Mlp.Matrix.copy (if log_features then ds.features_log else ds.features_raw) in
  let feat_mean, feat_std = fit_feature_scaler x in
  standardize ~feat_mean ~feat_std x;
  (* Input width follows the dataset (16 paper features, or 19 in the
     schedule-extended ablation). *)
  let sizes = Array.concat [ [| x.cols |]; arch; [| 1 |] ] in
  let net = Mlp.Network.create rng ~sizes in
  let (_ : Mlp.Train.history) = Mlp.Train.fit ~epochs rng net ~x ~y in
  { op = ds.op; device = ds.device; net; scaler; log_features; feat_mean; feat_std }

let predict_std_matrix t x =
  standardize ~feat_mean:t.feat_mean ~feat_std:t.feat_std x;
  Mlp.Network.predict_matrix t.net x

let predict_std_one t features =
  let x = Mlp.Matrix.of_array ~rows:1 ~cols:(Array.length features) features in
  standardize ~feat_mean:t.feat_mean ~feat_std:t.feat_std x;
  (Mlp.Network.predict t.net x).(0)

let mse t (ds : Dataset.t) =
  let y = Array.map (Features.target t.scaler) ds.tflops in
  Util.Stats.mse (predict_std_matrix t (Mlp.Matrix.copy (features_of t ds))) y

let predict_tflops t features = Features.untarget t.scaler (predict_std_one t features)

(* Artifact versions 1–2 were the pre-checksum [isaac-profile v1/v2]
   text files; version 3 is the same v2 body carried in a checksummed
   {!Util.Artifact} envelope (the in-payload header line is gone — the
   envelope owns kind and version now). *)
let artifact_kind = "isaac-profile"
let artifact_version = 3

let to_payload t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "op %s\n" (match t.op with `Gemm -> "gemm" | `Conv -> "conv"));
  Buffer.add_string buf (Printf.sprintf "device %s\n" t.device);
  Buffer.add_string buf
    (Printf.sprintf "scaler %.17g %.17g\n" t.scaler.mean t.scaler.std);
  Buffer.add_string buf (Printf.sprintf "log_features %b\n" t.log_features);
  Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%.17g " v)) t.feat_mean;
  Buffer.add_char buf '\n';
  Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%.17g " v)) t.feat_std;
  Buffer.add_char buf '\n';
  Mlp.Network.save_buf buf t.net;
  Buffer.contents buf

let save t path =
  Util.Artifact.write ~path ~kind:artifact_kind ~version:artifact_version
    (to_payload t)

let of_payload path payload =
  let lines = ref (String.split_on_char '\n' payload) in
  let next () =
    match !lines with [] -> raise End_of_file | l :: tl -> lines := tl; l
  in
  let expect fmt = Scanf.sscanf (next ()) fmt in
  let op =
    match expect "op %s" Fun.id with
    | "gemm" -> `Gemm
    | "conv" -> `Conv
    | other -> failwith (path ^ ": unknown op " ^ other)
  in
  let device = expect "device %[^\n]" Fun.id in
  let mean, std = expect "scaler %g %g" (fun a b -> (a, b)) in
  let log_features = expect "log_features %B" Fun.id in
  let floats_of_line l =
    String.split_on_char ' ' (String.trim l)
    |> List.filter (fun s -> s <> "")
    |> List.map float_of_string
    |> Array.of_list
  in
  let feat_mean = floats_of_line (next ()) in
  let feat_std = floats_of_line (next ()) in
  if Array.length feat_mean <> Features.dim || Array.length feat_std <> Features.dim
  then failwith (path ^ ": bad feature scaler");
  let bad msg = failwith (path ^ ": " ^ msg) in
  let net = try Mlp.Network.load_from next with Failure msg -> bad msg in
  (* Reject what parses but cannot plan: a shape the search's feature
     matrix does not fit, or a non-finite value that turns every
     prediction into NaN and the argmax into noise. *)
  let sizes = Mlp.Network.sizes net in
  if sizes.(0) <> Features.dim then
    bad (Printf.sprintf "network input width %d, expected %d" sizes.(0)
           Features.dim);
  if sizes.(Array.length sizes - 1) <> 1 then
    bad (Printf.sprintf "network output width %d, expected 1"
           sizes.(Array.length sizes - 1));
  if Array.exists (fun w -> w < 1) sizes then bad "empty network layer";
  if not (Mlp.Network.is_finite net) then bad "non-finite network weight or bias";
  if not (Array.for_all Float.is_finite feat_mean) then
    bad "non-finite feature mean";
  if not (Array.for_all (fun s -> Float.is_finite s && s > 0.0) feat_std) then
    bad "feature std not finite and positive";
  if not (Float.is_finite mean && Float.is_finite std) then
    bad "non-finite target scaler";
  { op; device; net; scaler = { Features.mean; std }; log_features; feat_mean;
    feat_std }

let load path =
  match
    Util.Artifact.read ~path ~kind:artifact_kind ~max_version:artifact_version
  with
  | Error e -> Error (Util.Artifact.error_to_string ~path e)
  | Ok (_, payload) -> (
    (* The envelope checksum already rules out torn or rotted bytes, so a
       parse failure here means a genuine schema problem. *)
    match of_payload path payload with
    | t -> Ok t
    | exception Failure msg -> Error msg
    | exception _ -> Error (path ^ ": malformed profile payload"))

let load_exn path =
  match load path with Ok t -> t | Error msg -> failwith msg
