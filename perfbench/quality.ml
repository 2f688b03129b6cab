(* Model quality: held-out MSE of a profile on a validation set each run
   generates once. The set is a measuring instrument, not a workload
   input, so its seed is fixed: every run and every commit scores
   against the same samples. *)

let validation_samples = 1000

let validation op =
  let rng = Util.Rng.create (Hashtbl.hash ("perfbench.validation", op)) in
  match op with
  | `Gemm -> Tuner.Dataset.generate_gemm ~domains:1 rng Shapes.device ~n:validation_samples
  | `Conv -> Tuner.Dataset.generate_conv ~domains:1 rng Shapes.device ~n:validation_samples

(* Mean held-out MSE of the prepared GEMM and CONV profiles. *)
let prepared_mse (ctx : Common.ctx) =
  let mse path op = Tuner.Profile.mse (Tuner.Profile.load_exn path) (validation op) in
  (mse ctx.gemm_profile `Gemm +. mse ctx.conv_profile `Conv) /. 2.0
