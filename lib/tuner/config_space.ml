type param = { name : string; values : int array }
type t = param array

let gemm : t =
  [| { name = "ms"; values = Codegen.Gemm_params.values_ms };
     { name = "ns"; values = Codegen.Gemm_params.values_ns };
     { name = "ks"; values = Codegen.Gemm_params.values_ks };
     { name = "ml"; values = Codegen.Gemm_params.values_ml };
     { name = "nl"; values = Codegen.Gemm_params.values_nl };
     { name = "u"; values = Codegen.Gemm_params.values_u };
     { name = "kl"; values = Codegen.Gemm_params.values_kl };
     { name = "kg"; values = Codegen.Gemm_params.values_kg };
     { name = "vec"; values = Codegen.Gemm_params.values_vec };
     { name = "db"; values = Codegen.Gemm_params.values_db } |]

(* The Table 1 measurement grid: "each parameter is constrained to be a
   power of two between 1 and 16" (§4.2), with no pre-restriction to
   plausible values — which is why uniform sampling accepts almost
   nothing there. *)
let pow2_16 = [| 1; 2; 4; 8; 16 |]

let table1 : t =
  Array.map (fun p -> { p with values = pow2_16 }) gemm

let size t = Array.fold_left (fun acc p -> acc * Array.length p.values) 1 t

let value_index p v =
  let rec go i =
    if i = Array.length p.values then raise Not_found
    else if p.values.(i) = v then i
    else go (i + 1)
  in
  go 0

let iter t f =
  let n = Array.length t in
  let buf = Array.make n 0 in
  let rec go i =
    if i = n then f buf
    else
      Array.iter
        (fun v ->
          buf.(i) <- v;
          go (i + 1))
        t.(i).values
  in
  go 0

let random rng t = Array.map (fun p -> Util.Rng.choice rng p.values) t

let describe (t : t) cfg =
  String.concat " "
    (Array.to_list
       (Array.mapi (fun i p -> Printf.sprintf "%s=%d" p.name cfg.(i)) t))
