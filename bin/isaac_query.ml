(* isaac_query: runtime kernel inference from a saved profile — the
   paper's §6 as a command line tool.

     isaac_query -p p100-gemm.profile -m 2560 -n 16 -k 2560
     isaac_query -p p100-conv.profile --conv --cn 16 --cc 512 --ckf 48 \
                 --cpq 14 --crs 5 *)

open Cmdliner

let device_of_name name =
  match List.find_opt (fun (d : Gpu.Device.t) -> d.name = name) Gpu.Device.all with
  | Some d -> d
  | None -> failwith ("profile tuned on unknown device " ^ name)

let dtype_conv =
  let parse = function
    | "f16" | "half" -> Ok Ptx.Types.F16
    | "f32" | "float" -> Ok Ptx.Types.F32
    | "f64" | "double" -> Ok Ptx.Types.F64
    | _ -> Error (`Msg "unknown dtype (f16/f32/f64)")
  in
  Arg.conv (parse, fun fmt d -> Format.fprintf fmt "%s" (Ptx.Types.dtype_name d))

let print_plan (plan : Isaac.plan) =
  let c = plan.config in
  Util.Table.print
    ~header:[| "parameter"; "value" |]
    [ [| "Ms x Ns x Ks"; Printf.sprintf "%d x %d x %d" c.ms c.ns c.ks |];
      [| "ML x NL"; Printf.sprintf "%d x %d" c.ml c.nl |];
      [| "U (prefetch)"; string_of_int c.u |];
      [| "KL (block split)"; string_of_int c.kl |];
      [| "KG (grid split)"; string_of_int c.kg |];
      [| "vector width"; string_of_int c.vec |];
      [| "buffering"; (if c.db = 2 then "double" else "single") |];
      [| "predicted"; Printf.sprintf "%.2f TFLOPS" plan.predicted_tflops |];
      [| "re-benchmarked"; Printf.sprintf "%.2f TFLOPS" plan.measurement.tflops |];
      [| "legal configs searched"; string_of_int plan.n_legal |] ]

(* Planning-latency breakdown (--timing): the per-phase wall clock the
   search recorded, plus the end-to-end total. *)
let print_timing (plan : Isaac.plan) =
  match plan.phases with
  | [] -> print_endline "plan served from cache: no timing recorded"
  | phases ->
    let total = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 phases in
    print_newline ();
    Util.Table.print
      ~header:[| "phase"; "time" |]
      (List.map
         (fun (name, t) -> [| name; Printf.sprintf "%.2f ms" (t *. 1e3) |])
         phases
      @ [ [| "total"; Printf.sprintf "%.2f ms" (total *. 1e3) |] ])

let run profile_path conv explain timing m n k dtype a_trans b_trans cn cc ckf
    cpq crs_ =
  let profile =
    match Tuner.Profile.load profile_path with
    | Ok p -> p
    | Error msg -> prerr_endline msg; exit 2
  in
  let device = device_of_name profile.device in
  let engine = Isaac.of_profile device profile in
  (* A dimension above Gemm_params.max_dim is refused by name. *)
  let checked make =
    try make () with Invalid_argument msg -> prerr_endline msg; exit 2
  in
  if conv then begin
    let input =
      checked (fun () ->
          Codegen.Conv_params.input ~dtype ~n:cn ~c:cc ~k:ckf ~p:cpq ~q:cpq ~r:crs_
            ~s:crs_ ())
    in
    if explain then print_string (Isaac.explain_conv engine input)
    else begin
      Printf.printf "CONV N=%d C=%d K=%d P=Q=%d R=S=%d (%s) on %s\n" cn cc ckf cpq
        crs_ (Ptx.Types.dtype_name dtype) device.name;
      match Isaac.plan_conv engine input with
      | Some plan ->
        print_plan plan;
        if timing then print_timing plan
      | None -> prerr_endline "no legal kernel found"
    end
  end
  else begin
    let input =
      checked (fun () -> Codegen.Gemm_params.input ~dtype ~a_trans ~b_trans m n k)
    in
    if explain then print_string (Isaac.explain_gemm engine input)
    else begin
      Printf.printf "GEMM %dx%dx%d %c%c (%s) on %s\n" m n k
        (if a_trans then 'T' else 'N')
        (if b_trans then 'T' else 'N')
        (Ptx.Types.dtype_name dtype) device.name;
      match Isaac.plan_gemm engine input with
      | Some plan ->
        print_plan plan;
        if timing then print_timing plan
      | None -> prerr_endline "no legal kernel found"
    end
  end

let cmd =
  let profile =
    Arg.(required & opt (some string) None & info [ "p"; "profile" ] ~doc:"Profile path.")
  in
  let conv = Arg.(value & flag & info [ "conv" ] ~doc:"Query a convolution instead of GEMM.") in
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print a full analysis of the chosen kernel.")
  in
  let timing =
    Arg.(value & flag
         & info [ "timing" ]
             ~doc:"Print the planning-latency breakdown (featurize, \
                   inference, argmax, ...) alongside the plan.")
  in
  let m = Arg.(value & opt int 1024 & info [ "m" ] ~doc:"GEMM M.") in
  let n = Arg.(value & opt int 1024 & info [ "n" ] ~doc:"GEMM N.") in
  let k = Arg.(value & opt int 1024 & info [ "k" ] ~doc:"GEMM K.") in
  let dtype = Arg.(value & opt dtype_conv Ptx.Types.F32 & info [ "dtype" ] ~doc:"f16/f32/f64.") in
  let at = Arg.(value & flag & info [ "at" ] ~doc:"A transposed.") in
  let bt = Arg.(value & flag & info [ "bt" ] ~doc:"B transposed.") in
  let cn = Arg.(value & opt int 16 & info [ "cn" ] ~doc:"CONV batch N.") in
  let cc = Arg.(value & opt int 64 & info [ "cc" ] ~doc:"CONV input channels C.") in
  let ckf = Arg.(value & opt int 64 & info [ "ckf" ] ~doc:"CONV filters K.") in
  let cpq = Arg.(value & opt int 14 & info [ "cpq" ] ~doc:"CONV output P=Q.") in
  let crs_ = Arg.(value & opt int 3 & info [ "crs" ] ~doc:"CONV filter R=S.") in
  Cmd.v
    (Cmd.info "isaac_query" ~doc:"Infer the best kernel for an input from a tuned profile")
    Term.(const run $ profile $ conv $ explain $ timing $ m $ n $ k $ dtype $ at
          $ bt $ cn $ cc $ ckf $ cpq $ crs_)

let () = exit (Cmd.eval cmd)
