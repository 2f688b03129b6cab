(* isaac_tune: run the full auto-tuning pipeline for a device/operation
   and save the resulting input-aware profile to disk.

     isaac_tune --device p100 --op gemm --samples 8000 -o p100-gemm.profile *)

open Cmdliner

let device_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "980ti" | "gtx980ti" | "maxwell" -> Ok Gpu.Device.gtx980ti
    | "p100" | "pascal" -> Ok Gpu.Device.p100
    | _ -> Error (`Msg "unknown device (use 980ti or p100)")
  in
  let print fmt (d : Gpu.Device.t) = Format.fprintf fmt "%s" d.name in
  Arg.conv (parse, print)

let op_conv =
  let parse = function
    | "gemm" -> Ok `Gemm
    | "conv" -> Ok `Conv
    | _ -> Error (`Msg "unknown op (use gemm or conv)")
  in
  let print fmt op = Format.fprintf fmt "%s" (match op with `Gemm -> "gemm" | `Conv -> "conv") in
  Arg.conv (parse, print)

let run device op samples epochs seed domains out verbose =
  if verbose then begin
    Fmt_tty.setup_std_outputs ();
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  let rng = Util.Rng.create seed in
  let t0 = Unix.gettimeofday () in
  let engine = Isaac.tune ~samples ~epochs ~domains rng device ~op () in
  Printf.printf "tuned %s for %s in %.1fs (%d samples, %d epochs)\n"
    (match op with `Gemm -> "GEMM" | `Conv -> "CONV")
    device.Gpu.Device.name
    (Unix.gettimeofday () -. t0)
    samples epochs;
  Tuner.Profile.save (Isaac.profile engine) out;
  Printf.printf "profile written to %s\n" out

let cmd =
  let device =
    Arg.(value & opt device_conv Gpu.Device.p100 & info [ "device"; "d" ] ~doc:"Target device: 980ti or p100.")
  in
  let op = Arg.(value & opt op_conv `Gemm & info [ "op" ] ~doc:"Operation: gemm or conv.") in
  let samples =
    Arg.(value & opt int 8000 & info [ "samples"; "n" ] ~doc:"Benchmark samples for training data.")
  in
  let epochs = Arg.(value & opt int 30 & info [ "epochs" ] ~doc:"Training epochs.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let domains =
    Arg.(value & opt int (Util.Parallel.recommended_domains ())
         & info [ "j"; "domains" ] ~doc:"Parallel domains for benchmarking.")
  in
  let out =
    Arg.(value & opt string "isaac.profile" & info [ "o"; "output" ] ~doc:"Output profile path.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log progress.") in
  Cmd.v
    (Cmd.info "isaac_tune" ~doc:"Auto-tune an input-aware kernel performance model")
    Term.(const run $ device $ op $ samples $ epochs $ seed $ domains $ out
          $ verbose)

let () = exit (Cmd.eval cmd)
