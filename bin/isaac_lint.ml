(* isaac_lint: static verification sweep over sampled kernel
   configurations — the verifier as the tuner's legality oracle, run as a
   standalone report.

     isaac_lint --seed 42 --count 3
     isaac_lint --op gemm --device "Tesla P100" --verbose
     isaac_lint --strict --json lint.json
     isaac_lint --op gemm --count 1 --dump-binary

   For every task of the GEMM and CONV evaluation suites it draws legal
   configurations from the fitted generative model, generates the kernel,
   and runs Ptx.Verify, whose warnings include its four lints: dead
   stores, unread registers, unreachable code and redundant barriers.

   Exit status: 0 when every kernel is clean; 1 on any verifier error;
   2 under --strict when there are no errors but some kernel carries a
   warning other than Unanalyzable (Unanalyzable marks sites the affine
   analyses skipped, not a defect of the kernel — it is tabulated
   separately at the end of the sweep). *)

open Cmdliner
module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params

type stats = {
  mutable checked : int;
  mutable failed : int;
  mutable warned : int;
  mutable strict_warned : int;  (* kernels with a non-Unanalyzable warning *)
  mutable unanalyzable : int;   (* Unanalyzable warning count (sites) *)
  mutable factor_sum : float;
}

let new_stats () =
  { checked = 0; failed = 0; warned = 0; strict_warned = 0; unanalyzable = 0;
    factor_sum = 0.0 }

(* One sampled kernel's outcome, the unit of the --json report. *)
type record = {
  op : string;
  task : string;
  kernel : string;
  report : Ptx.Verify.report;
}

let is_unanalyzable (d : Ptx.Verify.diag) = d.kind = Ptx.Verify.Unanalyzable

let lint_one ~verbose ~dump_binary ~stats ~records ~op ~task name program
    ~iargs ~block =
  let r = Ptx.Verify.run program ~iargs ~block in
  stats.checked <- stats.checked + 1;
  stats.factor_sum <- stats.factor_sum +. r.Ptx.Verify.bank.conflict_factor;
  if r.warnings <> [] then stats.warned <- stats.warned + 1;
  let unan, other = List.partition is_unanalyzable r.warnings in
  stats.unanalyzable <- stats.unanalyzable + List.length unan;
  if other <> [] then stats.strict_warned <- stats.strict_warned + 1;
  records := { op; task; kernel = name; report = r } :: !records;
  if not (Ptx.Verify.ok r) then begin
    stats.failed <- stats.failed + 1;
    Printf.printf "FAIL %s\n%s\n" name (Ptx.Verify.to_string r)
  end
  else begin
    (* Scheduling lints deserve eyes even when not --verbose: they are
       generator defects, and the strict gate trips on them. *)
    List.iter
      (fun (d : Ptx.Verify.diag) ->
        Printf.printf "warn %s: [%s] %s\n" name
          (Ptx.Verify.kind_name d.kind) d.message)
      other;
    if verbose then
      Printf.printf "ok   %s (bank factor %.2f, %d warnings)\n" name
        r.Ptx.Verify.bank.conflict_factor
        (List.length r.warnings)
  end;
  (* --dump-binary: the packed Ptx.Encode listing of the (register-
     allocated) kernel — hex word, disassembled text and field breakdown
     per instruction. *)
  if dump_binary then
    match Ptx.Encode.encode (Ptx.Regalloc.allocate program) with
    | Ok e -> print_string (Ptx.Encode.dump e)
    | Error msg -> Printf.printf "dump-binary %s: %s\n" name msg

let sample_configs rng sampler ~count ~legal =
  let rec go n acc =
    if n = 0 then acc
    else
      match Tuner.Sampler.sample_legal rng sampler ~legal with
      | None -> acc
      | Some cfg -> go (n - 1) (cfg :: acc)
  in
  go count []

let lint_gemm ~verbose ~dump_binary ~count ~warmup rng device =
  let sampler =
    Tuner.Dataset.fit_gemm_sampler ~warmup ~dtypes:[ Ptx.Types.F32 ] rng device
  in
  let stats = new_stats () in
  let records = ref [] in
  let rows = ref [] in
  List.iter
    (fun (t : Workloads.Gemm_suites.task) ->
      let i = t.input in
      let before = stats.failed in
      let factor0 = stats.factor_sum and checked0 = stats.checked in
      let configs =
        sample_configs rng sampler ~count
          ~legal:(Tuner.Dataset.gemm_legal device i)
      in
      List.iter
        (fun cfg_array ->
          let c = GP.config_of_array cfg_array in
          lint_one ~verbose ~dump_binary ~stats ~records ~op:"gemm"
            ~task:(t.group ^ " " ^ t.label)
            (Printf.sprintf "%s [%s]" (GP.describe_name i c)
               (Tuner.Config_space.describe Tuner.Config_space.gemm cfg_array))
            (Codegen.Gemm.generate i c)
            ~iargs:[ ("M", i.m); ("N", i.n); ("K", i.k) ]
            ~block:(GP.threads_per_block c, 1, 1))
        configs;
      let n = stats.checked - checked0 in
      rows :=
        [| t.group ^ " " ^ t.label;
           string_of_int n;
           string_of_int (stats.failed - before);
           Printf.sprintf "%.2f"
             (if n = 0 then 1.0 else (stats.factor_sum -. factor0) /. float_of_int n)
        |]
        :: !rows)
    (Workloads.Gemm_suites.fp32_suite ~mk:2560);
  (stats, List.rev !rows, List.rev !records)

let lint_conv ~verbose ~dump_binary ~count ~warmup rng device =
  let sampler =
    Tuner.Dataset.fit_conv_sampler ~warmup ~dtypes:[ Ptx.Types.F32 ] rng device
  in
  let stats = new_stats () in
  let records = ref [] in
  let rows = ref [] in
  List.iter
    (fun (t : Workloads.Conv_suites.task) ->
      let i = t.input in
      let gi = CP.gemm_input i in
      let before = stats.failed in
      let factor0 = stats.factor_sum and checked0 = stats.checked in
      let configs =
        sample_configs rng sampler ~count
          ~legal:(Tuner.Dataset.conv_legal device i)
      in
      List.iter
        (fun cfg_array ->
          let c = GP.config_of_array cfg_array in
          lint_one ~verbose ~dump_binary ~stats ~records ~op:"conv"
            ~task:(t.group ^ " " ^ t.label)
            (Printf.sprintf "%s [%s]" (CP.describe_name i c)
               (Tuner.Config_space.describe Tuner.Config_space.gemm cfg_array))
            (Codegen.Conv.generate i c)
            ~iargs:[ ("M", gi.GP.m); ("N", gi.GP.n); ("K", gi.GP.k) ]
            ~block:(GP.threads_per_block c, 1, 1))
        configs;
      let n = stats.checked - checked0 in
      rows :=
        [| t.group ^ " " ^ t.label;
           string_of_int n;
           string_of_int (stats.failed - before);
           Printf.sprintf "%.2f"
             (if n = 0 then 1.0 else (stats.factor_sum -. factor0) /. float_of_int n)
        |]
        :: !rows)
    (Workloads.Conv_suites.suite Ptx.Types.F32);
  (stats, List.rev !rows, List.rev !records)

(* --json: one machine-readable report for the whole sweep, written with
   Obs.Json (the repo's only JSON implementation) so CI can upload it as
   an artifact and downstream tooling can diff kind counts across
   commits. *)
let json_of_diag (d : Ptx.Verify.diag) =
  Obs.Json.Obj
    [ ("kind", Obs.Json.String (Ptx.Verify.kind_name d.kind));
      ("pc", match d.pc with Some pc -> Obs.Json.Int pc | None -> Obs.Json.Null);
      ("message", Obs.Json.String d.message) ]

let json_of_record r =
  let rep = r.report in
  Obs.Json.Obj
    [ ("op", Obs.Json.String r.op);
      ("task", Obs.Json.String r.task);
      ("kernel", Obs.Json.String r.kernel);
      ("ok", Obs.Json.Bool (Ptx.Verify.ok rep));
      ( "bank",
        Obs.Json.Obj
          [ ("sites", Obs.Json.Int rep.bank.sites);
            ("transactions", Obs.Json.Int rep.bank.transactions);
            ("conflicted", Obs.Json.Int rep.bank.conflicted);
            ("conflict_factor", Obs.Json.Float rep.bank.conflict_factor) ] );
      ("errors", Obs.Json.List (List.map json_of_diag rep.errors));
      ("warnings", Obs.Json.List (List.map json_of_diag rep.warnings)) ]

let kind_counts records =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun (d : Ptx.Verify.diag) ->
          let k = Ptx.Verify.kind_name d.kind in
          Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        (r.report.Ptx.Verify.errors @ r.report.warnings))
    records;
  Hashtbl.fold (fun k v acc -> (k, Obs.Json.Int v) :: acc) tbl []
  |> List.sort compare

let write_json path ~device ~seed ~count sections =
  let records = List.concat_map (fun (_, (_, _, rs)) -> rs) sections in
  let summaries =
    List.map
      (fun (title, ((stats : stats), _, _)) ->
        ( String.lowercase_ascii title,
          Obs.Json.Obj
            [ ("checked", Obs.Json.Int stats.checked);
              ("failed", Obs.Json.Int stats.failed);
              ("warned", Obs.Json.Int stats.warned);
              ("strict_warned", Obs.Json.Int stats.strict_warned);
              ("unanalyzable", Obs.Json.Int stats.unanalyzable) ] ))
      sections
  in
  let doc =
    Obs.Json.Obj
      [ ("tool", Obs.Json.String "isaac_lint");
        ("device", Obs.Json.String device);
        ("seed", Obs.Json.Int seed);
        ("count", Obs.Json.Int count);
        ("suites", Obs.Json.Obj summaries);
        ("diagnostic_counts", Obs.Json.Obj (kind_counts records));
        ("kernels", Obs.Json.List (List.map json_of_record records)) ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "lint: JSON report written to %s\n" path

let run op device_name seed count warmup verbose dump_binary strict json =
  let device =
    match
      List.find_opt (fun (d : Gpu.Device.t) -> d.name = device_name) Gpu.Device.all
    with
    | Some d -> d
    | None ->
      Printf.eprintf "unknown device %S\n" device_name;
      exit 3
  in
  let rng = Util.Rng.create seed in
  let sections =
    (if op = "conv" then []
     else [ ("GEMM", lint_gemm ~verbose ~dump_binary ~count ~warmup rng device) ])
    @
    if op = "gemm" then []
    else [ ("CONV", lint_conv ~verbose ~dump_binary ~count ~warmup rng device) ]
  in
  List.iter
    (fun (title, ((stats : stats), rows, _)) ->
      Printf.printf "%s suite on %s: %d kernels, %d failed, %d with warnings\n"
        title device.name stats.checked stats.failed stats.warned;
      Util.Table.print
        ~header:[| "task"; "kernels"; "failed"; "mean bank factor" |]
        rows)
    sections;
  (* End-of-sweep summary: how much of each suite escaped the affine
     analyses (Unanalyzable sites) vs. warnings the strict gate trips on. *)
  Printf.printf "\nSweep summary:\n";
  Util.Table.print
    ~header:[| "suite"; "kernels"; "errors"; "unanalyzable"; "strict warnings" |]
    (List.map
       (fun (title, ((stats : stats), _, _)) ->
         [| title;
            string_of_int stats.checked;
            string_of_int stats.failed;
            string_of_int stats.unanalyzable;
            string_of_int stats.strict_warned |])
       sections);
  (match json with
   | Some path -> write_json path ~device:device.name ~seed ~count sections
   | None -> ());
  let total f = List.fold_left (fun acc (_, (s, _, _)) -> acc + f s) 0 sections in
  let failed = total (fun s -> s.failed) in
  let strict_warned = total (fun s -> s.strict_warned) in
  if failed > 0 then begin
    print_endline "lint: FAILED (verifier errors above)";
    exit 1
  end
  else if strict && strict_warned > 0 then begin
    Printf.printf
      "lint: %d kernels carry non-Unanalyzable warnings (strict mode)\n"
      strict_warned;
    exit 2
  end
  else print_endline "lint: all sampled kernels verified clean"

let cmd =
  let op =
    Arg.(
      value
      & opt (enum [ ("both", "both"); ("gemm", "gemm"); ("conv", "conv") ]) "both"
      & info [ "op" ] ~doc:"Which generator to lint: gemm, conv or both.")
  in
  let device =
    Arg.(
      value
      & opt string "Tesla P100"
      & info [ "device" ] ~doc:"Device model the legality filter uses.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let count =
    Arg.(
      value & opt int 3
      & info [ "count" ] ~doc:"Sampled configurations per suite task.")
  in
  let warmup =
    Arg.(
      value & opt int 2000
      & info [ "warmup" ] ~doc:"Sampler warm-up draws (generative model fit).")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-kernel lines.") in
  let dump_binary =
    Arg.(
      value & flag
      & info [ "dump-binary" ]
          ~doc:
            "For every linted kernel, print its packed binary encoding: one \
             line per instruction word (hex encoding, disassembly) plus \
             the opcode/guard/operand field breakdown. Pair with --count 1 \
             and --op to dump a single kernel.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit 2 when any kernel carries a warning other than \
             Unanalyzable (errors still exit 1).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Write a machine-readable per-kernel report to $(docv).")
  in
  Cmd.v
    (Cmd.info "isaac_lint"
       ~doc:"Statically verify sampled GEMM/CONV kernels and report")
    Term.(const run $ op $ device $ seed $ count $ warmup $ verbose $ dump_binary $ strict $ json)

let () = exit (Cmd.eval cmd)
