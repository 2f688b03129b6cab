(* Binary encoding round-trips, two ways:

   1. qcheck: [decode (encode p) = p] over random valid programs that
      draw every instruction kind (random register files, guards,
      labels, wide and inline immediates — wide ones exercise the
      constant pools), from [Random_program.gen].

   2. Real generated kernels across the Table 4/5 suites: exact
      encode/decode round-trips, a packed size below the text size, and
      hash-collision sanity (distinct programs => distinct hashes;
      renamed copies of the same kernel hash identically, so plans for
      different shapes that generate one kernel carry one hash).

   The dump listing behind [isaac_lint --dump-binary] is checked too. *)

open Ptx.Types
module I = Ptx.Instr
module E = Ptx.Encode
module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params

let quick name f = Alcotest.test_case name `Quick f

(* Structural equality that treats NaN float immediates as equal. *)
let same_program (a : Ptx.Program.t) (b : Ptx.Program.t) = compare a b = 0

let encode_exn p =
  match E.encode p with
  | Ok e -> e
  | Error e -> Alcotest.failf "encode failed: %s" e

let decode_exn e =
  match E.decode e with
  | Ok p -> p
  | Error e -> Alcotest.failf "decode failed: %s" e

(* ------------------------------------------------------------------ *)
(* Random programs                                                    *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck.Test.make ~name:"decode (encode p) = p" ~count:500
    (QCheck.make Random_program.gen)
    (fun p ->
      (match Ptx.Program.validate p with Ok () -> () | Error e -> failwith e);
      match E.encode p with
      | Error e -> failwith e
      | Ok enc -> (
        match E.decode enc with
        | Error e -> failwith ("decode: " ^ e)
        | Ok p' -> same_program p p'))

(* The property is only as strong as its generator: a 500-program draw
   must contain every opcode ({!Ptx.Instr.opcode_name} is ["?"] past
   the last one). *)
let test_gen_covers_every_opcode () =
  let st = Random.State.make [| 20 |] in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 500 do
    Array.iter
      (fun (i : I.t) -> Hashtbl.replace seen (I.opcode i.I.op) ())
      (Random_program.gen st).Ptx.Program.body
  done;
  let rec check op =
    if I.opcode_name op <> "?" then begin
      if not (Hashtbl.mem seen op) then
        Alcotest.failf "generator never emits opcode %d (%s)" op
          (I.opcode_name op);
      check (op + 1)
    end
  in
  check 0

(* ------------------------------------------------------------------ *)
(* Generated kernels across the suites                                *)
(* ------------------------------------------------------------------ *)

let base_cfg =
  { GP.ms = 2; ns = 2; ks = 1; ml = 16; nl = 16; u = 8; kl = 1; kg = 1;
    vec = 1; db = 1 }

let configs =
  [ base_cfg;
    { base_cfg with ns = 4; vec = 2; db = 2 };
    { base_cfg with kl = 2 };
    { base_cfg with ks = 2 };
    { base_cfg with kg = 2 };
    { base_cfg with ms = 4; ns = 4; ml = 32; nl = 32; u = 4 } ]

(* Kernels for every Table 4 task (all groups, fp32 + mixed suites) and
   the Table 5-style conv shapes, across configs and bounds modes. *)
let suite_kernels () =
  let kernels = ref [] in
  let add name p = kernels := (name, p) :: !kernels in
  let tasks =
    Workloads.Gemm_suites.fp32_suite ~mk:1760
    @ Workloads.Gemm_suites.mixed_suite ~mk:1760
  in
  List.iter
    (fun (t : Workloads.Gemm_suites.task) ->
      List.iteri
        (fun ci cfg ->
          if GP.structurally_legal t.input cfg then
            List.iter
              (fun (bname, bounds) ->
                add
                  (Printf.sprintf "%s/%s cfg%d %s" t.group t.label ci bname)
                  (Codegen.Gemm.generate ~bounds t.input cfg))
              [ ("exact", GP.Unchecked); ("pred", GP.Predicated);
                ("branch", GP.Branch) ])
        configs)
    tasks;
  List.iter
    (fun (name, i) ->
      List.iteri
        (fun ci cfg ->
          if CP.structurally_legal i cfg then
            add
              (Printf.sprintf "conv %s cfg%d" name ci)
              (Codegen.Conv.generate i cfg))
        configs)
    [ ("5x5 pad1", CP.input ~pad:1 ~n:1 ~c:2 ~k:4 ~p:5 ~q:5 ~r:3 ~s:3 ());
      ("stride2", CP.input ~stride:2 ~n:2 ~c:3 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 ()) ];
  List.rev !kernels

let test_kernel_roundtrip () =
  let kernels = suite_kernels () in
  if List.length kernels < 20 then
    Alcotest.failf "suite too small: %d kernels" (List.length kernels);
  List.iter
    (fun (name, p) ->
      let enc = encode_exn p in
      let p' = decode_exn enc in
      if not (same_program p p') then
        Alcotest.failf "%s: decode(encode p) <> p" name;
      (* The packed form must be denser than the text form. *)
      let text = String.length (Ptx.Disasm.program p) in
      let packed = E.byte_size enc in
      if packed * 3 > text * 2 then
        Alcotest.failf "%s: packed %dB not dense vs %dB text" name packed text)
    kernels

let test_hashes () =
  let kernels = suite_kernels () in
  let by_hash = Hashtbl.create 64 in
  List.iter
    (fun (name, p) ->
      let enc = encode_exn p in
      let h = E.hash enc in
      (* Hash ignores the entry name: a renamed copy dedups. *)
      let renamed = encode_exn { p with Ptx.Program.name = "other" } in
      if E.hash renamed <> h then
        Alcotest.failf "%s: hash depends on kernel name" name;
      match Hashtbl.find_opt by_hash h with
      | Some (name0, p0) ->
        if not (same_program { p0 with Ptx.Program.name = "" }
                  { p with Ptx.Program.name = "" }) then
          Alcotest.failf "%s / %s: distinct programs share hash %s" name0 name
            (E.hash_hex h)
      | None -> Hashtbl.add by_hash h (name, p))
    kernels;
  (* A one-instruction perturbation must change the hash. *)
  match kernels with
  | (_, p) :: _ ->
    let body = Array.copy p.Ptx.Program.body in
    let swapped = ref false in
    Array.iteri
      (fun i (ins : I.t) ->
        if not !swapped then
          match ins.I.op with
          | I.Iadd (d, a, b) ->
            body.(i) <- { ins with I.op = I.Isub (d, a, b) };
            swapped := true
          | _ -> ())
      body;
    if !swapped then begin
      let h0 = E.hash (encode_exn p) in
      let h1 = E.hash (encode_exn { p with Ptx.Program.body = body }) in
      if h0 = h1 then Alcotest.fail "perturbed kernel kept its hash"
    end
  | [] -> ()

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_field_overflow () =
  let p =
    { Ptx.Program.name = "wide";
      dtype = F32;
      buf_params = [| "OUT" |];
      int_params = [||];
      shared_words = 0;
      shared_int_words = 0;
      body =
        [| I.mk (I.Mov (300, Iimm 0)); I.mk I.Ret |];
      n_fregs = 0;
      n_iregs = 512;
      n_pregs = 0 }
  in
  match E.encode p with
  | Ok _ -> Alcotest.fail "register 300 must overflow the 8-bit field"
  | Error e ->
    if String.length e = 0 then Alcotest.fail "empty overflow message"

let test_dump () =
  let _, p = List.hd (suite_kernels ()) in
  let enc = encode_exn p in
  let d = E.dump enc in
  if String.length d < 100 then Alcotest.fail "dump suspiciously short";
  List.iter
    (fun needle ->
      if not (contains_sub d needle) then
        Alcotest.failf "dump misses %S" needle)
    [ "hash="; "op="; "pools:" ]

let () =
  Alcotest.run "encode"
    [ ("random",
       [ QCheck_alcotest.to_alcotest prop_roundtrip;
         quick "generator draws every opcode" test_gen_covers_every_opcode ]);
      ( "kernels",
        [ quick "encode/decode + wire round-trip" test_kernel_roundtrip;
          quick "hash: distinct kernels, name-independent" test_hashes;
          quick "field overflow is a clean error" test_field_overflow ] );
      ( "artifacts",
        [ quick "dump is human-readable" test_dump ] ) ]
