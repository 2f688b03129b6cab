(* Reading [Serve] responses: the checks the serving workloads apply
   outside their timed calls. *)

module GP = Codegen.Gemm_params

let create (ctx : Common.ctx) =
  match Serve.create ~gemm_profile:ctx.gemm_profile ~conv_profile:ctx.conv_profile () with
  | Ok srv -> srv
  | Error msg -> failwith ("Serve.create: " ^ msg)

(* Trace mode: one [Serve.create] span with the two profile loads it
   performs replayed as its children. *)
let trace_create (ctx : Common.ctx) =
  Spans.setup (fun () ->
      let h, _, _ = Spans.span_with "serve.create" (fun () -> create ctx) in
      List.iter
        (fun path -> ignore (Spans.span ~parent:h "profile.load" (fun () -> Tuner.Profile.load_exn path)))
        [ ctx.gemm_profile; ctx.conv_profile ])

let field json name = Obs.Json.member name json

let str json name = Option.bind (field json name) Obs.Json.to_str

let int json name = Option.bind (field json name) Obs.Json.to_int

let config_of_plan plan =
  let get name = Option.get (int plan name) in
  { GP.ms = get "ms"; ns = get "ns"; ks = get "ks"; ml = get "ml"; nl = get "nl";
    u = get "u"; kl = get "kl"; kg = get "kg"; vec = get "vec"; db = get "db" }

type plan_response = {
  json : Obs.Json.t;
  cache : string;
  plan_text : string;  (** the serialized [plan] field *)
  config : GP.config;
  tflops : float;
}

(* A successful plan response with a non-null plan, or [None]. *)
let plan_response line =
  match Obs.Json.of_string line with
  | exception Obs.Json.Parse_error _ -> None
  | json -> (
    match (field json "ok", str json "cache", field json "plan") with
    | Some (Obs.Json.Bool true), Some cache, Some (Obs.Json.Obj _ as plan) -> (
      match (config_of_plan plan, Option.bind (field plan "tflops") Obs.Json.to_float) with
      | config, Some tflops ->
        Some { json; cache; plan_text = Obs.Json.to_string plan; config; tflops }
      | _, None -> None
      | exception _ -> None)
    | _ -> None)

let cache_stats srv =
  let line, _ = Serve.handle srv {|{"op":"stats"}|} in
  let cache = Option.get (field (Obs.Json.of_string line) "cache") in
  (float_of_int (Option.get (int cache "hits")), float_of_int (Option.get (int cache "misses")))
