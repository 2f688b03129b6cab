let schema_version = 1
let schema_name = "isaac-bench-report"

type direction = Higher_better | Lower_better | Neutral
type kind = Deterministic | Timing

type metric = {
  m_name : string;
  m_experiment : string;
  value : float;
  unit_ : string;
  direction : direction;
  kind : kind;
  ci : (float * float) option;
  n : int option;
}

type check = { claim : string; paper : string; ours : string; pass : bool }

type experiment = {
  key : string;
  wall_seconds : float;
  checks : check list;
}

type attribution = {
  term : string;
  counter : string;
  a_n : int;
  pearson_r : float;
  scale : float;
  drift : float;
}

type env = {
  rev : string;
  seed : int;
  repro_scale : float;
  device : string;
  argv : string list;
  knobs : (string * string) list;
  ocaml_version : string;
  hostname : string;
}

type t = {
  version : int;
  env : env;
  experiments : experiment list;
  metrics : metric list;
  attribution : attribution list;
}

let filename ~rev = Printf.sprintf "BENCH_%s.json" rev

let find_experiment t key = List.find_opt (fun e -> e.key = key) t.experiments

(* --- serialization ----------------------------------------------------- *)

let direction_str = function
  | Higher_better -> "higher"
  | Lower_better -> "lower"
  | Neutral -> "neutral"

let kind_str = function Deterministic -> "deterministic" | Timing -> "timing"

let metric_json m =
  Json.Obj
    ([ ("name", Json.String m.m_name);
       ("experiment", Json.String m.m_experiment);
       ("value", Json.Float m.value);
       ("unit", Json.String m.unit_);
       ("direction", Json.String (direction_str m.direction));
       ("kind", Json.String (kind_str m.kind)) ]
    @ (match m.ci with
       | Some (lo, hi) ->
         [ ("ci_lo", Json.Float lo); ("ci_hi", Json.Float hi) ]
       | None -> [])
    @ match m.n with Some n -> [ ("n", Json.Int n) ] | None -> [])

let check_json c =
  Json.Obj
    [ ("claim", Json.String c.claim);
      ("paper", Json.String c.paper);
      ("ours", Json.String c.ours);
      ("pass", Json.Bool c.pass) ]

let experiment_json e =
  Json.Obj
    [ ("key", Json.String e.key);
      ("wall_seconds", Json.Float e.wall_seconds);
      ("checks_passed",
       Json.Int (List.length (List.filter (fun c -> c.pass) e.checks)));
      ("checks_total", Json.Int (List.length e.checks));
      ("checks", Json.List (List.map check_json e.checks)) ]

let attribution_json a =
  Json.Obj
    [ ("term", Json.String a.term);
      ("counter", Json.String a.counter);
      ("n", Json.Int a.a_n);
      ("pearson_r", Json.Float a.pearson_r);
      ("scale", Json.Float a.scale);
      ("drift", Json.Float a.drift) ]

let env_json e =
  Json.Obj
    [ ("rev", Json.String e.rev);
      ("seed", Json.Int e.seed);
      ("repro_scale", Json.Float e.repro_scale);
      ("device", Json.String e.device);
      ("argv", Json.List (List.map (fun s -> Json.String s) e.argv));
      ("knobs", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) e.knobs));
      ("ocaml_version", Json.String e.ocaml_version);
      ("hostname", Json.String e.hostname) ]

let to_json t =
  Json.Obj
    [ ("schema", Json.String schema_name);
      ("version", Json.Int t.version);
      ("env", env_json t.env);
      ("experiments", Json.List (List.map experiment_json t.experiments));
      ("metrics", Json.List (List.map metric_json t.metrics));
      ("attribution", Json.List (List.map attribution_json t.attribution)) ]

(* --- deserialization ---------------------------------------------------- *)

(* A tiny checked-decoder monad over [result]: every accessor carries the
   field path so validation errors name the offending field. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field path name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing field %S" path name)

let opt_field name j = Json.member name j

let str path name j =
  let* v = field path name j in
  match Json.to_str v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "%s.%s: expected string" path name)

let num path name j =
  let* v = field path name j in
  match Json.to_float v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s.%s: expected number" path name)

let integer path name j =
  let* v = field path name j in
  match Json.to_int v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s.%s: expected integer" path name)

let boolean path name j =
  let* v = field path name j in
  match v with
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "%s.%s: expected bool" path name)

let elements path name j =
  let* v = field path name j in
  match v with
  | Json.List l -> Ok l
  | _ -> Error (Printf.sprintf "%s.%s: expected array" path name)

let map_result path f l =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | x :: tl -> (
      match f (Printf.sprintf "%s[%d]" path i) x with
      | Ok v -> go (i + 1) (v :: acc) tl
      | Error _ as e -> e)
  in
  go 0 [] l

let direction_of_string path = function
  | "higher" -> Ok Higher_better
  | "lower" -> Ok Lower_better
  | "neutral" -> Ok Neutral
  | s -> Error (Printf.sprintf "%s: unknown direction %S" path s)

let kind_of_string path = function
  | "deterministic" -> Ok Deterministic
  | "timing" -> Ok Timing
  | s -> Error (Printf.sprintf "%s: unknown kind %S" path s)

let metric_of_json path j =
  let* m_name = str path "name" j in
  let* m_experiment = str path "experiment" j in
  let* value = num path "value" j in
  let* unit_ = str path "unit" j in
  let* dir_s = str path "direction" j in
  let* direction = direction_of_string path dir_s in
  let* kind_s = str path "kind" j in
  let* kind = kind_of_string path kind_s in
  let ci =
    match
      (Option.bind (opt_field "ci_lo" j) Json.to_float,
       Option.bind (opt_field "ci_hi" j) Json.to_float)
    with
    | Some lo, Some hi -> Some (lo, hi)
    | _ -> None
  in
  let n = Option.bind (opt_field "n" j) Json.to_int in
  Ok { m_name; m_experiment; value; unit_; direction; kind; ci; n }

let check_of_json path j =
  let* claim = str path "claim" j in
  let* paper = str path "paper" j in
  let* ours = str path "ours" j in
  let* pass = boolean path "pass" j in
  Ok { claim; paper; ours; pass }

let experiment_of_json path j =
  let* key = str path "key" j in
  let* wall_seconds = num path "wall_seconds" j in
  let* checks_j = elements path "checks" j in
  let* checks = map_result (path ^ ".checks") check_of_json checks_j in
  Ok { key; wall_seconds; checks }

let attribution_of_json path j =
  let* term = str path "term" j in
  let* counter = str path "counter" j in
  let* a_n = integer path "n" j in
  let* pearson_r = num path "pearson_r" j in
  let* scale = num path "scale" j in
  let* drift = num path "drift" j in
  Ok { term; counter; a_n; pearson_r; scale; drift }

let env_of_json path j =
  let* rev = str path "rev" j in
  let* seed = integer path "seed" j in
  let* repro_scale = num path "repro_scale" j in
  let* device = str path "device" j in
  let* argv_j = elements path "argv" j in
  let* argv =
    map_result (path ^ ".argv")
      (fun p v ->
        match Json.to_str v with
        | Some s -> Ok s
        | None -> Error (p ^ ": expected string"))
      argv_j
  in
  let* knobs_j = field path "knobs" j in
  let* knobs =
    match knobs_j with
    | Json.Obj fields ->
      map_result (path ^ ".knobs")
        (fun p (k, v) ->
          match Json.to_str v with
          | Some s -> Ok (k, s)
          | None -> Error (p ^ ": expected string value"))
        fields
    | _ -> Error (path ^ ".knobs: expected object")
  in
  let* ocaml_version = str path "ocaml_version" j in
  let* hostname = str path "hostname" j in
  Ok { rev; seed; repro_scale; device; argv; knobs; ocaml_version; hostname }

let of_json j =
  let path = "report" in
  let* schema = str path "schema" j in
  if schema <> schema_name then
    Error (Printf.sprintf "report.schema: expected %S, got %S" schema_name schema)
  else
    let* version = integer path "version" j in
    if version > schema_version then
      Error
        (Printf.sprintf
           "report.version: %d is newer than this binary's schema (%d)" version
           schema_version)
    else
      let* env_j = field path "env" j in
      let* env = env_of_json (path ^ ".env") env_j in
      let* experiments_j = elements path "experiments" j in
      let* experiments =
        map_result (path ^ ".experiments") experiment_of_json experiments_j
      in
      let* metrics_j = elements path "metrics" j in
      let* metrics = map_result (path ^ ".metrics") metric_of_json metrics_j in
      let* attribution_j = elements path "attribution" j in
      let* attribution =
        map_result (path ^ ".attribution") attribution_of_json attribution_j
      in
      Ok { version; env; experiments; metrics; attribution }

(* --- I/O ---------------------------------------------------------------- *)

let artifact_kind = "isaac-bench-report"

let write ~path t =
  Util.Artifact.write ~path ~kind:artifact_kind ~version:schema_version
    (Json.to_string (to_json t) ^ "\n")

let parse path contents =
  match Json.of_string contents with
  | exception Json.Parse_error msg -> Error (path ^ ": " ^ msg)
  | j -> of_json j

let load path =
  match
    Util.Artifact.read ~path ~kind:artifact_kind ~max_version:schema_version
  with
  | Ok (_, payload) -> parse path payload
  | Error (Util.Artifact.Bad_header _) -> (
    (* Legacy headerless report (e.g. a committed baseline predating the
       artifact store): the whole file is the JSON document. *)
    match
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error msg -> Error msg
    | contents -> parse path contents)
  | Error e -> Error (Util.Artifact.error_to_string ~path e)
