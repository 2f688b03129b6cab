(* Plan-serving daemon core: protocol handling and hot-reload, shared
   by the stdin-JSONL and Unix-socket transports in bin/isaac_serve.

   The daemon is one resident Isaac engine per op (GEMM / CONV), both
   backed by the sharded coalescing Plan_cache, so any number of
   transport workers can call [handle] concurrently: lookups are
   lock-free, and racing cold requests coalesce onto one planning run.

   Profiles hot-reload: each engine slot remembers the
   Util.Artifact fingerprint of its profile file, and [maybe_reload]
   (called on a rate-limited schedule by the transports, or forced by
   the [reload] request) swaps in a freshly built engine when the file
   changed on disk. Swapping the whole engine — rather than mutating
   the old one — means in-flight requests finish against the profile
   they started with, and the plan cache restarts cold (plans from the
   old profile are stale by definition). Every engine is built on the
   daemon's one legality-class memo, which no profile enters. *)

let t_requests = Obs.Telemetry.counter "serve.requests"
let t_coalesced = Obs.Telemetry.counter "serve.coalesced"
let t_errors = Obs.Telemetry.counter "serve.errors"
let t_reloads = Obs.Telemetry.counter "serve.reloads"

type slot = {
  path : string;
  mutable fp : Util.Artifact.fingerprint;  (* guarded by [reload_lock] *)
  engine : Isaac.t Atomic.t;
}

type t = {
  device : Gpu.Device.t;
  gemm : slot option;
  conv : slot option;
  cache_entries : int option;
  (* The one legality-class memo of the daemon: no entry depends on a
     profile, so both engines and every reloaded one share it. *)
  planner : Tuner.Search.planner;
  reload_lock : Mutex.t;
  mutable last_reload_check : float;  (* guarded by [reload_lock] *)
  reload_interval : float;
  requests : int Atomic.t;
  errors : int Atomic.t;
  reloads : int Atomic.t;
  started_at : float;
}

let device_of_name name =
  match List.find_opt (fun (d : Gpu.Device.t) -> d.name = name) Gpu.Device.all with
  | Some d -> d
  | None -> failwith ("profile tuned on unknown device " ^ name)

let load_slot ?cache_entries ~planner ~op path =
  match Tuner.Profile.load path with
  | Error msg -> Error msg
  | Ok profile ->
    if profile.op <> op then
      Error
        (Printf.sprintf "%s: profile is for op %s, expected %s" path
           (match profile.op with `Gemm -> "gemm" | `Conv -> "conv")
           (match op with `Gemm -> "gemm" | `Conv -> "conv"))
    else (
      match Util.Artifact.fingerprint ~path with
      | Error e -> Error (Util.Artifact.error_to_string ~path e)
      | Ok fp ->
        let device = device_of_name profile.device in
        let engine = Isaac.of_profile ?cache_entries ~planner device profile in
        Ok { path; fp; engine = Atomic.make engine })

let create ?cache_entries ?(reload_interval = 2.0) ?gemm_profile ?conv_profile
    () =
  match (gemm_profile, conv_profile) with
  | None, None -> Error "no profile given: need a GEMM and/or CONV profile"
  | _ -> (
    let planner = Tuner.Search.planner () in
    let load op = function
      | None -> Ok None
      | Some path ->
        Result.map Option.some (load_slot ?cache_entries ~planner ~op path)
    in
    match load `Gemm gemm_profile with
    | Error e -> Error e
    | Ok gemm -> (
      match load `Conv conv_profile with
      | Error e -> Error e
      | Ok conv ->
        let device_of slot = Isaac.device (Atomic.get slot.engine) in
        let device =
          match (gemm, conv) with
          | Some g, _ -> device_of g
          | None, Some c -> device_of c
          | None, None -> assert false
        in
        (match conv with
         | Some c when (device_of c).name <> device.name ->
           failwith
             (Printf.sprintf "profiles tuned on different devices (%s vs %s)"
                device.name (device_of c).name)
         | _ -> ());
        Ok
          { device;
            gemm;
            conv;
            cache_entries;
            planner;
            reload_lock = Mutex.create ();
            last_reload_check = Unix.gettimeofday ();
            reload_interval;
            requests = Atomic.make 0;
            errors = Atomic.make 0;
            reloads = Atomic.make 0;
            started_at = Unix.gettimeofday () }))

let device t = t.device

(* --- hot reload -------------------------------------------------------- *)

(* Serialized on [reload_lock]; rate-limited to one stat() pair per
   [reload_interval] unless [force]d. A reload failure (file mid-write,
   wrong device, corrupt artifact) keeps the old engine serving and is
   reported to stderr — the daemon never degrades below its last good
   profile. *)
let reload_slot t slot =
  match Util.Artifact.fingerprint_changed ~path:slot.path slot.fp with
  | Error e ->
    Printf.eprintf "isaac_serve: reload check failed: %s\n%!"
      (Util.Artifact.error_to_string ~path:slot.path e);
    false
  | Ok (`Unchanged fp) ->
    slot.fp <- fp;
    false
  | Ok (`Changed fp) -> (
    match Tuner.Profile.load slot.path with
    | Error msg ->
      Printf.eprintf "isaac_serve: reload of %s failed: %s\n%!" slot.path msg;
      false
    | Ok profile ->
      if profile.device <> t.device.name then (
        Printf.eprintf
          "isaac_serve: reload of %s skipped: profile now targets %s, daemon \
           serves %s\n\
           %!"
          slot.path profile.device t.device.name;
        false)
      else begin
        let engine =
          Isaac.of_profile ?cache_entries:t.cache_entries ~planner:t.planner
            t.device profile
        in
        Atomic.set slot.engine engine;
        slot.fp <- fp;
        Atomic.incr t.reloads;
        if Obs.Telemetry.enabled () then Obs.Telemetry.Counter.incr t_reloads;
        true
      end)

let maybe_reload ?(force = false) t =
  Mutex.lock t.reload_lock;
  let now = Unix.gettimeofday () in
  let due = force || now -. t.last_reload_check >= t.reload_interval in
  let reloaded =
    if not due then 0
    else begin
      t.last_reload_check <- now;
      let n = ref 0 in
      Option.iter (fun s -> if reload_slot t s then incr n) t.gemm;
      Option.iter (fun s -> if reload_slot t s then incr n) t.conv;
      !n
    end
  in
  Mutex.unlock t.reload_lock;
  reloaded

(* --- request parsing --------------------------------------------------- *)

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_request s)) fmt

(* Replies quote request strings: every reply echoes the [id], and an
   error message can quote an unknown [op] or [dtype]. Each quote is
   bounded, so a hostile request cannot grow its own reply without
   bound. *)
let max_quoted_bytes = 256

(* Dimensions below [min] are rejected here, before they reach a
   planner that would otherwise cache a plan for an empty problem or
   trip a constructor's assertion. *)
let field_int ?default ~min json name =
  let i =
    match Obs.Json.member name json with
    | None -> (
      match default with
      | Some d -> d
      | None -> bad "missing integer field %S" name)
    | Some v -> (
      match Obs.Json.to_int v with
      | Some i -> i
      | None -> bad "field %S must be an integer" name)
  in
  if i < min then bad "field %S must be >= %d, got %d" name min i;
  i

(* [Gemm_params.input] and [Conv_params.input] reject a dimension, or a
   CONV's implicit-GEMM extent, above [Gemm_params.max_dim], the
   largest the cost model takes; their message names the field, and the
   request gets it as its error, so no plan is cached. *)
let checked_input make = try make () with Invalid_argument msg -> bad "%s" msg

(* Only an integer that parsed as one is echoed: the JSON reader keeps
   every other number as a float (a fraction, an exponent, an integer
   beyond OCaml's 63-bit range, or one not written as [string_of_int]
   prints it, such as -0 or 007), which would not print back as sent. *)
let field_id json =
  match Obs.Json.member "id" json with
  | None -> Obs.Json.Null
  | Some ((Obs.Json.Null | Obs.Json.Int _) as v) -> v
  | Some (Obs.Json.String s as v) when String.length s <= max_quoted_bytes -> v
  | Some _ ->
    bad
      "field \"id\" must be null, a string of at most %d bytes or an integer \
       in [-2^62, 2^62) with no fraction, exponent, leading zero or -0"
      max_quoted_bytes

let field_bool ~default json name =
  match Obs.Json.member name json with
  | None -> default
  | Some v -> (
    match Obs.Json.to_bool v with
    | Some b -> b
    | None -> bad "field %S must be a boolean" name)

let field_dtype json =
  match Obs.Json.member "dtype" json with
  | None -> Ptx.Types.F32
  | Some v -> (
    match Obs.Json.to_str v with
    | Some "f16" -> Ptx.Types.F16
    | Some "f32" -> Ptx.Types.F32
    | Some "f64" -> Ptx.Types.F64
    | Some s -> bad "unknown dtype %S (f16/f32/f64)" s
    | None -> bad "field \"dtype\" must be a string")

(* --- responses --------------------------------------------------------- *)

let json_of_plan (plan : Isaac.plan) =
  let c = plan.config in
  Obs.Json.Obj
    [ ("ms", Obs.Json.Int c.ms);
      ("ns", Obs.Json.Int c.ns);
      ("ks", Obs.Json.Int c.ks);
      ("ml", Obs.Json.Int c.ml);
      ("nl", Obs.Json.Int c.nl);
      ("u", Obs.Json.Int c.u);
      ("kl", Obs.Json.Int c.kl);
      ("kg", Obs.Json.Int c.kg);
      ("vec", Obs.Json.Int c.vec);
      ("db", Obs.Json.Int c.db);
      ("predicted_tflops", Obs.Json.Float plan.predicted_tflops);
      ("tflops", Obs.Json.Float plan.measurement.tflops);
      ("n_legal", Obs.Json.Int plan.n_legal);
      ("kernel_hash", Obs.Json.String (Printf.sprintf "%016Lx" plan.kernel_hash)) ]

let respond_plan ~id ~op ~latency_s (plan, outcome) =
  Obs.Json.Obj
    [ ("id", id);
      ("ok", Obs.Json.Bool true);
      ("op", Obs.Json.String op);
      ("cache", Obs.Json.String (Isaac.Plan_cache.outcome_name outcome));
      ("latency_s", Obs.Json.Float latency_s);
      ( "plan",
        match plan with Some p -> json_of_plan p | None -> Obs.Json.Null ) ]

let respond_error ~id msg =
  let n = String.length msg in
  let msg =
    if n <= max_quoted_bytes then msg
    else Printf.sprintf "%s... (%d bytes)" (String.sub msg 0 max_quoted_bytes) n
  in
  Obs.Json.Obj
    [ ("id", id); ("ok", Obs.Json.Bool false);
      ("error", Obs.Json.String msg) ]

let json_of_cache_stats (s : Isaac.Plan_cache.stats) =
  Obs.Json.Obj
    [ ("hits", Obs.Json.Int s.hits);
      ("misses", Obs.Json.Int s.misses);
      ("coalesced", Obs.Json.Int s.coalesced);
      ("evictions", Obs.Json.Int s.evictions);
      ("entries", Obs.Json.Int s.entries) ]

let stats_response t ~id =
  let cache =
    let zero : Isaac.Plan_cache.stats =
      { hits = 0; misses = 0; coalesced = 0; evictions = 0; entries = 0 }
    in
    let add acc = function
      | None -> acc
      | Some slot ->
        Isaac.Plan_cache.merge_stats acc
          (Isaac.cache_stats (Atomic.get slot.engine))
    in
    add (add zero t.gemm) t.conv
  in
  Obs.Json.Obj
    [ ("id", id);
      ("ok", Obs.Json.Bool true);
      ("op", Obs.Json.String "stats");
      ("device", Obs.Json.String t.device.name);
      ("uptime_s", Obs.Json.Float (Unix.gettimeofday () -. t.started_at));
      ("requests", Obs.Json.Int (Atomic.get t.requests));
      ("errors", Obs.Json.Int (Atomic.get t.errors));
      ("reloads", Obs.Json.Int (Atomic.get t.reloads));
      ("cache", json_of_cache_stats cache);
      ( "telemetry",
        if Obs.Telemetry.enabled () then Obs.Telemetry.snapshot_json ()
        else Obs.Json.Null ) ]

(* --- dispatch ---------------------------------------------------------- *)

let engine_for t = function
  | `Gemm -> (
    match t.gemm with
    | Some s -> Atomic.get s.engine
    | None -> bad "no GEMM profile loaded (start with --profile)")
  | `Conv -> (
    match t.conv with
    | Some s -> Atomic.get s.engine
    | None -> bad "no CONV profile loaded (start with --conv-profile)")

let record_request t outcome =
  Atomic.incr t.requests;
  if Obs.Telemetry.enabled () then begin
    Obs.Telemetry.Counter.incr t_requests;
    match (outcome : Isaac.Plan_cache.outcome) with
    | Coalesced -> Obs.Telemetry.Counter.incr t_coalesced
    | Hit | Miss -> ()
  end

let handle_gemm t json ~id =
  let input =
    checked_input (fun () ->
        Codegen.Gemm_params.input ~dtype:(field_dtype json)
          ~a_trans:(field_bool ~default:false json "a_trans")
          ~b_trans:(field_bool ~default:false json "b_trans")
          (field_int ~min:1 json "m") (field_int ~min:1 json "n")
          (field_int ~min:1 json "k"))
  in
  let engine = engine_for t `Gemm in
  (* One clock per plan request: the [serve.latency] span's duration is
     both the reply's [latency_s] and the one observation of the
     [serve.latency_s] histogram. The request id opens around it, so
     the root span carries the id its children do. *)
  let result, latency_s =
    Obs.Span.with_request (fun () ->
        Obs.Span.with_dur "serve.latency" (fun () ->
            Isaac.plan_gemm_with_status engine input))
  in
  record_request t (snd result);
  respond_plan ~id ~op:"gemm" ~latency_s result

let handle_conv t json ~id =
  let input =
    checked_input (fun () ->
        Codegen.Conv_params.input ~dtype:(field_dtype json)
          ~stride:(field_int ~default:1 ~min:1 json "stride")
          ~pad:(field_int ~default:0 ~min:0 json "pad")
          ~n:(field_int ~min:1 json "n") ~c:(field_int ~min:1 json "c")
          ~k:(field_int ~min:1 json "k") ~p:(field_int ~min:1 json "p")
          ~q:(field_int ~min:1 json "q") ~r:(field_int ~min:1 json "r")
          ~s:(field_int ~min:1 json "s") ())
  in
  let engine = engine_for t `Conv in
  let result, latency_s =
    Obs.Span.with_request (fun () ->
        Obs.Span.with_dur "serve.latency" (fun () ->
            Isaac.plan_conv_with_status engine input))
  in
  record_request t (snd result);
  respond_plan ~id ~op:"conv" ~latency_s result

let error_reply t ~id msg =
  Atomic.incr t.errors;
  if Obs.Telemetry.enabled () then Obs.Telemetry.Counter.incr t_errors;
  Obs.Json.to_string (respond_error ~id msg)

let handle t line =
  let id = ref Obs.Json.Null in
  match
    let json =
      try Obs.Json.of_string line
      with Obs.Json.Parse_error msg -> bad "parse error: %s" msg
    in
    id := field_id json;
    let op =
      match Option.bind (Obs.Json.member "op" json) Obs.Json.to_str with
      | Some op -> op
      | None -> bad "missing string field \"op\""
    in
    match op with
    | "ping" ->
      ( Obs.Json.Obj
          [ ("id", !id); ("ok", Obs.Json.Bool true);
            ("op", Obs.Json.String "ping") ],
        `Continue )
    | "stats" -> (stats_response t ~id:!id, `Continue)
    | "reload" ->
      let n = maybe_reload ~force:true t in
      ( Obs.Json.Obj
          [ ("id", !id); ("ok", Obs.Json.Bool true);
            ("op", Obs.Json.String "reload"); ("reloaded", Obs.Json.Int n) ],
        `Continue )
    | "shutdown" ->
      ( Obs.Json.Obj
          [ ("id", !id); ("ok", Obs.Json.Bool true);
            ("op", Obs.Json.String "shutdown") ],
        `Stop )
    | "gemm" ->
      ignore (maybe_reload t);
      (handle_gemm t json ~id:!id, `Continue)
    | "conv" ->
      ignore (maybe_reload t);
      (handle_conv t json ~id:!id, `Continue)
    | op -> bad "unknown op %S (ping/stats/reload/gemm/conv/shutdown)" op
  with
  | response, verdict -> (Obs.Json.to_string response, verdict)
  | exception Bad_request msg -> (error_reply t ~id:!id msg, `Continue)
  | exception exn -> (error_reply t ~id:!id (Printexc.to_string exn), `Continue)

(* --- transport --------------------------------------------------------- *)

(* The longest request line kept: far above any valid request, and
   above the 200 kB lines that exercise the JSON reader's own bounds
   (nesting depth, quoted strings), so those still reach it. A longer
   line is drained to its newline unread, so a request costs the daemon
   at most this much memory however long it is. *)
let max_line_bytes = 1 lsl 20

(* Reads [ic] through one fixed chunk buffer. Each call returns the next
   line without its newline, [`Too_long] for a line over
   [max_line_bytes], or [`Eof]; a last line with no newline is still a
   line. *)
let line_reader ic =
  let chunk = Bytes.create 65536 in
  let pos = ref 0 and len = ref 0 in
  let line = Buffer.create 256 in
  let rec newline i =
    if i = !len || Bytes.get chunk i = '\n' then i else newline (i + 1)
  in
  fun () ->
    Buffer.clear line;
    let too_long = ref false in
    let finish () = if !too_long then `Too_long else `Line (Buffer.contents line) in
    let rec scan () =
      if !pos = !len then begin
        pos := 0;
        len := input ic chunk 0 (Bytes.length chunk)
      end;
      if !len = 0 then
        if !too_long || Buffer.length line > 0 then finish () else `Eof
      else begin
        let stop = newline !pos in
        let n = stop - !pos in
        if not !too_long then
          if Buffer.length line + n > max_line_bytes then begin
            too_long := true;
            Buffer.reset line
          end
          else Buffer.add_subbytes line chunk !pos n;
        if stop < !len then begin
          pos := stop + 1;
          finish ()
        end
        else begin
          pos := !len;
          scan ()
        end
      end
    in
    scan ()

let serve_lines t ic oc =
  let next_line = line_reader ic in
  let reply response =
    output_string oc response;
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match next_line () with
    | `Eof -> `Eof
    | `Too_long ->
      reply
        (error_reply t ~id:Obs.Json.Null
           (Printf.sprintf "request line longer than %d bytes" max_line_bytes));
      loop ()
    | `Line line -> (
      let line = String.trim line in
      if line = "" then loop ()
      else
        let response, verdict = handle t line in
        reply response;
        match verdict with `Continue -> loop () | `Stop -> `Stop)
  in
  loop ()
