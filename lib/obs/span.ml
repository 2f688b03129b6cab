(* Reversed stack of open span names, one per domain. *)
let stack : string list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let path_of rev_names = String.concat "/" (List.rev rev_names)

let current_path () = path_of (Domain.DLS.get stack)

(* Request-scoped ids: a process-wide counter hands out ids, and each
   domain carries the id of the request it is currently serving in DLS
   (0 = none). Parallel stages copy the id into worker domains with
   [set_request], so every span/flight event of one plan request carries
   the same id across domains. *)
let req_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let next_req = Atomic.make 1

let current_request () =
  match Domain.DLS.get req_key with 0 -> None | id -> Some id

let set_request id = Domain.DLS.set req_key (Option.value id ~default:0)

let with_request ?id f =
  if not (Telemetry.enabled ()) then f ()
  else begin
    let outer = Domain.DLS.get req_key in
    let id =
      match id with Some i -> i | None -> Atomic.fetch_and_add next_req 1
    in
    Domain.DLS.set req_key id;
    Fun.protect ~finally:(fun () -> Domain.DLS.set req_key outer) f
  end

(* The span proper, once the trace is known to be open: trace event,
   [<name>_s] histogram and flight-recorder entry all carry the one
   duration it returns. *)
let spanned ?meta name f =
  let outer = Domain.DLS.get stack in
  let rev_names = name :: outer in
  Domain.DLS.set stack rev_names;
  let start = Trace.now () in
  let m0 = Trace.monotonic () in
  let close ~ok =
    (* Durations come off the raw monotonized clock, as [with_dur]'s are
       with no trace open, so a span that outlives the trace still times
       correctly ([Trace.now] reads 0 once the sink is closed). *)
    let dur = Float.max 0.0 (Trace.monotonic () -. m0) in
    Domain.DLS.set stack outer;
    let req = Domain.DLS.get req_key in
    let fields =
      [ ("name", Json.String name);
        ("path", Json.String (path_of rev_names));
        ("start", Json.Float start);
        ("dur", Json.Float dur) ]
    in
    let fields =
      if req = 0 then fields else fields @ [ ("req", Json.Int req) ]
    in
    let fields = if ok then fields else fields @ [ ("error", Json.Bool true) ] in
    let fields =
      match meta with
      | None -> fields
      | Some m -> fields @ [ ("meta", Json.Obj (m ())) ]
    in
    Trace.emit "span" fields;
    Telemetry.observe (name ^ "_s") dur;
    Telemetry.Flight.record ~req
      ~kind:(if ok then "span" else "span.error")
      ~name:(path_of rev_names)
      (Printf.sprintf "%.3f ms" (dur *. 1e3));
    dur
  in
  match f () with
  | v -> (v, close ~ok:true)
  | exception e ->
    ignore (close ~ok:false);
    raise e

let with_ ?meta name f =
  if not (Telemetry.enabled ()) then f () else fst (spanned ?meta name f)

let with_dur ?meta name f =
  if Telemetry.enabled () then spanned ?meta name f
  else begin
    let m0 = Trace.monotonic () in
    let v = f () in
    (v, Float.max 0.0 (Trace.monotonic () -. m0))
  end
