(* In-memory span recorder for the traced run.

   Each traced op is one root span ["op"] carrying the op's request id;
   every public call the benchmark makes for that op gets a child span.
   A span may also name its parent explicitly: the layer calls a
   benchmark replays after a real entry-point call (the parse, cache and
   serialize steps of a [Serve.handle], say) are recorded as children of
   that entry-point span, because they re-run work it did inside. A
   span's self time is its duration minus its children's durations, so
   the entry point's self time is what remains unexplained by the
   replayed layers.

   Self times are folded into per-name totals as each op closes, so a
   run of millions of ops keeps only the spans of its first
   [keep_ops] ops in memory; those are written out when the run ends. *)

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;  (* -1 for the root *)
  start : int64;
  mutable stop : int64;
}

type totals = { mutable self_s : float; mutable calls : int }

let keep_ops = 200

(* Off in untraced runs: every span call then just runs its function. *)
let enabled = ref false

(* Self-time totals per span name: of the traced ops, and of set-up. *)
let totals : (string, totals) Hashtbl.t = Hashtbl.create 32
let setup_totals : (string, totals) Hashtbl.t = Hashtbl.create 8
let kept : span list ref = ref []
let current : span list ref = ref []  (* spans of the open op, newest first *)
let stack : int list ref = ref []
let next_id = ref 0
let req = ref 0
let ops_closed = ref 0

let open_span ?parent name =
  let parent =
    match (parent, !stack) with
    | Some p, _ -> p
    | None, top :: _ -> top
    | None, [] -> -1
  in
  let s = { id = !next_id; name; req = !req; parent; start = Measure.now_ns ();
            stop = 0L } in
  incr next_id;
  current := s :: !current;
  stack := s.id :: !stack;
  s

let close_span s =
  s.stop <- Measure.now_ns ();
  stack := List.tl !stack

let duration s = Measure.seconds_between s.start s.stop

(* [span_with ?parent name f] runs [f] inside a span and returns the
   span's id and duration in seconds with the result. *)
let span_with ?parent name f =
  if not !enabled then (-1, 0.0, f ())
  else begin
    let s = open_span ?parent name in
    match f () with
    | r -> close_span s; (s.id, duration s, r)
    | exception e -> close_span s; raise e
  end

let span ?parent name f =
  let _, _, r = span_with ?parent name f in
  r

let fold_into totals spans =
  let child_s = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_s s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.parent)))
    spans;
  List.iter
    (fun s ->
      let self = duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.id) in
      let t =
        match Hashtbl.find_opt totals s.name with
        | Some t -> t
        | None ->
          let t = { self_s = 0.0; calls = 0 } in
          Hashtbl.add totals s.name t;
          t
      in
      t.self_s <- t.self_s +. self;
      t.calls <- t.calls + 1)
    spans

(* Run one traced op under a root span. *)
let op ~req:r f =
  req := r;
  current := [];
  let root = open_span "op" in
  let result = f () in
  close_span root;
  fold_into totals !current;
  if !ops_closed < keep_ops then kept := List.rev_append !current !kept;
  incr ops_closed;
  result

(* Set-up work traced outside any op (profile loads, sampler fits). *)
let setup f =
  req := -1;
  current := [];
  let result = f () in
  fold_into setup_totals !current;
  kept := List.rev_append !current !kept;
  result

let self_s ?(setup = false) name =
  match Hashtbl.find_opt (if setup then setup_totals else totals) name with
  | Some t -> t.self_s
  | None -> 0.0

let calls ?(setup = false) name =
  match Hashtbl.find_opt (if setup then setup_totals else totals) name with
  | Some t -> t.calls
  | None -> 0

(* Sum of op self times over every recorded name except [excluding]. *)
let self_sum ~excluding =
  Hashtbl.fold
    (fun name t acc -> if List.mem name excluding then acc else acc +. t.self_s)
    totals 0.0

let write path ~t0 =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (Obs.Json.to_string
               (Obs.Json.Obj
                  [ ("id", Obs.Json.Int s.id);
                    ("name", Obs.Json.String s.name);
                    ("req", Obs.Json.Int s.req);
                    ("parent", Obs.Json.Int s.parent);
                    ("start_us", Obs.Json.Float (Measure.seconds_between t0 s.start *. 1e6));
                    ("end_us", Obs.Json.Float (Measure.seconds_between t0 s.stop *. 1e6)) ]));
          output_char oc '\n')
        (List.sort (fun a b -> compare a.id b.id) !kept))
