type sink = {
  mutable oc : out_channel; (* guarded by [lock]; swapped on rotation *)
  path : string;
  t0 : float;  (* monotonic origin of the trace *)
  lock : Mutex.t;  (* serializes writes; guards [closed]/[oc]/[bytes] *)
  mutable closed : bool;
  mutable bytes : int; (* bytes written to the current file *)
  max_bytes : int option; (* rotation threshold; None = unbounded *)
}

(* Cross-domain lifecycle: [on] and [sink] are atomics so emitters on any
   domain read a coherent snapshot without locking; [master] serializes
   the start/stop transitions (and the finalizer list). An emitter that
   read the sink just before a concurrent [stop] is harmless: [stop]
   flips [closed] and closes the channel under the sink's own lock, and
   every write re-checks [closed] under that lock first. *)
let sink : sink option Atomic.t = Atomic.make None
let on = Atomic.make false
let master = Mutex.create ()
let finalizers : (unit -> unit) list ref = ref []
let exit_hook_installed = ref false

let enabled () = Atomic.get on

(* This Unix build has no [clock_gettime]; monotonize gettimeofday by
   clamping to the largest timestamp handed out so far, so a wall-clock
   step backwards can never produce a negative duration. *)
let high_water = Atomic.make 0.0

let mono () =
  let t = Unix.gettimeofday () in
  let rec clamp () =
    let hw = Atomic.get high_water in
    if t <= hw then hw
    else if Atomic.compare_and_set high_water hw t then t
    else clamp ()
  in
  clamp ()

let monotonic = mono

let now () =
  match Atomic.get sink with None -> 0.0 | Some s -> mono () -. s.t0

(* Rotate under the sink lock: close, shift the current file to a [.1]
   suffix (clobbering any previous one — a single rotation generation is
   the documented retention), reopen fresh, and leave a marker event so
   readers of the new file know data precedes it. [Sys.rename] is atomic
   on POSIX, so a concurrent reader of [path] sees either the old or the
   new file, never a torn one. *)
let rotate_locked s =
  close_out s.oc;
  let old = s.path ^ ".1" in
  if Sys.file_exists old then Sys.remove old;
  Sys.rename s.path old;
  s.oc <- open_out s.path;
  s.bytes <- 0;
  let marker =
    Json.to_string
      (Json.Obj
         [ ("ev", Json.String "trace_rotate");
           ("ts", Json.Float (mono () -. s.t0));
           ("rotated_to", Json.String old) ])
  in
  output_string s.oc marker;
  output_char s.oc '\n';
  s.bytes <- s.bytes + String.length marker + 1

(* [capped = false] skips the rotation check: [stop] writes its closing
   [trace_end] that way, so the last line can never rotate the newest
   events out of the live file (it may overshoot the cap by that line). *)
let write ~capped ev fields =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
    let line =
      Json.to_string
        (Json.Obj (("ev", Json.String ev) :: ("ts", Json.Float (mono () -. s.t0)) :: fields))
    in
    Mutex.lock s.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock s.lock)
      (fun () ->
        if not s.closed then begin
          (match s.max_bytes with
           | Some cap
             when capped && s.bytes > 0 && s.bytes + String.length line + 1 > cap ->
             rotate_locked s
           | _ -> ());
          output_string s.oc line;
          output_char s.oc '\n';
          s.bytes <- s.bytes + String.length line + 1
        end)

let emit ev fields = write ~capped:true ev fields

let point ?unit_ name ~x ~y =
  if enabled () then
    emit "point"
      ([ ("series", Json.String name); ("x", Json.Float x); ("y", Json.Float y) ]
      @ match unit_ with None -> [] | Some u -> [ ("unit", Json.String u) ])

let stop () =
  Mutex.lock master;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock master)
    (fun () ->
      match Atomic.get sink with
      | None -> ()
      | Some s ->
        (* Finalizers run while the sink is still live so they can emit
           (Telemetry writes its registry here). *)
        List.iter (fun f -> f ()) (List.rev !finalizers);
        write ~capped:false "trace_end" [];
        Atomic.set on false;
        Atomic.set sink None;
        (* Close under the sink lock: an emitter that read this sink
           before we unpublished it either finishes its write first or
           sees [closed] and drops the event — never a closed channel. *)
        Mutex.lock s.lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock s.lock)
          (fun () ->
            s.closed <- true;
            close_out s.oc))

let at_stop f =
  Mutex.lock master;
  finalizers := f :: !finalizers;
  Mutex.unlock master

let start ?max_bytes ~path () =
  Mutex.lock master;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock master)
    (fun () ->
      if Atomic.get sink = None then begin
        let oc = open_out path in
        Atomic.set sink
          (Some
             { oc; path; t0 = mono (); lock = Mutex.create (); closed = false;
               bytes = 0; max_bytes });
        Atomic.set on true;
        if not !exit_hook_installed then begin
          exit_hook_installed := true;
          at_exit stop
        end;
        emit "trace_start"
          [ ("version", Json.Int 1);
            ("unix_time", Json.Float (Unix.gettimeofday ()));
            ("argv", Json.List (Array.to_list (Array.map (fun a -> Json.String a) Sys.argv))) ]
      end)

(* Honour ISAAC_TRACE as soon as any instrumented code touches this
   module, so binaries need no explicit initialization. ISAAC_TRACE_MAX_MB
   caps the file size via single-generation rotation to [path.1]. *)
let () =
  match Sys.getenv_opt "ISAAC_TRACE" with
  | Some path when path <> "" ->
    let max_bytes =
      let mb = Util.Env_config.float "ISAAC_TRACE_MAX_MB" 0.0 in
      if mb > 0.0 then Some (int_of_float (mb *. 1024.0 *. 1024.0)) else None
    in
    start ?max_bytes ~path ()
  | _ -> ()

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line when String.trim line = "" -> go (lineno + 1) acc
        | line -> (
          match Json.of_string line with
          | v -> go (lineno + 1) (v :: acc)
          | exception Json.Parse_error msg ->
            raise (Json.Parse_error (Printf.sprintf "line %d: %s" lineno msg)))
      in
      go 1 [])

let read_file_partial path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc skipped =
        match input_line ic with
        | exception End_of_file -> (List.rev acc, skipped)
        | line when String.trim line = "" -> go acc skipped
        | line -> (
          match Json.of_string line with
          | v -> go (v :: acc) skipped
          | exception Json.Parse_error _ -> go acc (skipped + 1))
      in
      go [] 0)
