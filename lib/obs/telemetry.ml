(* Always-on serving telemetry: the process's one registry of sharded
   lock-free counters and gauges and log-bucketed mergeable histograms,
   a per-domain flight recorder, a model-quality (predicted-vs-measured
   residual) channel, and a periodic snapshot exporter (JSONL +
   Prometheus-style text).

   Design contract: when neither ISAAC_TELEMETRY nor ISAAC_TRACE is set
   every gated entry point reduces to two atomic-bool loads. When
   enabled, the hot path is a shard lookup plus one
   [Atomic.fetch_and_add] — no mutex is ever taken on a counter bump or
   histogram observation, so totals are exact for any domain count
   (fetch-and-add cannot lose increments even when two domains collide
   on a shard). *)

let shard_bits = 4
let n_shards = 1 lsl shard_bits

(* Domain ids grow monotonically over the program's life; masking can
   alias two live domains onto one shard. That only costs contention on
   the shard's atomics — never correctness. *)
let shard_self () = (Domain.self () :> int) land (n_shards - 1)

let rec atomic_add_float a x =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. x)) then atomic_add_float a x

let rec atomic_min_float a x =
  let cur = Atomic.get a in
  if x < cur && not (Atomic.compare_and_set a cur x) then atomic_min_float a x

let rec atomic_max_float a x =
  let cur = Atomic.get a in
  if x > cur && not (Atomic.compare_and_set a cur x) then atomic_max_float a x

(* --- enabled flag (set by [start], read by every gated call) ----------- *)

(* The registry collects while either sink is open: the exporter here or
   a trace, which records the registry when it stops. *)
let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag || Trace.enabled ()

(* --- counters ----------------------------------------------------------- *)

module Counter = struct
  type t = { cells : int Atomic.t array }

  let create () = { cells = Array.init n_shards (fun _ -> Atomic.make 0) }
  let add t n = ignore (Atomic.fetch_and_add t.cells.(shard_self ()) n)
  let incr t = add t 1
  let value t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.cells
  let reset t = Array.iter (fun c -> Atomic.set c 0) t.cells
end

(* --- log-bucketed histograms -------------------------------------------- *)

module Histo = struct
  (* HDR-style layout: each power-of-two octave [2^k, 2^{k+1}) is split
     into [sub_count] equal linear sub-buckets, so the relative bucket
     width is at most 1/sub_count = 3.125% and reporting the bucket
     midpoint bounds the relative quantile error by half that (~1.6%,
     under the documented 2% bound). Bucket indices are computable from
     [frexp] alone — no log call on the hot path. *)
  let sub_bits = 5
  let sub_count = 1 lsl sub_bits
  let oct_lo = -40 (* smallest octave: values below 2^-40 clamp to bucket 0 *)
  let n_octaves = 64 (* largest octave 2^23: ~8.4e6 (seconds, bytes, ratios) *)
  let n_buckets = n_octaves * sub_count

  let bucket_of v =
    if Float.is_nan v || v <= 0.0 then 0
    else if v = Float.infinity then n_buckets - 1
    else begin
      let m, e = Float.frexp v in
      (* v = m * 2^e with m in [0.5, 1): v lies in octave [2^(e-1), 2^e). *)
      let oct = e - 1 in
      if oct < oct_lo then 0
      else if oct >= oct_lo + n_octaves then n_buckets - 1
      else begin
        let s = int_of_float ((m *. 2.0 -. 1.0) *. float_of_int sub_count) in
        let s = if s >= sub_count then sub_count - 1 else if s < 0 then 0 else s in
        ((oct - oct_lo) lsl sub_bits) lor s
      end
    end

  let bucket_lower b =
    let oct = oct_lo + (b lsr sub_bits) and s = b land (sub_count - 1) in
    Float.ldexp (1.0 +. (float_of_int s /. float_of_int sub_count)) oct

  let bucket_width b =
    Float.ldexp (1.0 /. float_of_int sub_count) (oct_lo + (b lsr sub_bits))

  let bucket_mid b = bucket_lower b +. (0.5 *. bucket_width b)

  type shard = {
    (* Bucket arrays are allocated on a shard's first observation, so
       idle shards cost one word instead of [n_buckets] atomics. *)
    s_buckets : int Atomic.t array option Atomic.t;
    s_sum : float Atomic.t;
  }

  type t = {
    shards : shard array;
    h_min : float Atomic.t;
    h_max : float Atomic.t;
  }

  let create () =
    { shards =
        Array.init n_shards (fun _ ->
            { s_buckets = Atomic.make None; s_sum = Atomic.make 0.0 });
      h_min = Atomic.make Float.infinity;
      h_max = Atomic.make Float.neg_infinity }

  let shard_buckets sh =
    match Atomic.get sh.s_buckets with
    | Some b -> b
    | None ->
      let fresh = Array.init n_buckets (fun _ -> Atomic.make 0) in
      if Atomic.compare_and_set sh.s_buckets None (Some fresh) then fresh
      else (
        match Atomic.get sh.s_buckets with
        | Some b -> b
        | None -> fresh (* unreachable: CAS loser implies a publisher *))

  let observe t v =
    if not (Float.is_nan v) then begin
      let sh = t.shards.(shard_self ()) in
      let b = shard_buckets sh in
      ignore (Atomic.fetch_and_add b.(bucket_of v) 1);
      atomic_add_float sh.s_sum v;
      if v < Atomic.get t.h_min then atomic_min_float t.h_min v;
      if v > Atomic.get t.h_max then atomic_max_float t.h_max v
    end

  type snapshot = {
    count : int;
    sum : float;
    min_v : float; (* +inf when empty *)
    max_v : float; (* -inf when empty *)
    buckets : (int * int) array; (* sparse (bucket, count), ascending *)
  }

  let empty_snapshot =
    { count = 0; sum = 0.0; min_v = Float.infinity;
      max_v = Float.neg_infinity; buckets = [||] }

  let snapshot t =
    let totals = Array.make n_buckets 0 in
    let sum = ref 0.0 in
    Array.iter
      (fun sh ->
        (match Atomic.get sh.s_buckets with
         | None -> ()
         | Some b ->
           for i = 0 to n_buckets - 1 do
             totals.(i) <- totals.(i) + Atomic.get b.(i)
           done);
        sum := !sum +. Atomic.get sh.s_sum)
      t.shards;
    let count = Array.fold_left ( + ) 0 totals in
    let sparse = ref [] in
    for i = n_buckets - 1 downto 0 do
      if totals.(i) > 0 then sparse := (i, totals.(i)) :: !sparse
    done;
    { count;
      sum = !sum;
      min_v = Atomic.get t.h_min;
      max_v = Atomic.get t.h_max;
      buckets = Array.of_list !sparse }

  let reset t =
    Array.iter
      (fun sh ->
        (match Atomic.get sh.s_buckets with
         | None -> ()
         | Some b -> Array.iter (fun a -> Atomic.set a 0) b);
        Atomic.set sh.s_sum 0.0)
      t.shards;
    Atomic.set t.h_min Float.infinity;
    Atomic.set t.h_max Float.neg_infinity

  (* Merge is element-wise bucket addition: associative and commutative
     (exactly so for the integer fields; the float [sum] is exact
     whenever the observations are, e.g. integer-valued tests). *)
  let merge a b =
    if a.count = 0 then b
    else if b.count = 0 then a
    else begin
      let out = ref [] in
      let ia = ref 0 and ib = ref 0 in
      let na = Array.length a.buckets and nb = Array.length b.buckets in
      while !ia < na || !ib < nb do
        if !ib >= nb then (out := a.buckets.(!ia) :: !out; incr ia)
        else if !ia >= na then (out := b.buckets.(!ib) :: !out; incr ib)
        else begin
          let ka, ca = a.buckets.(!ia) and kb, cb = b.buckets.(!ib) in
          if ka < kb then (out := (ka, ca) :: !out; incr ia)
          else if kb < ka then (out := (kb, cb) :: !out; incr ib)
          else (out := (ka, ca + cb) :: !out; incr ia; incr ib)
        end
      done;
      { count = a.count + b.count;
        sum = a.sum +. b.sum;
        min_v = Float.min a.min_v b.min_v;
        max_v = Float.max a.max_v b.max_v;
        buckets = Array.of_list (List.rev !out) }
    end

  let quantile s q =
    if s.count = 0 then Float.nan
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let target = max 1 (int_of_float (Float.ceil (q *. float_of_int s.count))) in
      let rec go i cum =
        if i >= Array.length s.buckets then s.max_v
        else begin
          let b, c = s.buckets.(i) in
          let cum = cum + c in
          if cum >= target then
            (* Clamp the bucket midpoint to the observed range so p0/p100
               coincide with the exactly-tracked min/max. *)
            Float.max s.min_v (Float.min s.max_v (bucket_mid b))
          else go (i + 1) cum
        end
      in
      go 0 0
    end

  let mean s = if s.count = 0 then Float.nan else s.sum /. float_of_int s.count
end

(* --- gauges ------------------------------------------------------------- *)

module Gauge = struct
  type t = { cell : float Atomic.t }

  let create () = { cell = Atomic.make Float.nan }
  let set t v = Atomic.set t.cell v
  let value t = Atomic.get t.cell
  let reset t = Atomic.set t.cell Float.nan
end

(* --- model-quality cells ------------------------------------------------ *)

type model_cell = {
  cell_op : string;
  cell_bucket : string;
  m_n : int Atomic.t;
  m_abs_rel : float Atomic.t; (* sum of |predicted-measured|/measured *)
}

(* --- registry ----------------------------------------------------------- *)

type entity =
  | C of Counter.t
  | H of Histo.t
  | G of Gauge.t
  | M of model_cell

(* The one process-wide registry, a copy-on-write table published
   through an [Atomic]: lookups (the hot path for string-keyed callers)
   are lock-free on an immutable snapshot; first use of a name takes the
   mutex, copies and republishes. *)
let registry : (string, entity) Hashtbl.t Atomic.t = Atomic.make (Hashtbl.create 64)
let registry_lock = Mutex.create ()

let find_or name make =
  match Hashtbl.find_opt (Atomic.get registry) name with
  | Some e -> e
  | None ->
    Mutex.lock registry_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock registry_lock)
      (fun () ->
        let cur = Atomic.get registry in
        match Hashtbl.find_opt cur name with
        | Some e -> e
        | None ->
          let e = make () in
          let copy = Hashtbl.copy cur in
          Hashtbl.add copy name e;
          Atomic.set registry copy;
          e)

let counter name =
  match find_or name (fun () -> C (Counter.create ())) with
  | C c -> c
  | _ -> invalid_arg ("Telemetry: " ^ name ^ " is not a counter")

let histo name =
  match find_or name (fun () -> H (Histo.create ())) with
  | H h -> h
  | _ -> invalid_arg ("Telemetry: " ^ name ^ " is not a histogram")

let gauge name =
  match find_or name (fun () -> G (Gauge.create ())) with
  | G g -> g
  | _ -> invalid_arg ("Telemetry: " ^ name ^ " is not a gauge")

(* Registered entities of one kind, sorted by name. *)
let entities kind =
  Hashtbl.fold
    (fun k v acc -> match kind v with Some x -> (k, x) :: acc | None -> acc)
    (Atomic.get registry) []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters () = entities (function C c -> Some c | _ -> None)
let histos () = entities (function H h -> Some h | _ -> None)
let gauges () = entities (function G g -> Some g | _ -> None)
let model_cells () = List.map snd (entities (function M m -> Some m | _ -> None))

let add name n = if enabled () then Counter.add (counter name) n
let incr name = add name 1
let observe name v = if enabled () then Histo.observe (histo name) v
let set_gauge name v = if enabled () then Gauge.set (gauge name) v

let counter_value name =
  match Hashtbl.find_opt (Atomic.get registry) name with
  | Some (C c) -> Some (Counter.value c)
  | _ -> None

let gauge_value name =
  match Hashtbl.find_opt (Atomic.get registry) name with
  | Some (G g) ->
    let v = Gauge.value g in
    if Float.is_nan v then None else Some v
  | _ -> None

(* --- model-quality channel ---------------------------------------------- *)

module Model = struct
  let key ~op ~bucket = "model/" ^ op ^ "/" ^ bucket

  let cell ~op ~bucket =
    match
      find_or (key ~op ~bucket) (fun () ->
          M
            { cell_op = op; cell_bucket = bucket; m_n = Atomic.make 0;
              m_abs_rel = Atomic.make 0.0 })
    with
    | M m -> m
    | _ -> invalid_arg "Telemetry.Model: name collision"

  let record ~op ~bucket ~predicted ~measured =
    if enabled () && Float.is_finite predicted && Float.is_finite measured
       && measured > 0.0
    then begin
      let m = cell ~op ~bucket in
      ignore (Atomic.fetch_and_add m.m_n 1);
      atomic_add_float m.m_abs_rel (Float.abs (predicted -. measured) /. measured)
    end

  (* Mean absolute relative residual across every bucket of [op];
     [None] until something was recorded. *)
  let drift ~op =
    let n, s =
      List.fold_left
        (fun (n, s) m ->
          if m.cell_op = op then
            (n + Atomic.get m.m_n, s +. Atomic.get m.m_abs_rel)
          else (n, s))
        (0, 0.0)
        (model_cells ())
    in
    if n = 0 then None else Some (s /. float_of_int n)

  let ops () =
    List.sort_uniq compare
      (List.map (fun m -> m.cell_op) (model_cells ()))
end

(* --- flight recorder ---------------------------------------------------- *)

module Flight = struct
  type event = {
    ts : float; (* unix time *)
    req : int; (* 0 = no request in scope *)
    kind : string;
    name : string;
    detail : string;
  }

  let ring_size = 64
  let n_rings = 8

  type ring = { slots : event option array; pos : int Atomic.t }

  let rings =
    Array.init n_rings (fun _ ->
        { slots = Array.make ring_size None; pos = Atomic.make 0 })

  let record ?(req = 0) ~kind ~name detail =
    if enabled () then begin
      let r = rings.((Domain.self () :> int) land (n_rings - 1)) in
      let i = Atomic.fetch_and_add r.pos 1 in
      (* A racing store to the same slot writes one pointer — the slot
         always holds a whole event, just possibly not the very latest. *)
      r.slots.(i land (ring_size - 1)) <-
        Some { ts = Unix.gettimeofday (); req; kind; name; detail }
    end

  let events () =
    let acc = ref [] in
    Array.iter
      (fun r ->
        Array.iter
          (function None -> () | Some e -> acc := e :: !acc)
          r.slots)
      rings;
    List.sort (fun a b -> compare a.ts b.ts) !acc

  let clear () =
    Array.iter
      (fun r ->
        Array.fill r.slots 0 ring_size None;
        Atomic.set r.pos 0)
      rings

  let dump ?(limit = 12) () =
    match events () with
    | [] -> ""
    | evs ->
      let evs =
        let n = List.length evs in
        if n <= limit then evs
        else List.filteri (fun i _ -> i >= n - limit) evs
      in
      let newest = List.fold_left (fun acc e -> Float.max acc e.ts) 0.0 evs in
      let line e =
        Printf.sprintf "  %+.3fs%s %s %s%s" (e.ts -. newest)
          (if e.req > 0 then Printf.sprintf " [req %d]" e.req else "")
          e.kind e.name
          (if e.detail = "" then "" else ": " ^ e.detail)
      in
      "flight recorder (most recent last):\n"
      ^ String.concat "\n" (List.map line evs)
end

(* --- snapshots ---------------------------------------------------------- *)

let seq = Atomic.make 0

let hist_fields (s : Histo.snapshot) =
  [ ("count", Json.Int s.count);
    ("sum", Json.Float s.sum);
    ("min", Json.Float s.min_v);
    ("max", Json.Float s.max_v);
    ("mean", Json.Float (Histo.mean s));
    ("p50", Json.Float (Histo.quantile s 0.50));
    ("p90", Json.Float (Histo.quantile s 0.90));
    ("p95", Json.Float (Histo.quantile s 0.95));
    ("p99", Json.Float (Histo.quantile s 0.99)) ]

let snapshot_json () =
  let counters =
    List.map
      (fun (name, c) -> (name, Json.Int (Counter.value c)))
      (counters ())
  in
  let gauges =
    List.filter_map
      (fun (name, g) ->
        let v = Gauge.value g in
        if Float.is_nan v then None else Some (name, Json.Float v))
      (gauges ())
  in
  let drift_gauges =
    List.filter_map
      (fun op ->
        Option.map
          (fun d -> ("model.drift." ^ op, Json.Float d))
          (Model.drift ~op))
      (Model.ops ())
  in
  let hists =
    List.filter_map
      (fun (name, h) ->
        let s = Histo.snapshot h in
        if s.count = 0 then None else Some (name, Json.Obj (hist_fields s)))
      (histos ())
  in
  let model =
    List.map
      (fun op ->
        let buckets =
          List.filter_map
            (fun m ->
              if m.cell_op <> op then None
              else begin
                let n = Atomic.get m.m_n in
                if n = 0 then None
                else
                  Some
                    ( m.cell_bucket,
                      Json.Obj
                        [ ("n", Json.Int n);
                          ( "mae_rel",
                            Json.Float
                              (Atomic.get m.m_abs_rel /. float_of_int n) ) ] )
              end)
            (model_cells ())
        in
        ( op,
          Json.Obj
            [ ( "drift",
                match Model.drift ~op with
                | Some d -> Json.Float d
                | None -> Json.Null );
              ("buckets", Json.Obj buckets) ] ))
      (Model.ops ())
  in
  Json.Obj
    [ ("schema", Json.String "isaac-telemetry");
      ("version", Json.Int 1);
      ("seq", Json.Int (Atomic.get seq));
      ("unix_time", Json.Float (Unix.gettimeofday ()));
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj (gauges @ drift_gauges));
      ("hists", Json.Obj hists);
      ("model", Json.Obj model) ]

(* --- Prometheus-style text exposition ----------------------------------- *)

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" v

let prometheus () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, c) ->
      let n = "isaac_" ^ sanitize name ^ "_total" in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" n);
      Buffer.add_string buf (Printf.sprintf "%s %d\n" n (Counter.value c)))
    (counters ());
  let emit_gauge name v =
    let n = "isaac_" ^ sanitize name in
    Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" n);
    Buffer.add_string buf (Printf.sprintf "%s %s\n" n (prom_float v))
  in
  List.iter
    (fun (name, g) ->
      let v = Gauge.value g in
      if not (Float.is_nan v) then emit_gauge name v)
    (gauges ());
  List.iter
    (fun op ->
      match Model.drift ~op with
      | Some d -> emit_gauge ("model_drift_" ^ op) d
      | None -> ())
    (Model.ops ());
  List.iter
    (fun (name, h) ->
      let s = Histo.snapshot h in
      if s.count > 0 then begin
        let n = "isaac_" ^ sanitize name in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" n);
        List.iter
          (fun q ->
            Buffer.add_string buf
              (Printf.sprintf "%s{quantile=\"%g\"} %s\n" n q
                 (prom_float (Histo.quantile s q))))
          [ 0.5; 0.9; 0.95; 0.99 ];
        Buffer.add_string buf
          (Printf.sprintf "%s_sum %s\n" n (prom_float s.sum));
        Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n s.count)
      end)
    (histos ());
  Buffer.contents buf

(* --- exporter ----------------------------------------------------------- *)

type exporter = {
  path : string;
  interval : float; (* <= 0: export only on stop / export_now *)
  stop_requested : bool Atomic.t;
  mutable worker : unit Domain.t option;
  ex_lock : Mutex.t; (* serializes file writes across callers *)
}

let state : exporter option Atomic.t = Atomic.make None
let master = Mutex.create ()
let exit_hook_installed = ref false

let write_exports ex =
  Mutex.lock ex.ex_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock ex.ex_lock)
    (fun () ->
      ignore (Atomic.fetch_and_add seq 1);
      let line = Json.to_string (snapshot_json ()) in
      let oc =
        open_out_gen [ Open_append; Open_creat ] 0o644 ex.path
      in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc line;
          output_char oc '\n');
      (* Prometheus text goes through write-temp-then-rename so scrapers
         never see a torn file. *)
      let prom_path = ex.path ^ ".prom" in
      let tmp = prom_path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
      let oc = open_out tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (prometheus ()));
      Sys.rename tmp prom_path)

let export_now () =
  match Atomic.get state with
  | None -> ()
  | Some ex -> (
    try write_exports ex
    with e ->
      Printf.eprintf "isaac telemetry: export to %s failed: %s\n%!" ex.path
        (Printexc.to_string e))

let rec sleep_until ex t_end =
  if Atomic.get ex.stop_requested then false
  else begin
    let now = Unix.gettimeofday () in
    if now >= t_end then true
    else begin
      Unix.sleepf (Float.min 0.05 (t_end -. now));
      sleep_until ex t_end
    end
  end

let rec export_loop ex =
  if sleep_until ex (Unix.gettimeofday () +. ex.interval) then begin
    export_now ();
    export_loop ex
  end

let stop () =
  Mutex.lock master;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock master)
    (fun () ->
      match Atomic.get state with
      | None -> ()
      | Some ex ->
        Atomic.set ex.stop_requested true;
        (match ex.worker with
         | Some d ->
           Domain.join d;
           ex.worker <- None
         | None -> ());
        export_now ();
        Atomic.set enabled_flag false;
        Atomic.set state None)

let start ?(interval_s = 0.0) ~path () =
  Mutex.lock master;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock master)
    (fun () ->
      if Atomic.get state = None then begin
        let ex =
          { path; interval = interval_s; stop_requested = Atomic.make false;
            worker = None; ex_lock = Mutex.create () }
        in
        Atomic.set state (Some ex);
        Atomic.set enabled_flag true;
        if interval_s > 0.0 then
          ex.worker <- Some (Domain.spawn (fun () -> export_loop ex));
        if not !exit_hook_installed then begin
          exit_hook_installed := true;
          at_exit stop
        end
      end)

let reset () =
  Hashtbl.iter
    (fun _ -> function
      | C c -> Counter.reset c
      | H h -> Histo.reset h
      | G g -> Gauge.reset g
      | M m ->
        Atomic.set m.m_n 0;
        Atomic.set m.m_abs_rel 0.0)
    (Atomic.get registry);
  Flight.clear ()

(* A closing trace records the registry: one [counter] event per
   non-zero counter and one [hist] event per non-empty histogram,
   carrying the values a snapshot reports at that moment. *)
let () =
  Trace.at_stop (fun () ->
      List.iter
        (fun (name, c) ->
          match Counter.value c with
          | 0 -> ()
          | v -> Trace.emit "counter" [ ("name", Json.String name); ("value", Json.Int v) ])
        (counters ());
      List.iter
        (fun (name, h) ->
          let s = Histo.snapshot h in
          if s.count > 0 then
            Trace.emit "hist" (("name", Json.String name) :: hist_fields s))
        (histos ()))

(* Honour ISAAC_TELEMETRY=path[,interval_seconds] as soon as any
   instrumented code touches this module, mirroring Trace/ISAAC_TRACE. *)
let () =
  match Util.Env_config.string "ISAAC_TELEMETRY" "" with
  | "" -> ()
  | spec ->
    let path, interval =
      match String.rindex_opt spec ',' with
      | Some i -> (
        match
          float_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1))
        with
        | Some f -> (String.sub spec 0 i, f)
        | None -> (spec, 0.0))
      | None -> (spec, 0.0)
    in
    if path <> "" then start ~interval_s:interval ~path ()
