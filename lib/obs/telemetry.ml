(* Always-on serving telemetry: the process's one registry of sharded
   lock-free counters and log-bucketed histograms, a per-domain flight
   recorder and a model-quality (predicted-vs-measured residual)
   channel. The registry collects while the trace sink is open, and the
   trace records it when it stops.

   Design contract: with no trace open every gated entry point reduces
   to one atomic-bool load. When enabled, the hot path is a shard lookup
   plus one [Atomic.fetch_and_add] — no mutex is ever taken on a counter
   bump or histogram observation, so totals are exact for any domain
   count (fetch-and-add cannot lose increments even when two domains
   collide on a shard). *)

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

(* The registry collects while a trace is open. *)
let enabled = Trace.enabled

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

(* Registered entities of one kind, sorted by name. *)
let entities kind =
  Hashtbl.fold
    (fun k v acc -> match kind v with Some x -> (k, x) :: acc | None -> acc)
    (Atomic.get registry) []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters () = entities (function C c -> Some c | _ -> None)
let histos () = entities (function H h -> Some h | _ -> None)
let model_cells () = List.map snd (entities (function M m -> Some m | _ -> None))

let add name n = if enabled () then Counter.add (counter name) n
let incr name = add name 1
let observe name v = if enabled () then Histo.observe (histo name) v

let counter_value name =
  match Hashtbl.find_opt (Atomic.get registry) name with
  | Some (C c) -> Some (Counter.value c)
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

let snapshot_json () =
  let counters =
    List.map
      (fun (name, c) -> (name, Json.Int (Counter.value c)))
      (counters ())
  in
  let hists =
    List.filter_map
      (fun (name, h) ->
        let s = Histo.snapshot h in
        if s.count = 0 then None
        else
          Some
            ( name,
              Json.Obj
                [ ("count", Json.Int s.count);
                  ("sum", Json.Float s.sum);
                  ("min", Json.Float s.min_v);
                  ("max", Json.Float s.max_v);
                  ("mean", Json.Float (Histo.mean s));
                  ("p50", Json.Float (Histo.quantile s 0.50));
                  ("p90", Json.Float (Histo.quantile s 0.90));
                  ("p95", Json.Float (Histo.quantile s 0.95));
                  ("p99", Json.Float (Histo.quantile s 0.99)) ] ))
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
      ("version", Json.Int 2);
      ("unix_time", Json.Float (Unix.gettimeofday ()));
      ("counters", Json.Obj counters);
      ("hists", Json.Obj hists);
      ("model", Json.Obj model) ]

let reset () =
  Hashtbl.iter
    (fun _ -> function
      | C c -> Counter.reset c
      | H h -> Histo.reset h
      | M m ->
        Atomic.set m.m_n 0;
        Atomic.set m.m_abs_rel 0.0)
    (Atomic.get registry);
  Flight.clear ()

(* A closing trace records the registry as one [telemetry] event
   carrying the snapshot, under the key the daemon's [stats] reply uses
   for it. *)
let () =
  Trace.at_stop (fun () -> Trace.emit "telemetry" [ ("telemetry", snapshot_json ()) ])
