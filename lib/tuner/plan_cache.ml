(* Sharded, coalescing, LRU-bounded plan cache.

   Replaces the bare Hashtbls previously embedded in Isaac.t, which
   were unsynchronized: two domains calling plan_gemm concurrently
   could corrupt the table mid-resize or both run the (expensive)
   search for the same input. The search's legality-class memo
   (Search.planner) uses it too, which is why it lives in the tuner
   library.

   Design:

   - Keys hash onto 16 independent shards, so writers on different
     shards never contend.
   - Each shard publishes an immutable snapshot of its table through an
     [Atomic.t]. Readers do one [Atomic.get] and a Hashtbl lookup on a
     table that is never mutated after publication — the read path takes
     no lock and cannot observe a half-built bucket. Writers serialize
     on the shard mutex, copy the table, mutate the copy, and publish
     it; copying costs O(shard size) but writes are cache misses and
     evictions, both of which are orders of magnitude rarer (and
     cheaper) than the planning run they sit next to.
   - A miss installs a [Pending] slot before computing, so N concurrent
     misses on the same key run the computation exactly once: the first
     arrival computes, the rest park on the pending slot's condition
     variable and receive the identical value ([Coalesced]).
   - Recency is a global tick counter ([Atomic.fetch_and_add]); a read
     hit stores the fresh tick into the entry's own atomic — still no
     lock. Eviction scans the published snapshots for the smallest tick
     (exact LRU, O(entries) per eviction) and removes it under that
     shard's lock, re-checking that the entry is still the one it chose.

   Timestamps come from the injectable [clock] (default
   Unix.gettimeofday — wall time, not monotonic); served ages are
   clamped at 0 so a backwards clock step cannot produce negative
   cache-hit ages in telemetry. *)

type outcome = Hit | Miss | Coalesced

let outcome_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Coalesced -> "coalesced"

type 'v entry = {
  value : 'v;
  inserted_at : float;
  last_access : int Atomic.t;
}

type 'v pending_state = Waiting | Done of 'v | Failed of exn

type 'v pending = {
  pm : Mutex.t;
  pc : Condition.t;
  mutable state : 'v pending_state;
}

type 'v slot = Ready of 'v entry | Pending of 'v pending

type ('k, 'v) shard = {
  lock : Mutex.t;
  table : ('k, 'v slot) Hashtbl.t Atomic.t;
}

type stats = {
  hits : int;
  misses : int;
  coalesced : int;
  evictions : int;
  entries : int;
}

type ('k, 'v) t = {
  shards : ('k, 'v) shard array;
  max_entries : int option;
  clock : unit -> float;
  tick : int Atomic.t;
  n_entries : int Atomic.t;
  c_hits : int Atomic.t;
  c_misses : int Atomic.t;
  c_coalesced : int Atomic.t;
  c_evictions : int Atomic.t;
}

(* A power of two: [shard_of] masks the key's hash. *)
let n_shards = 16

let create ?max_entries ?(clock = Unix.gettimeofday) () =
  (match max_entries with
   | Some m when m < 1 -> invalid_arg "Plan_cache.create: max_entries must be >= 1"
   | _ -> ());
  { shards =
      Array.init n_shards (fun _ ->
          { lock = Mutex.create (); table = Atomic.make (Hashtbl.create 8) });
    max_entries;
    clock;
    tick = Atomic.make 0;
    n_entries = Atomic.make 0;
    c_hits = Atomic.make 0;
    c_misses = Atomic.make 0;
    c_coalesced = Atomic.make 0;
    c_evictions = Atomic.make 0 }

let shard_of t k = t.shards.(Hashtbl.hash k land (n_shards - 1))

let next_tick t = Atomic.fetch_and_add t.tick 1

(* Must be called with [shard.lock] held: copy, mutate, publish. *)
let mutate shard f =
  let table = Hashtbl.copy (Atomic.get shard.table) in
  f table;
  Atomic.set shard.table table

let age_of t e = Float.max 0.0 (t.clock () -. e.inserted_at)

let touch t e = Atomic.set e.last_access (next_tick t)

(* --- eviction ---------------------------------------------------------- *)

let over_budget t =
  match t.max_entries with
  | Some m -> Atomic.get t.n_entries > m
  | None -> false

let record_eviction t =
  Atomic.decr t.n_entries;
  Atomic.incr t.c_evictions;
  Obs.Telemetry.incr "plan.evictions"

(* Scan the published snapshots (no locks) for the globally
   least-recently-used Ready entry, then remove it under its shard's
   lock, re-checking identity — the entry may have been touched,
   replaced or already evicted since the scan. Loops until the cache is
   back under budget or nothing evictable remains (all slots pending). *)
let rec evict_until_within_budget t =
  if over_budget t then begin
    let best = ref None in
    Array.iteri
      (fun si shard ->
        Hashtbl.iter
          (fun k slot ->
            match slot with
            | Ready e ->
              let la = Atomic.get e.last_access in
              (match !best with
               | Some (_, _, _, bla) when bla <= la -> ()
               | _ -> best := Some (si, k, e, la))
            | Pending _ -> ())
          (Atomic.get shard.table))
      t.shards;
    match !best with
    | None -> ()
    | Some (si, k, e, _) ->
      let shard = t.shards.(si) in
      Mutex.lock shard.lock;
      let removed =
        match Hashtbl.find_opt (Atomic.get shard.table) k with
        | Some (Ready e') when e' == e ->
          mutate shard (fun table -> Hashtbl.remove table k);
          true
        | _ -> false
      in
      Mutex.unlock shard.lock;
      if removed then record_eviction t;
      evict_until_within_budget t
  end

(* --- reads ------------------------------------------------------------- *)

let find t k =
  match Hashtbl.find_opt (Atomic.get (shard_of t k).table) k with
  | Some (Ready e) ->
    touch t e;
    Some e.value
  | Some (Pending _) | None -> None

let mem t k =
  match Hashtbl.find_opt (Atomic.get (shard_of t k).table) k with
  | Some (Ready _) -> true
  | Some (Pending _) | None -> false

(* --- coalescing get-or-compute ----------------------------------------- *)

let await t p =
  Mutex.lock p.pm;
  let rec wait () =
    match p.state with
    | Waiting ->
      Condition.wait p.pc p.pm;
      wait ()
    | Done v ->
      Mutex.unlock p.pm;
      Atomic.incr t.c_coalesced;
      (v, Coalesced, 0.0)
    | Failed exn ->
      Mutex.unlock p.pm;
      raise exn
  in
  wait ()

let hit t e =
  let age = age_of t e in
  touch t e;
  Atomic.incr t.c_hits;
  (e.value, Hit, age)

let resolve p state =
  Mutex.lock p.pm;
  p.state <- state;
  Condition.broadcast p.pc;
  Mutex.unlock p.pm

let find_or_compute t k f =
  let shard = shard_of t k in
  match Hashtbl.find_opt (Atomic.get shard.table) k with
  | Some (Ready e) -> hit t e
  | Some (Pending p) -> await t p
  | None -> (
    Mutex.lock shard.lock;
    (* Re-check under the lock: another domain may have installed a
       slot between our lock-free probe and the acquisition. *)
    match Hashtbl.find_opt (Atomic.get shard.table) k with
    | Some (Ready e) ->
      Mutex.unlock shard.lock;
      hit t e
    | Some (Pending p) ->
      Mutex.unlock shard.lock;
      await t p
    | None -> (
      let p = { pm = Mutex.create (); pc = Condition.create (); state = Waiting } in
      mutate shard (fun table -> Hashtbl.replace table k (Pending p));
      Mutex.unlock shard.lock;
      (* The computation runs with no locks held: other keys hit, miss
         and evict concurrently; other arrivals for this key park on
         [p]. *)
      match f () with
      | v ->
        let e =
          { value = v;
            inserted_at = t.clock ();
            last_access = Atomic.make (next_tick t) }
        in
        Mutex.lock shard.lock;
        mutate shard (fun table -> Hashtbl.replace table k (Ready e));
        Mutex.unlock shard.lock;
        Atomic.incr t.n_entries;
        Atomic.incr t.c_misses;
        resolve p (Done v);
        evict_until_within_budget t;
        (v, Miss, 0.0)
      | exception exn ->
        (* Leave no trace: the pending slot comes out of the table so a
           later request retries the computation, and waiters re-raise
           the same exception. *)
        Mutex.lock shard.lock;
        mutate shard (fun table -> Hashtbl.remove table k);
        Mutex.unlock shard.lock;
        resolve p (Failed exn);
        raise exn))

let length t = Atomic.get t.n_entries

let stats t =
  { hits = Atomic.get t.c_hits;
    misses = Atomic.get t.c_misses;
    coalesced = Atomic.get t.c_coalesced;
    evictions = Atomic.get t.c_evictions;
    entries = Atomic.get t.n_entries }

let merge_stats a b =
  { hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    coalesced = a.coalesced + b.coalesced;
    evictions = a.evictions + b.evictions;
    entries = a.entries + b.entries }
