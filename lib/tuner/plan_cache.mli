(** Sharded, coalescing, LRU-bounded cache for kernel plans.

    The concurrency substrate of the [Isaac] engine's plan caches (this
    reproduction's §6 cache of inferred kernels, held in memory only:
    every plan in it was computed by the process that holds it), the
    [isaac_serve] daemon, and {!Search}'s legality-class memo. It lives
    in the tuner library so that the search can memoize with it;
    [Isaac] re-exports it as [Isaac.Plan_cache]. Three properties
    matter to its users:

    - {b Lock-free reads.} Keys hash onto 16 shards; each shard
      publishes an immutable snapshot of its table through an
      [Atomic.t], so a cache hit is one atomic load plus a hash lookup
      — no mutex, safe from any number of domains. The cache has two
      writers, {!find_or_compute}'s misses and the evictions they
      trigger; both serialize per shard on a mutex and publish a fresh
      snapshot.
    - {b Request coalescing.} N concurrent {!find_or_compute} misses on
      the same key run the computation exactly once: the first arrival
      plans, the others park on the in-flight slot and receive the
      identical value (reported as [Coalesced]). If the computation
      raises, waiters re-raise the same exception and the slot is
      removed so a later request can retry.
    - {b LRU eviction under an entry budget.} Beyond [max_entries]
      resident entries, the globally least-recently-used entry is
      evicted — exact LRU across all shards, ordered by a global access
      tick, O(entries) scan per eviction (planning runs are
      milliseconds; the scan is noise). Evictions bump
      [plan.evictions] in {!Obs.Telemetry}.

    {b Clock caveat.} Entry timestamps come from the injectable [clock]
    (default [Unix.gettimeofday]) — {e wall} time, not a monotonic
    clock, so an NTP step can move it backwards. Served hit ages are
    therefore clamped at 0; a backwards step shows up as a burst of
    zero-age hits in the telemetry histogram, never as a negative age.
    Recency ordering for LRU does not use the clock at all (it uses a
    monotonic tick counter), so eviction order is immune to clock
    steps. *)

type ('k, 'v) t
(** A cache from structurally-compared keys ['k] to values ['v].
    Sharding uses the polymorphic [Hashtbl.hash], so keys must be
    hashable immutable data (the planner's input records are). *)

(** How a {!find_or_compute} request was served. *)
type outcome =
  | Hit        (** value was resident *)
  | Miss       (** this request ran the computation *)
  | Coalesced  (** parked on another request's in-flight computation *)

val outcome_name : outcome -> string
(** ["hit"], ["miss"], ["coalesced"] — the wire spelling used by the
    serving protocol. *)

(** Cumulative counters plus current occupancy. Counter reads are exact
    once writers are quiescent, monotonically catching-up while they
    race (same contract as {!Obs.Telemetry.Counter.value}). *)
type stats = {
  hits : int;
  misses : int;
  coalesced : int;
  evictions : int;
  entries : int;  (** resident entries (in-flight slots excluded) *)
}

val create : ?max_entries:int -> ?clock:(unit -> float) -> unit -> ('k, 'v) t
(** Without [max_entries] the cache is unbounded; below 1 it raises
    [Invalid_argument]. [clock] is injectable for age tests. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lock-free lookup; refreshes the entry's recency on hit. [None] for
    absent keys {e and} for keys whose computation is still in flight
    (use {!find_or_compute} to park on those). *)

val mem : ('k, 'v) t -> 'k -> bool
(** Lock-free; [true] only for resident (Ready) entries. Does not
    refresh recency. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * outcome * float
(** [find_or_compute t k f] returns [(value, outcome, age_s)]: the
    cached value and its clamped-non-negative age on [Hit], or the
    just-computed value and age 0 on [Miss]/[Coalesced]. The
    computation runs with no cache locks held. *)

val length : ('k, 'v) t -> int

val stats : ('k, 'v) t -> stats

val merge_stats : stats -> stats -> stats
(** Field-wise sum — for reporting one number across the per-op caches. *)
