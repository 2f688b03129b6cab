(* Unit tests of the sharded coalescing LRU cache under Isaac — the
   concurrency substrate of the serving daemon. Everything here runs on
   plain int/string keys so failures point at the cache, not the
   planner. *)

module PC = Isaac.Plan_cache

let test_basic_hit_miss () =
  let c = PC.create () in
  let v, outcome, age = PC.find_or_compute c 1 (fun () -> "a") in
  Alcotest.(check string) "computed value" "a" v;
  Alcotest.(check bool) "first request misses" true (outcome = PC.Miss);
  Alcotest.(check (float 0.0)) "miss age is zero" 0.0 age;
  let v2, outcome2, age2 =
    PC.find_or_compute c 1 (fun () -> Alcotest.fail "recomputed")
  in
  Alcotest.(check string) "cached value" "a" v2;
  Alcotest.(check bool) "second request hits" true (outcome2 = PC.Hit);
  Alcotest.(check bool) "hit age non-negative" true (age2 >= 0.0);
  Alcotest.(check (option string)) "find sees it" (Some "a") (PC.find c 1);
  Alcotest.(check (option string)) "find misses absent" None (PC.find c 2);
  Alcotest.(check bool) "mem" true (PC.mem c 1 && not (PC.mem c 2));
  Alcotest.(check int) "one entry" 1 (PC.length c);
  let s = PC.stats c in
  Alcotest.(check (list int)) "stats" [ 1; 1; 0; 0 ]
    [ s.hits; s.misses; s.coalesced; s.evictions ]

(* Exact LRU across all 16 shards: reading an old entry rescues it; the
   true least-recently-used entry goes first, whichever shard holds
   it. *)
let test_lru_eviction_order () =
  let c = PC.create ~max_entries:3 () in
  let put k = ignore (PC.find_or_compute c k (fun () -> k)) in
  put 1; put 2; put 3;
  (* touch 1 so 2 becomes the LRU *)
  ignore (PC.find c 1);
  put 4;
  Alcotest.(check bool) "2 evicted (the LRU)" true (not (PC.mem c 2));
  Alcotest.(check bool) "1 rescued by the read" true (PC.mem c 1);
  Alcotest.(check bool) "3 and 4 resident" true (PC.mem c 3 && PC.mem c 4);
  Alcotest.(check int) "budget held" 3 (PC.length c);
  Alcotest.(check int) "one eviction" 1 (PC.stats c).evictions;
  put 5;
  Alcotest.(check bool) "next LRU (3) evicted" true (not (PC.mem c 3));
  Alcotest.(check int) "two evictions" 2 (PC.stats c).evictions

(* An entry older than the (injected) clock's current time: a backwards
   step must clamp the served age at 0, never go negative. *)
let test_age_clamped_on_backwards_clock () =
  let now = ref 1000.0 in
  let c = PC.create ~clock:(fun () -> !now) () in
  ignore (PC.find_or_compute c 1 (fun () -> "v"));
  now := 1010.0;
  let _, _, age = PC.find_or_compute c 1 (fun () -> "v") in
  Alcotest.(check (float 1e-9)) "forward clock: real age" 10.0 age;
  now := 900.0;
  let _, outcome, age = PC.find_or_compute c 1 (fun () -> "v") in
  Alcotest.(check bool) "still a hit" true (outcome = PC.Hit);
  Alcotest.(check (float 0.0)) "backwards clock: age clamped at 0" 0.0 age

(* 8 domains race one cold key: the compute counter must end at exactly
   1, every domain gets the same value, and outcomes split into one
   Miss plus Coalesced/Hit for the rest. *)
let test_coalescing_races () =
  let c = PC.create () in
  let computes = Atomic.make 0 in
  let go = Atomic.make false in
  let domains =
    List.init 8 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do Domain.cpu_relax () done;
            PC.find_or_compute c "key" (fun () ->
                Atomic.incr computes;
                (* widen the race window so waiters really park *)
                Unix.sleepf 0.02;
                42)))
  in
  Atomic.set go true;
  let results = List.map Domain.join domains in
  Alcotest.(check int) "computation ran exactly once" 1 (Atomic.get computes);
  List.iter
    (fun (v, _, _) -> Alcotest.(check int) "same value everywhere" 42 v)
    results;
  let count o = List.length (List.filter (fun (_, o', _) -> o' = o) results) in
  Alcotest.(check int) "one miss" 1 (count PC.Miss);
  Alcotest.(check int) "seven parked or hit" 7
    (count PC.Coalesced + count PC.Hit);
  Alcotest.(check int) "stats agree" 1 (PC.stats c).misses

(* A failing computation must leave no trace: waiters re-raise the same
   exception, and the next request retries (and can succeed). *)
let test_failed_compute_retries () =
  let c = PC.create () in
  let boom = Failure "planner exploded" in
  (match PC.find_or_compute c 1 (fun () -> raise boom) with
   | _ -> Alcotest.fail "expected the computation's exception"
   | exception Failure msg ->
     Alcotest.(check string) "original exception" "planner exploded" msg);
  Alcotest.(check bool) "no residue" true (not (PC.mem c 1));
  let v, outcome, _ = PC.find_or_compute c 1 (fun () -> "ok") in
  Alcotest.(check string) "retry succeeds" "ok" v;
  Alcotest.(check bool) "retry is a fresh miss" true (outcome = PC.Miss)

let test_merge_stats () =
  let c = PC.create () in
  List.iter
    (fun k -> ignore (PC.find_or_compute c k (fun () -> 10 * k)))
    [ 1; 2; 3 ];
  let s = PC.stats c in
  let m = PC.merge_stats s s in
  Alcotest.(check (list int)) "merge is field-wise sum"
    [ 2 * s.hits; 2 * s.misses; 2 * s.entries ]
    [ m.hits; m.misses; m.entries ]

let () =
  Alcotest.run "plan_cache"
    [ ("basics",
       [ Alcotest.test_case "hit/miss/find/mem" `Quick test_basic_hit_miss;
         Alcotest.test_case "merge_stats" `Quick test_merge_stats ]);
      ("eviction",
       [ Alcotest.test_case "exact LRU order" `Quick test_lru_eviction_order ]);
      ("clock",
       [ Alcotest.test_case "age clamped on backwards step" `Quick
           test_age_clamped_on_backwards_clock ]);
      ("concurrency",
       [ Alcotest.test_case "8-domain coalescing race" `Quick test_coalescing_races;
         Alcotest.test_case "failed compute retries" `Quick test_failed_compute_retries ]) ]
