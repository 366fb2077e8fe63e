(* Tests of the bounded LRU cache (lib/cache) underlying the
   reformulation, scan/build, view and plan caches. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let find_int c k : int option = Cache.Lru.find c k

let test_basic () =
  let c = Cache.Lru.create ~name:"t.basic" ~capacity:2 () in
  check_int "empty" 0 (Cache.Lru.length c);
  Alcotest.(check (option int)) "miss" None (find_int c "a");
  Cache.Lru.add c "a" 1;
  Cache.Lru.add c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (find_int c "a");
  (* a was just touched, so adding c evicts b (the LRU entry) *)
  Cache.Lru.add c "c" 3;
  check_int "still bounded" 2 (Cache.Lru.length c);
  Alcotest.(check (option int)) "b evicted" None (find_int c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (find_int c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (find_int c "c");
  let s = Cache.Lru.stats c in
  check_int "evictions counted" 1 s.Cache.Lru.evictions;
  check_int "hits counted" 3 s.Cache.Lru.hits;
  check_int "misses counted" 2 s.Cache.Lru.misses

let test_replace () =
  let c = Cache.Lru.create ~name:"t.replace" ~capacity:4 () in
  Cache.Lru.add c "k" 1;
  Cache.Lru.add c "k" 2;
  check_int "no duplicate entry" 1 (Cache.Lru.length c);
  Alcotest.(check (option int)) "replaced" (Some 2) (find_int c "k")

let test_disabled () =
  let c = Cache.Lru.create ~name:"t.disabled" ~capacity:0 () in
  Cache.Lru.add c "a" 1;
  check_int "insert dropped" 0 (Cache.Lru.length c);
  Alcotest.(check (option int)) "always miss" None (find_int c "a");
  Cache.Lru.set_capacity c 2;
  Cache.Lru.add c "a" 1;
  Alcotest.(check (option int)) "re-enabled" (Some 1) (find_int c "a");
  Cache.Lru.set_capacity c 0;
  check_int "shrink to disabled empties" 0 (Cache.Lru.length c)

let test_cost_bound () =
  let c =
    Cache.Lru.create ~max_cost:10 ~cost_of:(fun v -> v) ~name:"t.cost"
      ~capacity:100 ()
  in
  Cache.Lru.add c "a" 4;
  Cache.Lru.add c "b" 4;
  check_int "both fit" 2 (Cache.Lru.length c);
  (* 4 + 4 + 6 > 10: the LRU entries go until the budget fits *)
  Cache.Lru.add c "c" 6;
  check_bool "cost bound enforced" true
    ((Cache.Lru.stats c).Cache.Lru.cost <= 10);
  Alcotest.(check (option int)) "newest kept" (Some 6) (find_int c "c");
  (* admission control: a value costlier than the whole budget is not
     cached and does not evict what is there *)
  let before = Cache.Lru.length c in
  Cache.Lru.add c "huge" 11;
  Alcotest.(check (option int)) "oversized not admitted" None (find_int c "huge");
  check_int "no collateral eviction" before (Cache.Lru.length c)

(* Single flight: a lookup that arrives while another domain computes
   the same key waits for that result, so the computation runs once
   and the late caller counts as a hit. *)
let test_find_or_compute_single_flight () =
  let c = Cache.Lru.create ~name:"t.flight" ~capacity:4 () in
  let computed = Atomic.make 0 in
  let started = Atomic.make false and release = Atomic.make false in
  let compute () =
    Atomic.incr computed;
    Atomic.set started true;
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done;
    42
  in
  let first = Domain.spawn (fun () -> Cache.Lru.find_or_compute c "k" compute) in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let second = Domain.spawn (fun () -> Cache.Lru.find_or_compute c "k" compute) in
  Thread.delay 0.02;
  Atomic.set release true;
  let v1, hit1 = Domain.join first in
  let v2, hit2 = Domain.join second in
  check_int "computed once" 1 (Atomic.get computed);
  check_int "both see the value" v1 v2;
  check_bool "first caller computes" false hit1;
  check_bool "second caller waits and hits" true hit2;
  let s = Cache.Lru.stats c in
  check_int "one miss" 1 s.Cache.Lru.misses;
  check_int "one hit" 1 s.Cache.Lru.hits;
  (* a failed computation settles its key unpublished *)
  (match Cache.Lru.find_or_compute c "boom" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  check_int "recomputed after a failure" 7
    (fst (Cache.Lru.find_or_compute c "boom" (fun () -> 7)))

let test_version () =
  let c = Cache.Lru.create ~name:"t.version" ~capacity:4 () in
  Cache.Lru.add c "a" 1;
  Cache.Lru.set_version c 0;
  check_int "same stamp is a no-op" 1 (Cache.Lru.length c);
  Cache.Lru.set_version c 1;
  check_int "new stamp flushes" 0 (Cache.Lru.length c);
  check_int "version updated" 1 (Cache.Lru.version c);
  check_int "invalidation counted" 1
    (Cache.Lru.stats c).Cache.Lru.invalidations;
  Cache.Lru.set_version c 2;
  check_int "flushing empty cache is free" 1
    (Cache.Lru.stats c).Cache.Lru.invalidations

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_stats_pp () =
  let c = Cache.Lru.create ~name:"t.pp" ~capacity:4 () in
  Cache.Lru.add c "a" 1;
  ignore (find_int c "a");
  let line = Fmt.str "%a" Cache.Lru.pp_stats (Cache.Lru.stats c) in
  check_bool "pp mentions the name" true (contains ~sub:"t.pp" line)

(* The reformulation cache reads through [find_or_compute]: domains
   missing on a fragment another domain is reformulating wait for that
   result, so a cold GDL search requests and hits the cache the same
   number of times at any job count. *)
let test_reform_cache_totals_across_jobs () =
  let tbox = Lubm.Ontology.tbox in
  let layout =
    Rdbms.Layout.simple_of_abox (Lubm.Generator.generate ~seed:3 ~target_facts:1_000 ())
  in
  let est = Optimizer.Estimator.ext (Cost.Cost_model.calibrated `Pglite) layout in
  let counter name =
    match Obs.Metrics.find_counter name with
    | Some c -> Obs.Metrics.counter_value c
    | None -> Alcotest.failf "counter %s not registered" name
  in
  let totals jobs =
    Reform.Perfectref.clear_cache ();
    Reform.Containment.clear_cache ();
    let requests = counter "reform.cache.requests"
    and hits = counter "reform.cache.hits" in
    ignore (Optimizer.Gdl.search ~jobs tbox est (Lubm.Workload.q 9));
    counter "reform.cache.requests" - requests, counter "reform.cache.hits" - hits
  in
  let ((requests, hits) as t1) = totals 1 in
  check_bool "the search requests fragments" true (requests > 0);
  check_bool "the search hits the cache" true (hits > 0);
  List.iter
    (fun jobs ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "requests and hits at jobs=%d equal jobs=1" jobs)
        t1 (totals jobs))
    [ 2; 4 ]

(* {1 Properties}

   The caching layer must be semantically invisible: a get-or-compute
   through a tiny cache (heavy eviction pressure) always returns what
   the computation itself returns, and after a version change no entry
   from an older version is ever served. *)

let compute ~version k = (k * 97) + (version * 100_000)

let cached_get c ~version k =
  fst (Cache.Lru.find_or_compute c k (fun () -> compute ~version k))

let prop_bounded_equals_unbounded =
  QCheck2.Test.make ~name:"bounded cache = direct compute under eviction"
    ~count:200
    QCheck2.Gen.(pair (int_range 0 3) (list_size (return 60) (int_bound 9)))
    (fun (capacity, keys) ->
      let c = Cache.Lru.create ~name:"t.prop.bounded" ~capacity () in
      List.for_all
        (fun k ->
          let v = cached_get c ~version:0 k in
          Cache.Lru.length c <= max 0 capacity && v = compute ~version:0 k)
        keys)

let prop_version_never_stale =
  (* ops: key to look up, paired with "bump the version first?" *)
  QCheck2.Test.make ~name:"version change never serves pre-update entries"
    ~count:200
    QCheck2.Gen.(list_size (return 60) (pair (int_bound 9) bool))
    (fun ops ->
      let c = Cache.Lru.create ~name:"t.prop.version" ~capacity:8 () in
      let version = ref 0 in
      List.for_all
        (fun (k, bump) ->
          if bump then begin
            incr version;
            Cache.Lru.set_version c !version
          end;
          cached_get c ~version:!version k = compute ~version:!version k)
        ops)

let suite =
  [
    Alcotest.test_case "lru: add/find/evict" `Quick test_basic;
    Alcotest.test_case "lru: replace" `Quick test_replace;
    Alcotest.test_case "lru: capacity 0 disables" `Quick test_disabled;
    Alcotest.test_case "lru: byte budget + admission" `Quick test_cost_bound;
    Alcotest.test_case "lru: versioned invalidation" `Quick test_version;
    Alcotest.test_case "lru: stats rendering" `Quick test_stats_pp;
    Alcotest.test_case "reform cache: totals invariant across jobs 1/2/4" `Quick
      test_reform_cache_totals_across_jobs;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_bounded_equals_unbounded; prop_version_never_stale ]
  @ [
      Alcotest.test_case "lru: find_or_compute is single-flight" `Quick
        test_find_or_compute_single_flight;
    ]
