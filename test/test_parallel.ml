(* The domain pool and the parallel evaluation paths: at any job
   count, every parallel entry point must return exactly what the
   sequential engine returns. *)

open Query

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* {1 Pool primitives} *)

let test_map_matches_list_map () =
  List.iter
    (fun n ->
      let xs = List.init n (fun i -> i) in
      let f x = (x * x) + 1 in
      List.iter
        (fun jobs ->
          Alcotest.(check (list int))
            (Printf.sprintf "map n=%d jobs=%d" n jobs)
            (List.map f xs)
            (Parallel.map ~jobs f xs))
        [ 1; 2; 4; 8 ])
    [ 0; 1; 2; 3; 17; 100 ]

let test_filter_map_matches () =
  let xs = List.init 57 (fun i -> i) in
  let f x = if x mod 3 = 0 then Some (x * 2) else None in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "filter_map jobs=%d" jobs)
        (List.filter_map f xs)
        (Parallel.filter_map ~jobs f xs))
    [ 1; 2; 4 ]

let test_exception_propagates () =
  let f x = if x >= 20 then failwith (string_of_int x) else x in
  match Parallel.map ~jobs:4 f (List.init 40 (fun i -> i)) with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
    (* the earliest failing element in input order wins *)
    check_int "earliest failure reported" 20 (int_of_string msg)

let test_nested_map_degrades () =
  (* a task running on a worker may itself call the pool: the inner
     call must run inline rather than deadlock *)
  let inner x = Parallel.map ~jobs:4 (fun y -> x + y) [ 1; 2; 3 ] in
  let got = Parallel.map ~jobs:2 inner [ 10; 20; 30; 40 ] in
  Alcotest.(check (list (list int)))
    "nested parallel map"
    [ [ 11; 12; 13 ]; [ 21; 22; 23 ]; [ 31; 32; 33 ]; [ 41; 42; 43 ] ]
    got

let test_default_jobs_roundtrip () =
  let saved = Parallel.default_jobs () in
  Parallel.set_default_jobs 3;
  check_int "default set" 3 (Parallel.default_jobs ());
  Parallel.set_default_jobs 0;
  check_int "clamped to one" 1 (Parallel.default_jobs ());
  Parallel.set_default_jobs saved;
  check_bool "recommended positive" true (Parallel.recommended_jobs () >= 1)

let test_shutdown_restarts () =
  ignore (Parallel.map ~jobs:2 succ [ 1; 2; 3; 4; 5 ]);
  Parallel.shutdown ();
  Parallel.shutdown ();
  Alcotest.(check (list int))
    "pool restarts after shutdown" [ 2; 3; 4 ]
    (Parallel.map ~jobs:2 succ [ 1; 2; 3 ])

(* {1 Parallel evaluation equals sequential (property tests)} *)

let eval_answers ?(jobs = 1) ?config layout fol =
  let plan = Rdbms.Planner.of_fol layout fol in
  Rdbms.Exec.answers ?config ~jobs layout plan

(* Random KBs in the style of the reformulation tests: the certain
   answers of a reformulated UCQ must not depend on the job count. *)
let prop_ucq_eval_parallel_equals_sequential =
  QCheck2.Test.make ~name:"UCQ eval: parallel = sequential" ~count:40
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 7 |] in
      let tbox = Test_reform.random_tbox rng in
      let abox = Test_reform.random_abox rng in
      let q = Test_reform.random_query rng in
      let ucq = Reform.Perfectref.reformulate tbox q in
      let fol = Fol.leaf ~out:q.Cq.head ucq in
      let layout = Rdbms.Layout.simple_of_abox abox in
      let sequential = eval_answers ~jobs:1 layout fol in
      List.for_all
        (fun jobs -> eval_answers ~jobs layout fol = sequential)
        [ 2; 4 ])

let prop_cover_eval_parallel_equals_sequential =
  QCheck2.Test.make ~name:"cover eval: parallel = sequential" ~count:25
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 11 |] in
      let tbox = Test_reform.random_tbox rng in
      let abox = Test_reform.random_abox rng in
      let q = Test_reform.random_query rng in
      let layout = Rdbms.Layout.simple_of_abox abox in
      List.for_all
        (fun cover ->
          (* fragment reformulation itself fans out per fragment *)
          let fol1 = Covers.Reformulate.of_cover ~jobs:1 tbox cover in
          let fol4 = Covers.Reformulate.of_cover ~jobs:4 tbox cover in
          Fmt.str "%a" Fol.pp fol1 = Fmt.str "%a" Fol.pp fol4
          && eval_answers ~jobs:1 layout fol1
             = eval_answers ~jobs:4 ~config:Rdbms.Exec.db2_like layout fol1)
        (Covers.Safety.safe_covers ~max_count:3 tbox q))

let prop_edl_parallel_equals_sequential =
  QCheck2.Test.make ~name:"EDL search: parallel = sequential" ~count:20
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 13 |] in
      let tbox = Test_reform.random_tbox rng in
      let abox = Test_reform.random_abox rng in
      let q = Test_reform.random_query rng in
      let layout = Rdbms.Layout.simple_of_abox abox in
      let est = Optimizer.Estimator.ext (Cost.Cost_model.calibrated `Pglite) layout in
      let seq = Optimizer.Edl.search ~max_covers:200 ~jobs:1 tbox est q in
      List.for_all
        (fun jobs ->
          let par = Optimizer.Edl.search ~max_covers:200 ~jobs tbox est q in
          Covers.Generalized.equal par.Optimizer.Edl.cover seq.Optimizer.Edl.cover
          && par.Optimizer.Edl.est_cost = seq.Optimizer.Edl.est_cost
          && par.Optimizer.Edl.covers_examined = seq.Optimizer.Edl.covers_examined)
        [ 2; 4 ])

let prop_gdl_parallel_equals_sequential =
  QCheck2.Test.make ~name:"GDL search: parallel = sequential" ~count:20
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 17 |] in
      let tbox = Test_reform.random_tbox rng in
      let abox = Test_reform.random_abox rng in
      let q = Test_reform.random_query rng in
      let layout = Rdbms.Layout.simple_of_abox abox in
      let est = Optimizer.Estimator.ext (Cost.Cost_model.calibrated `Pglite) layout in
      let seq = Optimizer.Gdl.search ~jobs:1 tbox est q in
      List.for_all
        (fun jobs ->
          let par = Optimizer.Gdl.search ~jobs tbox est q in
          Covers.Generalized.equal par.Optimizer.Gdl.cover seq.Optimizer.Gdl.cover
          && par.Optimizer.Gdl.est_cost = seq.Optimizer.Gdl.est_cost
          && par.Optimizer.Gdl.explored_total = seq.Optimizer.Gdl.explored_total
          && par.Optimizer.Gdl.explored_simple = seq.Optimizer.Gdl.explored_simple)
        [ 2; 4 ])

(* {1 LUBM end to end} *)

let lubm_layout = lazy (
  let abox = Lubm.Generator.generate ~seed:7 ~target_facts:4_000 () in
  Rdbms.Layout.simple_of_abox abox)

let test_lubm_parallel_equals_sequential () =
  let tbox = Lubm.Ontology.tbox in
  let layout = Lazy.force lubm_layout in
  List.iter
    (fun e ->
      let q = e.Lubm.Workload.query in
      let ucq = Reform.Perfectref.reformulate_cached tbox q in
      let fol = Fol.leaf ~out:q.Cq.head ucq in
      let seq = eval_answers ~jobs:1 layout fol in
      List.iter
        (fun jobs ->
          Alcotest.(check (list (list string)))
            (Printf.sprintf "%s at jobs=%d" e.Lubm.Workload.name jobs)
            seq
            (eval_answers ~jobs layout fol))
        [ 2; 4 ])
    Lubm.Workload.queries

let test_parallel_runs_deterministic () =
  (* two runs at the same parallel job count return the same answer
     list, in the same order *)
  let tbox = Lubm.Ontology.tbox in
  let layout = Lazy.force lubm_layout in
  let e = Lubm.Workload.find "Q9" in
  let ucq = Reform.Perfectref.reformulate_cached tbox e.Lubm.Workload.query in
  let fol = Fol.leaf ~out:e.Lubm.Workload.query.Cq.head ucq in
  let r1 = eval_answers ~jobs:4 layout fol in
  let r2 = eval_answers ~jobs:4 layout fol in
  Alcotest.(check (list (list string))) "repeated parallel runs identical" r1 r2

(* {1 Counter totals under parallelism} *)

let test_counter_totals_stable () =
  (* every request bumps exactly one of the pair, and arms that miss
     on the same signature together compute it once, so the totals
     are invariant across job counts *)
  let tbox = Lubm.Ontology.tbox in
  let layout = Lazy.force lubm_layout in
  let e = Lubm.Workload.find "Q9" in
  let ucq = Reform.Perfectref.reformulate_cached tbox e.Lubm.Workload.query in
  let fol = Fol.leaf ~out:e.Lubm.Workload.query.Cq.head ucq in
  let plan = Rdbms.Planner.of_fol layout fol in
  let totals jobs =
    let c = Rdbms.Exec.fresh_counters () in
    ignore (Rdbms.Exec.run ~config:Rdbms.Exec.db2_like ~counters:c ~jobs layout plan);
    ( Atomic.get c.Rdbms.Exec.scans + Atomic.get c.Rdbms.Exec.scan_hits,
      Atomic.get c.Rdbms.Exec.builds + Atomic.get c.Rdbms.Exec.build_hits )
  in
  let scan1, build1 = totals 1 in
  check_bool "some scans requested" true (scan1 > 0);
  List.iter
    (fun jobs ->
      let scans, builds = totals jobs in
      check_int (Printf.sprintf "scan requests at jobs=%d" jobs) scan1 scans;
      check_int (Printf.sprintf "build requests at jobs=%d" jobs) build1 builds)
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "map = List.map" `Quick test_map_matches_list_map;
    Alcotest.test_case "filter_map = List.filter_map" `Quick test_filter_map_matches;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
    Alcotest.test_case "nested map degrades" `Quick test_nested_map_degrades;
    Alcotest.test_case "default jobs roundtrip" `Quick test_default_jobs_roundtrip;
    Alcotest.test_case "shutdown restarts" `Quick test_shutdown_restarts;
    Alcotest.test_case "lubm parallel = sequential" `Slow test_lubm_parallel_equals_sequential;
    Alcotest.test_case "parallel runs deterministic" `Slow test_parallel_runs_deterministic;
    Alcotest.test_case "counter totals stable" `Slow test_counter_totals_stable;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_ucq_eval_parallel_equals_sequential;
        prop_cover_eval_parallel_equals_sequential;
        prop_edl_parallel_equals_sequential;
        prop_gdl_parallel_equals_sequential;
      ]
