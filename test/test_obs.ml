(* Observability layer: metrics registry, trace events, EXPLAIN
   ANALYZE instrumentation, and the jobs-invariance of the counters
   the bench acceptance relies on. *)

open Query

let v = Fixtures.v

let ra = Fixtures.ra

let ca = Fixtures.ca

(* Every exporter builds an {!Obs.Json.t}; the tests print it and
   read it back with the same codec's parser. *)
let reparse label s =
  match Obs.Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: invalid JSON: %s" label e

let check_value label j = ignore (reparse label (Obs.Json.to_string j))

(* {1 Metrics registry} *)

let test_counter () =
  let c = Obs.Metrics.counter ~help:"test" "test.obs.counter" in
  let v0 = Obs.Metrics.counter_value c in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  Alcotest.(check int) "incr + add" (v0 + 5) (Obs.Metrics.counter_value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Metrics.add test.obs.counter: negative delta -1")
    (fun () -> Obs.Metrics.add c (-1))

let test_registration () =
  let a = Obs.Metrics.counter "test.obs.same" in
  let b = Obs.Metrics.counter "test.obs.same" in
  Obs.Metrics.incr a;
  Obs.Metrics.incr b;
  Alcotest.(check int) "one instrument behind the name" 2
    (Obs.Metrics.counter_value a);
  (match Obs.Metrics.gauge "test.obs.same" with
  | _ -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ());
  match Obs.Metrics.find_counter "test.obs.same" with
  | Some c ->
    Alcotest.(check int) "find_counter sees it" 2 (Obs.Metrics.counter_value c)
  | None -> Alcotest.fail "find_counter missed a registered counter"

let test_gauge () =
  let g = Obs.Metrics.gauge "test.obs.gauge" in
  Obs.Metrics.set g 3.5;
  Obs.Metrics.set g 1.25;
  Alcotest.(check (float 0.)) "last set wins" 1.25 (Obs.Metrics.gauge_value g)

let test_histogram () =
  let h = Obs.Metrics.histogram ~buckets:[ 1.; 10. ] "test.obs.histo" in
  Obs.Metrics.observe h 0.5;
  Obs.Metrics.observe h 5.;
  Obs.Metrics.observe h 100.;
  Alcotest.(check int) "count" 3 (Obs.Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 105.5 (Obs.Metrics.histogram_sum h);
  (match Obs.Metrics.histogram_buckets h with
  | [ (b1, c1); (b2, c2); (binf, cinf) ] ->
    Alcotest.(check (float 0.)) "bound 1" 1. b1;
    Alcotest.(check (float 0.)) "bound 2" 10. b2;
    Alcotest.(check bool) "overflow bound" true (binf = infinity);
    Alcotest.(check (list int)) "bucket counts" [ 1; 1; 1 ] [ c1; c2; cinf ]
  | l -> Alcotest.failf "expected 3 buckets, got %d" (List.length l));
  ignore (Obs.Metrics.time h (fun () -> 42));
  Alcotest.(check int) "time observes" 4 (Obs.Metrics.histogram_count h);
  match Obs.Metrics.histogram ~buckets:[ 5.; 5. ] "test.obs.histo.bad" with
  | _ -> Alcotest.fail "non-increasing buckets accepted"
  | exception Invalid_argument _ -> ()

let test_reset () =
  let c = Obs.Metrics.counter "test.obs.reset" in
  Obs.Metrics.add c 7;
  Obs.Metrics.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Alcotest.(check int) "instrument still live" 1 (Obs.Metrics.counter_value c)

let test_export () =
  let json = Obs.Metrics.to_json () in
  ignore (reparse "Metrics.to_json" json);
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json names a known counter" true
    (contains json "exec.scan.requests");
  let text = Obs.Metrics.to_text () in
  Alcotest.(check bool) "text names a known counter" true
    (contains text "exec.scan.requests")

(* {1 Trace events} *)

let test_trace_record () =
  Alcotest.(check bool) "disabled outside record" false (Obs.Trace.enabled ());
  let result, events =
    Obs.Trace.record (fun () ->
        Alcotest.(check bool) "enabled inside record" true (Obs.Trace.enabled ());
        Obs.Trace.emit ~source:"t" ~step:1 ~verdict:Obs.Trace.Candidate ~cost:10.
          "c1";
        Obs.Trace.emit ~source:"t" ~step:1 ~verdict:Obs.Trace.Accepted ~cost:5.
          "c2";
        Obs.Trace.emit ~source:"t" ~step:2 ~verdict:Obs.Trace.Chosen "c3";
        "done")
  in
  Alcotest.(check string) "result passes through" "done" result;
  Alcotest.(check int) "three events" 3 (List.length events);
  let seqs = List.map (fun e -> e.Obs.Trace.seq) events in
  Alcotest.(check bool) "sequence-ordered" true (List.sort compare seqs = seqs);
  (match events with
  | [ e1; e2; e3 ] ->
    Alcotest.(check string) "labels in order" "c1,c2,c3"
      (String.concat "," [ e1.Obs.Trace.label; e2.Obs.Trace.label; e3.Obs.Trace.label ]);
    Alcotest.(check bool) "nan cost on bare emit" true
      (Float.is_nan e3.Obs.Trace.cost);
    check_value "event_to_json" (Obs.Trace.event_to_json e1);
    let e3_json = reparse "event_to_json" (Obs.Json.to_string (Obs.Trace.event_to_json e3)) in
    Alcotest.(check bool) "nan cost prints null" true
      (Obs.Json.member "cost" e3_json = Some Obs.Json.Null)
  | _ -> Alcotest.fail "expected exactly the three emitted events");
  Alcotest.(check bool) "disabled again after record" false (Obs.Trace.enabled ())

let test_trace_restores_on_exn () =
  (match
     Obs.Trace.with_sink
       (fun _ -> ())
       (fun () -> raise Exit)
   with
  | () -> Alcotest.fail "exception swallowed"
  | exception Exit -> ());
  Alcotest.(check bool) "sink uninstalled after exception" false
    (Obs.Trace.enabled ())

let test_gdl_emits_trace () =
  let tbox = Fixtures.example1_tbox in
  let abox = Fixtures.example1_abox () in
  let layout = Rdbms.Layout.simple_of_abox abox in
  let est = Optimizer.Estimator.rdbms Rdbms.Explain.pglite layout in
  let _, events =
    Obs.Trace.record (fun () ->
        ignore (Optimizer.Gdl.search tbox est Fixtures.example7_query))
  in
  Alcotest.(check bool) "gdl emitted events" true (events <> []);
  Alcotest.(check bool) "all events from gdl" true
    (List.for_all (fun e -> e.Obs.Trace.source = "gdl") events);
  let chosen =
    List.filter (fun e -> e.Obs.Trace.verdict = Obs.Trace.Chosen) events
  in
  Alcotest.(check int) "exactly one chosen cover" 1 (List.length chosen)

(* {1 EXPLAIN ANALYZE instrumentation} *)

(* The example-1 KB reformulated: a union of several CQs, giving the
   plan scans, joins, a union and a distinct to instrument. *)
let example1_plan () =
  let tbox = Fixtures.example1_tbox in
  let abox = Fixtures.example1_abox () in
  let layout = Rdbms.Layout.simple_of_abox abox in
  let ucq = Reform.Perfectref.reformulate tbox Fixtures.example3_query in
  let fol = Fol.leaf ~out:Fixtures.example3_query.Cq.head ucq in
  layout, Rdbms.Planner.of_fol layout fol

let test_analyze_cardinalities () =
  let layout, plan = example1_plan () in
  let rel = Rdbms.Exec.run layout plan in
  let rel', stats = Rdbms.Exec.run_analyzed layout plan in
  Alcotest.(check int) "same result as run"
    (Rdbms.Relation.cardinality rel)
    (Rdbms.Relation.cardinality rel');
  Alcotest.(check int) "root actual_rows is the result cardinality"
    (Rdbms.Relation.cardinality rel')
    stats.Rdbms.Exec.actual_rows;
  let rec wellformed (s : Rdbms.Exec.node_stats) =
    Alcotest.(check bool) "non-negative rows" true (s.Rdbms.Exec.actual_rows >= 0);
    Alcotest.(check bool) "non-negative time" true (s.Rdbms.Exec.elapsed_ns >= 0L);
    List.iter wellformed s.Rdbms.Exec.children
  in
  wellformed stats

let test_analyze_matches_run_at_any_jobs () =
  let layout, plan = example1_plan () in
  let reference = Rdbms.Exec.answers layout plan in
  List.iter
    (fun jobs ->
      let rel, stats =
        Rdbms.Exec.run_analyzed ~config:Rdbms.Exec.db2_like ~jobs layout plan
      in
      ignore rel;
      let answers = Rdbms.Exec.answers ~jobs layout plan in
      Alcotest.(check (list (list string)))
        (Printf.sprintf "answers at jobs=%d" jobs)
        reference answers;
      Alcotest.(check int)
        (Printf.sprintf "root cardinality at jobs=%d" jobs)
        (List.length reference) stats.Rdbms.Exec.actual_rows)
    [ 1; 2; 4 ]

(* The counters DESIGN.md documents as jobs-invariant: each cache
   request bumps exactly one of (performed, hit), and the number of
   requests and union arms is fixed by the plan, not the schedule. *)
let invariant_counters =
  [ "exec.scan.requests"; "exec.build.requests"; "exec.union.arms" ]

let test_metrics_invariant_across_jobs () =
  let layout = Rdbms.Layout.simple_of_abox (Fixtures.example1_abox ()) in
  (* A plan that exercises all three counters: four identical union
     arms, each a hash join whose build side is a base scan (so the
     db2-like build/scan caches field requests from every arm). *)
  let arm _ =
    Rdbms.Plan.Project
      {
        input =
          Rdbms.Plan.Hash_join
            {
              left = Rdbms.Plan.Scan (ra "worksWith" (v "x") (v "y"));
              right = Rdbms.Plan.Scan (ra "supervisedBy" (v "z") (v "y"));
              on = [ "y" ];
            };
        out = [ `Col "x" ];
      }
  in
  let plan =
    Rdbms.Plan.Distinct
      (Rdbms.Plan.Union { cols = [ "x" ]; inputs = List.init 4 arm })
  in
  let totals jobs =
    Obs.Metrics.reset ();
    ignore (Rdbms.Exec.run_analyzed ~config:Rdbms.Exec.db2_like ~jobs layout plan);
    List.map
      (fun name ->
        match Obs.Metrics.find_counter name with
        | Some c -> Obs.Metrics.counter_value c
        | None -> Alcotest.failf "counter %s not registered" name)
      invariant_counters
  in
  let t1 = totals 1 in
  Alcotest.(check bool) "the plan exercises the counters" true
    (List.for_all (fun v -> v > 0) t1);
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "totals at jobs=%d equal jobs=1" jobs)
        t1 (totals jobs))
    [ 2; 4 ]

(* {1 EXPLAIN rendering goldens}

   Hand-built plans (no reformulation), so operator order, variable
   names and estimates are fully deterministic. *)

let golden_layout () = Rdbms.Layout.simple_of_abox (Fixtures.example1_abox ())

let render p =
  Rdbms.Explain.render Rdbms.Explain.pglite (golden_layout ()) p

let test_golden_scan () =
  let plan = Rdbms.Plan.Scan (ra "worksWith" (v "x") (v "y")) in
  Alcotest.(check string) "single scan"
    "Scan worksWith(x,y)  (cost=2 rows=1)\n" (render plan)

let test_golden_join () =
  let plan =
    Rdbms.Plan.Distinct
      (Rdbms.Plan.Project
         {
           input =
             Rdbms.Plan.Hash_join
               {
                 left = Rdbms.Plan.Scan (ra "worksWith" (v "x") (v "y"));
                 right = Rdbms.Plan.Scan (ra "supervisedBy" (v "z") (v "y"));
                 on = [ "y" ];
               };
           out = [ `Col "x" ];
         })
  in
  Alcotest.(check string) "join under project/distinct"
    "Distinct  (cost=14 rows=1)\n\
     \  Project [x]\n\
     \    Hash Join on [y]  (cost=11 rows=1)\n\
     \      Scan worksWith(x,y)  (cost=2 rows=1)\n\
     \      Scan supervisedBy(z,y)  (cost=3 rows=2)\n"
    (render plan)

let test_golden_union_elision () =
  let arm i =
    Rdbms.Plan.Project
      {
        input = Rdbms.Plan.Scan (ra "worksWith" (v "x") (v (Printf.sprintf "y%d" i)));
        out = [ `Col "x" ];
      }
  in
  let plan =
    Rdbms.Plan.Union { cols = [ "x" ]; inputs = List.init 6 arm }
  in
  Alcotest.(check string) "union elided after four arms"
    "Union of 6 arms  (cost=19 rows=6)\n\
     \  Project [x]\n\
     \    Scan worksWith(x,y0)  (cost=2 rows=1)\n\
     \  Project [x]\n\
     \    Scan worksWith(x,y1)  (cost=2 rows=1)\n\
     \  Project [x]\n\
     \    Scan worksWith(x,y2)  (cost=2 rows=1)\n\
     \  Project [x]\n\
     \    Scan worksWith(x,y3)  (cost=2 rows=1)\n\
     \  ... (2 more arms)\n"
    (render plan)

(* Wall-clock varies run to run; scrub [time=...ms] before comparing. *)
let scrub_times s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 5 <= n && String.sub s !i 5 = "time=" then begin
      Buffer.add_string b "time=X";
      i := !i + 5;
      while !i < n && s.[!i] <> 'm' do
        incr i
      done
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let test_golden_analyze () =
  let layout = golden_layout () in
  let plan =
    Rdbms.Plan.Distinct
      (Rdbms.Plan.Hash_join
         {
           left = Rdbms.Plan.Scan (ra "worksWith" (v "x") (v "y"));
           right = Rdbms.Plan.Scan (ra "supervisedBy" (v "z") (v "y"));
           on = [ "y" ];
         })
  in
  let _, stats =
    Rdbms.Exec.run_analyzed ~config:Rdbms.Exec.db2_like layout plan
  in
  let rendered =
    scrub_times (Rdbms.Explain.render_analyze Rdbms.Explain.pglite layout stats)
  in
  Alcotest.(check string) "analyze rendering (times scrubbed)"
    "Distinct  est(cost=13 rows=1)  act(rows=1 time=Xms)  q-err=1.00\n\
     \  Hash Join on [y]  est(cost=11 rows=1)  act(rows=1 time=Xms, build miss)  \
     q-err=1.00\n\
     \    Scan worksWith(x,y)  est(cost=2 rows=1)  act(rows=1 time=Xms, scan \
     miss)  q-err=1.00\n"
    rendered

(* The batch engine's pipelined index join plus a Materialize fragment
   served by the view store: the first execution misses, the second is
   answered from the store (view hit, no children re-executed). *)
let test_golden_analyze_physical () =
  let layout = golden_layout () in
  let plan =
    Rdbms.Plan.Distinct
      (Rdbms.Plan.Index_join
         {
           left = Rdbms.Plan.Materialize (Rdbms.Plan.Scan (ra "worksWith" (v "x") (v "y")));
           atom = ra "supervisedBy" (v "z") (v "y");
           probe_col = "y";
         })
  in
  let views = Rdbms.Exec.fresh_view_store () in
  let render () =
    let _, stats =
      Rdbms.Exec.run_analyzed ~config:Rdbms.Exec.db2_like ~views layout plan
    in
    scrub_times (Rdbms.Explain.render_analyze Rdbms.Explain.pglite layout stats)
  in
  Alcotest.(check string) "first run misses the view store"
    "Distinct  est(cost=10 rows=1)  act(rows=1 time=Xms)  q-err=1.00\n\
     \  Index Join probe y into supervisedBy(z,y)  est(cost=8 rows=1)  \
     act(rows=1 time=Xms)  q-err=1.00\n\
     \    Materialize  est(cost=4 rows=1)  act(rows=1 time=Xms, view miss)  \
     q-err=1.00\n\
     \      Scan worksWith(x,y)  est(cost=2 rows=1)  act(rows=1 time=Xms, \
     scan miss)  q-err=1.00\n"
    (render ());
  Alcotest.(check string) "second run hits the view store"
    "Distinct  est(cost=10 rows=1)  act(rows=1 time=Xms)  q-err=1.00\n\
     \  Index Join probe y into supervisedBy(z,y)  est(cost=8 rows=1)  \
     act(rows=1 time=Xms)  q-err=1.00\n\
     \    Materialize  est(cost=4 rows=1)  act(rows=1 time=Xms, view hit)  \
     q-err=1.00\n"
    (render ())

let test_analyze_json_valid () =
  let layout, plan = example1_plan () in
  let _, stats = Rdbms.Exec.run_analyzed layout plan in
  check_value "render_analyze_json"
    (Rdbms.Explain.render_analyze_json Rdbms.Explain.pglite layout stats);
  check_value "render_json" (Rdbms.Explain.render_json Rdbms.Explain.pglite layout plan);
  (* Constants with non-ASCII and control bytes: the explain fields the
     CLI and the server print are valid JSON, and the Scan labels carry
     the constant's bytes unchanged. *)
  let engine = Obda.make_engine `Pglite `Simple (Fixtures.example1_abox ()) in
  List.iter
    (fun (constant, analyze) ->
      let q = Syntax.Query_text.parse (Printf.sprintf {|q(?x) <- worksWith(?x, "%s")|} constant) in
      let o = Obda.explain_json engine Fixtures.example1_tbox Obda.Ucq ~analyze q in
      let text = Obs.Json.to_string (Obs.Json.Obj (Obda.explain_fields ~analyze o)) in
      let plan = Option.value ~default:Obs.Json.Null (Obs.Json.member "plan" (reparse text text)) in
      Alcotest.(check bool) (text ^ ": a Scan label keeps the constant") true
        (List.mem (Printf.sprintf "Scan worksWith(x,%s)" constant) (Fixtures.scan_labels plan)))
    [ "Zo\xc3\xab", false; "Zo\xc3\xab", true; "a\001b", false; "a\001b", true ]

let test_q_error () =
  Alcotest.(check (float 1e-9)) "overestimate" 4.
    (Rdbms.Explain.q_error ~est:8. ~actual:2);
  Alcotest.(check (float 1e-9)) "underestimate" 4.
    (Rdbms.Explain.q_error ~est:2. ~actual:8);
  Alcotest.(check (float 1e-9)) "perfect" 1.
    (Rdbms.Explain.q_error ~est:5. ~actual:5);
  Alcotest.(check (float 1e-9)) "empty result clamps" 3.
    (Rdbms.Explain.q_error ~est:3. ~actual:0);
  (* Edge cases: both sides clamp below at one row, so a zero estimate
     or an empty result never divides by zero and never reports an
     error below 1. *)
  Alcotest.(check (float 1e-9)) "zero estimate clamps" 5.
    (Rdbms.Explain.q_error ~est:0. ~actual:5);
  Alcotest.(check (float 1e-9)) "zero on both sides is perfect" 1.
    (Rdbms.Explain.q_error ~est:0. ~actual:0);
  Alcotest.(check (float 1e-9)) "fractional estimate clamps" 1.
    (Rdbms.Explain.q_error ~est:0.25 ~actual:1);
  Alcotest.(check bool) "never below one" true
    (Rdbms.Explain.q_error ~est:7. ~actual:7 >= 1.)

(* Touch a couple of Fixtures helpers so the shared module stays
   warning-free regardless of which suites use them. *)
let _ = ca

let suite =
  [
    Alcotest.test_case "metrics: counter incr/add" `Quick test_counter;
    Alcotest.test_case "metrics: idempotent registration" `Quick test_registration;
    Alcotest.test_case "metrics: gauge" `Quick test_gauge;
    Alcotest.test_case "metrics: histogram buckets" `Quick test_histogram;
    Alcotest.test_case "metrics: reset keeps registrations" `Quick test_reset;
    Alcotest.test_case "metrics: JSON/text export" `Quick test_export;
    Alcotest.test_case "trace: record collects ordered events" `Quick
      test_trace_record;
    Alcotest.test_case "trace: sink restored on exception" `Quick
      test_trace_restores_on_exn;
    Alcotest.test_case "trace: GDL emits candidate/chosen" `Quick
      test_gdl_emits_trace;
    Alcotest.test_case "analyze: cardinalities match the result" `Quick
      test_analyze_cardinalities;
    Alcotest.test_case "analyze: identical answers at jobs 1/2/4" `Quick
      test_analyze_matches_run_at_any_jobs;
    Alcotest.test_case "metrics: totals invariant across jobs 1/2/4" `Quick
      test_metrics_invariant_across_jobs;
    Alcotest.test_case "explain golden: scan" `Quick test_golden_scan;
    Alcotest.test_case "explain golden: join" `Quick test_golden_join;
    Alcotest.test_case "explain golden: union elision" `Quick
      test_golden_union_elision;
    Alcotest.test_case "explain golden: analyze" `Quick test_golden_analyze;
    Alcotest.test_case "explain golden: analyze index join + view store" `Quick
      test_golden_analyze_physical;
    Alcotest.test_case "explain: JSON renderings are valid" `Quick
      test_analyze_json_valid;
    Alcotest.test_case "explain: q-error" `Quick test_q_error;
  ]
