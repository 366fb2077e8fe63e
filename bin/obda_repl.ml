(* obda-repl: an interactive shell over the OBDA library.

   $ dune exec bin/obda_repl.exe
   obda> generate 20000
   obda> ask q(?x) <- FullProfessor(?x), hasAward(?x, ?w)
   obda> explain q(?x) <- Professor(?x)
   obda> insert role worksFor alice univ0_d1
   obda> help                                              *)

type state = {
  mutable tbox : Dllite.Tbox.t;
  mutable abox : Dllite.Abox.t;
  mutable engine : Obda.engine;
  mutable engine_kind : Obda.engine_kind;
  mutable layout_kind : Obda.layout_kind;
  mutable strategy : Obda.strategy;
  mutable limit : int;
}

let rebuild st = st.engine <- Obda.make_engine st.engine_kind st.layout_kind st.abox

let initial () =
  let abox = Lubm.Generator.generate ~target_facts:5_000 () in
  let engine_kind = `Pglite and layout_kind = `Simple in
  {
    tbox = Lubm.Ontology.tbox;
    abox;
    engine = Obda.make_engine engine_kind layout_kind abox;
    engine_kind;
    layout_kind;
    strategy = Obda.Gdl Obda.Ext_cost;
    limit = 15;
  }

let help () =
  print_string
    {|commands:
  help                          this message
  generate N [SEED]             generate a LUBMe ABox of N facts
  load tbox FILE                load a TBox (DL-LiteR text syntax)
  load data FILE                load an ABox file
  load rdf FILE                 load TBox+ABox from an RDF graph
  engine (pglite|db2lite) (simple|rdf)
  strategy (ucq|uscq|croot|gdl-rdbms|gdl-ext|edl-ext)
  limit N                       print at most N answer rows
  stats                         knowledge-base summary
  consistent                    check T-consistency
  saturate                      materialise entailed facts into the ABox
  views (on|off)                materialised fragment views
  cache stats                   plan / reformulation / view cache statistics
  cache plan N                  resize the plan cache (0 disables)
  cache reform N                resize the reformulation cache (0 disables)
  cache clear                   flush the plan and reformulation caches
  insert concept C a            assert C(a)
  insert role R a b             assert R(a,b)
  feedback stats                correction-store summary and top factors
  feedback (on|off)             toggle the correction store
  feedback clear                drop every learned correction
  feedback save FILE            write the corrections (OBDAFBK1)
  feedback load FILE            read corrections saved earlier
  ask QUERY                     answer a CQ, e.g. ask q(?x) <- Person(?x)
  QNAME                         run a workload query, e.g. Q3 or A4
  explain QUERY|QNAME           reformulation, cover, costs
  analyze QUERY|QNAME           EXPLAIN ANALYZE: estimates vs actuals, harvested
                                into the correction store (also :explain)
  plan QUERY|QNAME              annotated physical plan
  sql QUERY|QNAME               generated SQL
  datalog QUERY|QNAME           Datalog rendering of the reformulation
  metrics                       process-wide metrics registry (also :metrics)
  quit                          exit
|}

let parse_query st text =
  let text = String.trim text in
  match Lubm.Workload.find text with
  | e when st.tbox == Lubm.Ontology.tbox -> e.Lubm.Workload.query
  | _ | (exception Not_found) -> Syntax.Query_text.parse text

let run_ask st text =
  let q = parse_query st text in
  let o = Obda.answer st.engine st.tbox st.strategy q in
  match o.Obda.answers with
  | Error msg -> Printf.printf "engine error: %s\n" msg
  | Ok answers ->
    List.iteri
      (fun i row ->
        if i < st.limit then print_endline ("  " ^ String.concat ", " row))
      answers;
    if List.length answers > st.limit then
      Printf.printf "  ... (%d more)\n" (List.length answers - st.limit);
    Printf.printf "%d answers [%s, %s; %d cqs; search %.1f ms%s; eval %.1f ms]\n"
      (List.length answers)
      (Obda.engine_name st.engine)
      (Obda.strategy_name st.strategy)
      o.Obda.cq_count
      (o.Obda.search_time *. 1000.)
      (if o.Obda.plan_cached then ", cached plan" else "")
      (o.Obda.eval_time *. 1000.)

let run_explain st text =
  let q = parse_query st text in
  let fol = Obda.reformulate st.engine st.tbox st.strategy q in
  let root = Covers.Safety.root_cover ~store:(Reform.Relstore.of_tbox st.tbox) st.tbox q in
  Fmt.pr "root cover : %a@." Covers.Cover.pp root;
  Fmt.pr "cq count   : %d@." (Query.Fol.cq_count fol);
  Fmt.pr "rdbms cost : %.0f@."
    ((Obda.estimator st.engine Obda.Rdbms_cost).Optimizer.Estimator.estimate fol);
  Fmt.pr "ext cost   : %.0f@."
    ((Obda.estimator st.engine Obda.Ext_cost).Optimizer.Estimator.estimate fol);
  Fmt.pr "sql bytes  : %d@." (Sql.Sql_gen.sql_length (Obda.layout st.engine) fol)

let run_analyze st text =
  let q = parse_query st text in
  let a = Obda.analyze st.engine st.tbox st.strategy q in
  (match a.Obda.a_stats with
  | Some stats ->
    print_string
      (Rdbms.Explain.render_analyze (Obda.profile st.engine)
         (Obda.layout st.engine) stats)
  | None -> (
    match a.Obda.a_outcome.Obda.answers with
    | Error msg -> Printf.printf "engine error: %s\n" msg
    | Ok _ -> ()));
  Printf.printf "root q-error %.2f; %d observations harvested%s\n"
    a.Obda.a_q_error a.Obda.a_harvested
    (if a.Obda.a_reranked then "; cached plan dropped for re-ranking" else "")

let run_plan st text =
  let q = parse_query st text in
  match (Obda.explain st.engine st.tbox st.strategy q).Obda.answers with
  | Ok plan ->
    print_string (Rdbms.Explain.render (Obda.profile st.engine) (Obda.layout st.engine) plan)
  | Error msg -> Printf.printf "engine error: %s\n" msg

let run_sql st text =
  let q = parse_query st text in
  let fol = Obda.reformulate st.engine st.tbox st.strategy q in
  print_endline (Sql.Sql_ast.to_string (Sql.Sql_gen.of_fol (Obda.layout st.engine) fol))

let run_datalog st text =
  let q = parse_query st text in
  let fol = Obda.reformulate st.engine st.tbox st.strategy q in
  print_string (Syntax.Datalog.of_fol fol)

let words s =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim s))

let handle st line =
  match words line with
  | [] -> ()
  | [ "help" ] -> help ()
  | "generate" :: n :: rest ->
    let seed = match rest with [ s ] -> int_of_string s | _ -> 42 in
    st.tbox <- Lubm.Ontology.tbox;
    st.abox <- Lubm.Generator.generate ~seed ~target_facts:(int_of_string n) ();
    rebuild st;
    Fmt.pr "%a@." Dllite.Abox.pp_stats st.abox
  | [ "load"; "tbox"; file ] ->
    st.tbox <- Syntax.Tbox_text.load file;
    Printf.printf "loaded %d axioms\n" (Dllite.Tbox.axiom_count st.tbox)
  | [ "load"; "data"; file ] -> (
    match Dllite.Abox.load file with
    | Ok abox ->
      st.abox <- abox;
      rebuild st;
      Fmt.pr "%a@." Dllite.Abox.pp_stats st.abox
    | Error e -> Fmt.pr "parse error: %s: %a@." file Dllite.Abox.pp_parse_error e)
  | [ "load"; "rdf"; file ] ->
    let kb = Rdf.Rdfs.load_kb file in
    st.tbox <- Dllite.Kb.tbox kb;
    st.abox <- Dllite.Kb.abox kb;
    rebuild st;
    Fmt.pr "loaded %d axioms; %a@." (Dllite.Tbox.axiom_count st.tbox)
      Dllite.Abox.pp_stats st.abox
  | [ "engine"; kind; layout ] ->
    st.engine_kind <-
      (match kind with
      | "pglite" -> `Pglite
      | "db2lite" -> `Db2lite
      | other -> failwith ("unknown engine " ^ other));
    st.layout_kind <-
      (match layout with
      | "simple" -> `Simple
      | "rdf" -> `Rdf
      | other -> failwith ("unknown layout " ^ other));
    rebuild st;
    Printf.printf "engine is now %s\n" (Obda.engine_name st.engine)
  | [ "strategy"; s ] ->
    st.strategy <-
      (match s with
      | "ucq" -> Obda.Ucq
      | "uscq" -> Obda.Uscq
      | "croot" -> Obda.Croot
      | "gdl-rdbms" -> Obda.Gdl Obda.Rdbms_cost
      | "gdl-ext" -> Obda.Gdl Obda.Ext_cost
      | "edl-ext" -> Obda.Edl Obda.Ext_cost
      | other -> failwith ("unknown strategy " ^ other));
    Printf.printf "strategy is now %s\n" (Obda.strategy_name st.strategy)
  | [ "limit"; n ] -> st.limit <- int_of_string n
  | [ "stats" ] ->
    Fmt.pr "%a@." Dllite.Abox.pp_stats st.abox;
    Printf.printf "TBox: %d axioms; engine %s; strategy %s\n"
      (Dllite.Tbox.axiom_count st.tbox)
      (Obda.engine_name st.engine)
      (Obda.strategy_name st.strategy)
  | [ "consistent" ] -> (
    match Dllite.Kb.check_consistency (Dllite.Kb.make st.tbox st.abox) with
    | None -> print_endline "consistent"
    | Some violation -> Fmt.pr "INCONSISTENT: %a@." Dllite.Kb.pp_violation violation)
  | [ "saturate" ] ->
    let before = Dllite.Abox.size st.abox in
    st.abox <- Dllite.Saturate.abox st.tbox st.abox;
    rebuild st;
    Printf.printf "saturated: %d -> %d facts\n" before (Dllite.Abox.size st.abox)
  | [ "views"; "on" ] ->
    Obda.enable_fragment_views st.engine;
    print_endline "fragment views enabled"
  | [ "views"; "off" ] ->
    Obda.disable_fragment_views st.engine;
    print_endline "fragment views disabled"
  | [ "cache"; "stats" ] ->
    Fmt.pr "%a@." Cache.Lru.pp_stats (Obda.plan_cache_stats ());
    Fmt.pr "%a@." Cache.Lru.pp_stats (Reform.Perfectref.cache_stats ())
  | [ "cache"; "plan"; n ] ->
    Obda.set_plan_cache_capacity (int_of_string n);
    Printf.printf "plan cache capacity is now %s\n" n
  | [ "cache"; "reform"; n ] ->
    Reform.Perfectref.set_cache_capacity (int_of_string n);
    Printf.printf "reformulation cache capacity is now %s\n" n
  | [ "cache"; "clear" ] ->
    Obda.clear_plan_cache ();
    Reform.Perfectref.clear_cache ();
    print_endline "plan and reformulation caches cleared"
  | [ "feedback"; "stats" ] -> (
    match Obda.feedback_store st.engine with
    | None -> print_endline "feedback: off"
    | Some fb ->
      Fmt.pr "%a@." Cost.Feedback.pp_stats (Cost.Feedback.stats fb);
      let entries = Cost.Feedback.entries fb in
      List.iteri
        (fun i (key, factor, count) ->
          if i < st.limit then Fmt.pr "  %10.4f x%-5d %s@." factor count key)
        entries;
      if List.length entries > st.limit then
        Printf.printf "  ... (%d more; 'limit N' to widen)\n"
          (List.length entries - st.limit))
  | [ "feedback"; "on" ] ->
    Obda.set_feedback st.engine true;
    print_endline "feedback enabled (train it with 'analyze')"
  | [ "feedback"; "off" ] ->
    Obda.set_feedback st.engine false;
    print_endline "feedback disabled"
  | [ "feedback"; "clear" ] -> (
    match Obda.feedback_store st.engine with
    | Some fb ->
      Cost.Feedback.clear fb;
      print_endline "corrections cleared"
    | None -> print_endline "feedback: off")
  | [ "feedback"; "save"; file ] -> (
    match Obda.feedback_store st.engine with
    | Some fb ->
      Cost.Feedback.save fb file;
      Fmt.pr "wrote %a to %s@." Cost.Feedback.pp_stats (Cost.Feedback.stats fb) file
    | None -> print_endline "feedback: off")
  | [ "feedback"; "load"; file ] -> (
    match Cost.Feedback.load file with
    | Ok fb ->
      Obda.set_feedback_store st.engine (Some fb);
      Fmt.pr "loaded %a@." Cost.Feedback.pp_stats (Cost.Feedback.stats fb)
    | Error msg -> Printf.printf "error: %s\n" msg)
  | [ "insert"; "concept"; c; a ] ->
    Printf.printf "%s\n"
      (if Obda.insert_concept st.engine ~concept:c ~ind:a then "inserted"
       else "already present")
  | [ "insert"; "role"; r; a; b ] ->
    Printf.printf "%s\n"
      (if Obda.insert_role st.engine ~role:r ~subj:a ~obj:b then "inserted"
       else "already present")
  | "ask" :: rest -> run_ask st (String.concat " " rest)
  | "explain" :: rest -> run_explain st (String.concat " " rest)
  | ("analyze" | ":explain") :: rest -> run_analyze st (String.concat " " rest)
  | [ "metrics" ] | [ ":metrics" ] -> print_string (Obs.Metrics.to_text ())
  | "plan" :: rest -> run_plan st (String.concat " " rest)
  | "sql" :: rest -> run_sql st (String.concat " " rest)
  | "datalog" :: rest -> run_datalog st (String.concat " " rest)
  | [ single ]
    when String.length single >= 2
         && (single.[0] = 'Q' || single.[0] = 'A')
         && st.tbox == Lubm.Ontology.tbox ->
    run_ask st single
  | _ -> print_endline "unrecognised command; try 'help'"

let () =
  let st = initial () in
  Printf.printf
    "obda-repl — cover-based query answering under DL-LiteR constraints\n\
     loaded a %d-fact LUBMe sample; type 'help' for commands\n"
    (Dllite.Abox.size st.abox);
  let rec loop () =
    print_string "obda> ";
    match read_line () with
    | exception End_of_file -> print_newline ()
    | "quit" | "exit" -> ()
    | line ->
      (try handle st line with
      | Failure msg -> Printf.printf "error: %s\n" msg
      | Syntax.Query_text.Parse_error msg | Syntax.Tbox_text.Parse_error msg ->
        Printf.printf "parse error: %s\n" msg
      | Rdf.Triple.Parse_error msg -> Printf.printf "rdf parse error: %s\n" msg
      | Sys_error msg -> Printf.printf "io error: %s\n" msg
      | Not_found -> print_endline "error: not found"
      | Invalid_argument msg -> Printf.printf "error: %s\n" msg);
      loop ()
  in
  loop ()
