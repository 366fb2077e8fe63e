open Fixtures

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_str = Alcotest.(check string)

(* {1 Lexer} *)

let test_lexer_tokens () =
  let tokens = Syntax.Lexer.tokenize "A <= exists r- # comment\nq(?x) <- \"c\"" in
  let expected =
    Syntax.Lexer.
      [
        Ident "A"; Subsumed; Exists; Ident "r"; Minus; Ident "q"; Lpar; Var "x";
        Rpar; Arrow; Str "c"; Eof;
      ]
  in
  check_bool "token stream" true (tokens = expected)

let test_lexer_errors () =
  Alcotest.check_raises "bad char" (Syntax.Lexer.Error "line 1: unexpected character '@'")
    (fun () -> ignore (Syntax.Lexer.tokenize "@"));
  Alcotest.check_raises "unterminated string"
    (Syntax.Lexer.Error "line 1: unterminated string") (fun () ->
      ignore (Syntax.Lexer.tokenize "\"oops"))

(* {1 TBox text} *)

let sample_tbox_text =
  {|
  # the TBox of Example 1
  PhDStudent <= Researcher
  exists worksWith <= Researcher
  exists worksWith- <= Researcher
  worksWith <= worksWith-
  supervisedBy <= worksWith
  exists supervisedBy <= PhDStudent
  PhDStudent <= !exists supervisedBy-
  |}

let test_tbox_parse () =
  let t = Syntax.Tbox_text.parse sample_tbox_text in
  check_int "seven axioms" 7 (Dllite.Tbox.axiom_count t);
  check_bool "same axioms as the programmatic TBox" true
    (List.equal Dllite.Axiom.equal (Dllite.Tbox.axioms t)
       (Dllite.Tbox.axioms example1_tbox))

let test_tbox_roundtrip () =
  List.iter
    (fun tbox ->
      let reparsed = Syntax.Tbox_text.parse (Syntax.Tbox_text.to_text tbox) in
      check_bool "roundtrip preserves axioms" true
        (List.equal Dllite.Axiom.equal (Dllite.Tbox.axioms tbox)
           (Dllite.Tbox.axioms reparsed)))
    [ example1_tbox; example7_tbox; Lubm.Ontology.tbox ]

let test_tbox_parse_errors () =
  check_bool "mixed sides rejected" true
    (match Syntax.Tbox_text.parse "A <= worksWith" with
    | exception Syntax.Tbox_text.Parse_error _ -> true
    | _ -> false);
  check_bool "missing rhs rejected" true
    (match Syntax.Tbox_text.parse "A <=" with
    | exception Syntax.Tbox_text.Parse_error _ -> true
    | _ -> false)

(* {1 Query text} *)

let test_query_parse () =
  let q = Syntax.Query_text.parse "q(?x) <- PhDStudent(?x), worksWith(?y, ?x)" in
  check_bool "same as example 3" true
    (Query.Cq.equal (Query.Cq.canonicalize q) (Query.Cq.canonicalize example3_query));
  let b = Syntax.Query_text.parse {|check() <- worksWith("Ioana", "Francois")|} in
  check_int "boolean query" 0 (Query.Cq.arity b);
  let with_const = Syntax.Query_text.parse {|boss(?y) <- supervisedBy(Damian, ?y)|} in
  check_bool "bare identifier is a constant" true
    (List.exists
       (fun a -> List.exists (Query.Term.equal (c "Damian")) (Query.Atom.terms a))
       (Query.Cq.atoms with_const))

let test_query_roundtrip () =
  List.iter
    (fun e ->
      let q = e.Lubm.Workload.query in
      let q' = Syntax.Query_text.parse (Syntax.Query_text.to_text q) in
      check_bool (e.Lubm.Workload.name ^ " roundtrip") true
        (Query.Cq.equal (Query.Cq.canonicalize q) (Query.Cq.canonicalize q')))
    (Lubm.Workload.queries @ Lubm.Workload.star_queries)

let test_query_parse_errors () =
  let bad s =
    match Syntax.Query_text.parse s with
    | exception Syntax.Query_text.Parse_error _ -> true
    | _ -> false
  in
  check_bool "ternary atom" true (bad "q(?x) <- R(?x, ?y, ?z)");
  check_bool "unsafe head" true (bad "q(?z) <- A(?x)");
  check_bool "missing arrow" true (bad "q(?x) A(?x)");
  check_bool "empty body" true (bad "q(?x) <-")

(* {1 End to end through the parsers} *)

let test_parsed_pipeline () =
  let tbox = Syntax.Tbox_text.parse sample_tbox_text in
  let q = Syntax.Query_text.parse "q(?x) <- PhDStudent(?x), worksWith(?y, ?x)" in
  let engine = Obda.make_engine `Pglite `Simple (example1_abox ()) in
  Alcotest.(check (list (list string)))
    "parsed TBox and query answer correctly" [ [ "Damian" ] ]
    (Obda.answers_exn engine tbox (Obda.Gdl Obda.Ext_cost) q)

let test_tbox_file_io () =
  let path = Filename.temp_file "tbox" ".dl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Syntax.Tbox_text.save example1_tbox path;
      let t = Syntax.Tbox_text.load path in
      check_int "axioms preserved" (Dllite.Tbox.axiom_count example1_tbox)
        (Dllite.Tbox.axiom_count t))

let test_axiom_to_text_forms () =
  check_str "concept sub" "PhDStudent <= Researcher"
    (Syntax.Tbox_text.axiom_to_text
       (Dllite.Axiom.Concept_sub (atomic "PhDStudent", atomic "Researcher")));
  check_str "negative existential" "PhDStudent <= !exists supervisedBy-"
    (Syntax.Tbox_text.axiom_to_text
       (Dllite.Axiom.Concept_disj (atomic "PhDStudent", ex_inv "supervisedBy")));
  check_str "role inverse" "worksWith <= worksWith-"
    (Syntax.Tbox_text.axiom_to_text
       (Dllite.Axiom.Role_sub (named "worksWith", inv "worksWith")))

(* {1 Datalog export} *)

let test_datalog_ucq () =
  let u = Reform.Perfectref.reformulate example1_tbox example3_query in
  let fol = Query.Fol.leaf ~out:example3_query.Query.Cq.head u in
  let program = Syntax.Datalog.of_fol fol in
  check_int "one rule per disjunct" (Query.Ucq.size u) (Syntax.Datalog.rule_count fol);
  check_bool "ans head present" true
    (String.length program > 0 && String.sub program 0 4 = "ans(");
  check_bool "predicates lowercased" true
    (let contains hay needle =
       let nh = String.length hay and nn = String.length needle in
       let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
       go 0
     in
     contains program "phdstudent(X)")

let test_datalog_jucq () =
  let cover = Covers.Safety.root_cover example7_tbox example7_query in
  let fol = Covers.Reformulate.of_cover example7_tbox cover in
  let program = Syntax.Datalog.of_fol fol in
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' program) in
  check_int "rule count matches" (List.length lines) (Syntax.Datalog.rule_count fol);
  (* the final rule defines ans over the fragment predicates *)
  let last = List.nth lines (List.length lines - 1) in
  check_bool "ans rule over fragments" true
    (String.length last > 4 && String.sub last 0 4 = "ans(")

(* {1 Fuzzing the query parser}

   [Query_text.parse] is the server's input path to the query keys. On
   any input it returns a CQ or raises [Parse_error], and every CQ it
   returns round-trips: [parse (to_text q)] has the key of [q]. Each
   property runs [fuzz_budget] = 10,000 cases. *)

let fuzz_budget = 10_000

let parses_soundly s =
  match Syntax.Query_text.parse s with
  | exception Syntax.Query_text.Parse_error _ -> true
  | q ->
    Query.Cq.key (Syntax.Query_text.parse (Syntax.Query_text.to_text q)) = Query.Cq.key q

let prop_parse_random_bytes =
  let query_byte =
    QCheck2.Gen.oneofl [ '('; ')'; ','; '?'; '"'; '<'; '-'; ' '; 'q'; 'x'; 'R'; '_'; ':' ]
  in
  QCheck2.Test.make ~name:"query parse: random bytes" ~count:fuzz_budget
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(string_size ~gen:(oneof [ char; query_byte ]) (int_bound 64))
    parses_soundly

(* Text shaped like a query (name, argument lists, arrow, atoms) over
   names that clash with keywords, variables and separators; many
   parse, some fail on arity, safety or the [exists] keyword. *)
let prop_parse_query_shaped =
  let open QCheck2.Gen in
  let name = oneofl [ "q"; "R"; "A"; "exists"; "_c0"; "x"; "a.b" ] in
  let term =
    oneof
      [
        map (fun n -> "?" ^ n) name;
        name;
        map (Printf.sprintf "%S") (oneofl [ "x"; "a:b"; ""; "(,)"; "?x"; "!"; "_c0" ]);
      ]
  in
  let args = map (fun ts -> "(" ^ String.concat ", " ts ^ ")") (list_size (int_bound 3) term) in
  let atom = map2 ( ^ ) name args in
  QCheck2.Test.make ~name:"query parse: query-shaped text" ~count:fuzz_budget
    ~print:(Printf.sprintf "%S")
    (map3
       (fun n head body -> n ^ head ^ " <- " ^ String.concat ", " body)
       name args (list_size (int_range 1 3) atom))
    parses_soundly

let workload_texts =
  lazy
    (Array.of_list
       (List.map
          (fun e -> Syntax.Query_text.to_text e.Lubm.Workload.query)
          (Lubm.Workload.queries @ Lubm.Workload.star_queries)))

(* Byte flips of a workload query's text, or (no flips) its truncation
   at [cut]. *)
let prop_parse_mutated_workload =
  QCheck2.Test.make ~name:"query parse: byte flips and truncations of the workload"
    ~count:fuzz_budget
    QCheck2.Gen.(triple nat nat (list_size (int_bound 4) (pair nat char)))
    (fun (which, cut, flips) ->
      let texts = Lazy.force workload_texts in
      let text = texts.(which mod Array.length texts) in
      let b = Bytes.of_string text in
      List.iter (fun (i, c) -> Bytes.set b (i mod Bytes.length b) c) flips;
      if flips <> [] then parses_soundly (Bytes.to_string b)
      else parses_soundly text && parses_soundly (String.sub text 0 (cut mod String.length text)))

let suite =
  [
    Alcotest.test_case "datalog ucq" `Quick test_datalog_ucq;
    Alcotest.test_case "datalog jucq" `Quick test_datalog_jucq;
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "tbox parse" `Quick test_tbox_parse;
    Alcotest.test_case "tbox roundtrip" `Quick test_tbox_roundtrip;
    Alcotest.test_case "tbox parse errors" `Quick test_tbox_parse_errors;
    Alcotest.test_case "query parse" `Quick test_query_parse;
    Alcotest.test_case "query roundtrip" `Quick test_query_roundtrip;
    Alcotest.test_case "query parse errors" `Quick test_query_parse_errors;
    Alcotest.test_case "parsed pipeline" `Quick test_parsed_pipeline;
    Alcotest.test_case "tbox file io" `Quick test_tbox_file_io;
    Alcotest.test_case "axiom rendering" `Quick test_axiom_to_text_forms;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_parse_random_bytes; prop_parse_query_shaped; prop_parse_mutated_workload ]
