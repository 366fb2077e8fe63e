open Query
open Fixtures

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* {1 Terms and substitutions} *)

let test_term_order () =
  check_bool "var before cst" true (Term.compare (v "z") (c "a") < 0);
  check_bool "same var equal" true (Term.equal (v "x") (v "x"));
  check_bool "var/cst differ" false (Term.equal (v "x") (c "x"))

let test_subst_apply () =
  let s = Subst.of_list [ "x", v "y"; "y", c "a" ] in
  Alcotest.(check string) "chases bindings" "a" (Term.to_string (Subst.apply s (v "x")));
  Alcotest.(check string) "constant fixed" "b" (Term.to_string (Subst.apply s (c "b")))

let test_subst_bind_conflict () =
  let s = Subst.singleton "x" (c "a") in
  Alcotest.check_raises "rebinding differs" (Invalid_argument "Subst.bind: x already bound")
    (fun () -> ignore (Subst.bind "x" (c "b") s))

let test_unify_terms () =
  check_bool "cst clash" true (Subst.unify_terms (c "a") (c "b") Subst.empty = None);
  match Subst.unify_terms (v "x") (c "a") Subst.empty with
  | None -> Alcotest.fail "expected unifier"
  | Some s -> Alcotest.(check string) "bound" "a" (Term.to_string (Subst.apply s (v "x")))

(* {1 Atoms} *)

let test_atom_unify () =
  check_bool "different predicates" true (Atom.unify (ca "A" (v "x")) (ca "B" (v "x")) = None);
  check_bool "role arity" true
    (Option.is_some (Atom.unify (ra "R" (v "x") (v "y")) (ra "R" (v "y") (v "z"))));
  check_bool "occurs fine" true
    (Option.is_some (Atom.unify (ra "R" (v "x") (v "x")) (ra "R" (v "y") (v "z"))))

let test_atom_shares_var () =
  check_bool "shares" true (Atom.shares_var (ca "A" (v "x")) (ra "R" (v "x") (v "y")));
  check_bool "no sharing" false (Atom.shares_var (ca "A" (v "x")) (ra "R" (v "z") (v "y")));
  check_bool "constants never share" false
    (Atom.shares_var (ca "A" (c "a")) (ca "B" (c "a")))

(* {1 CQs} *)

let q_xy body = Cq.make ~head:[ v "x"; v "y" ] ~body ()

let test_cq_make_unsafe () =
  Alcotest.check_raises "head var missing"
    (Invalid_argument "Cq.make: head variable z not in body") (fun () ->
      ignore (Cq.make ~head:[ v "z" ] ~body:[ ca "A" (v "x") ] ()))

let test_cq_make_empty () =
  Alcotest.check_raises "empty body" (Invalid_argument "Cq.make: empty body")
    (fun () -> ignore (Cq.make ~head:[] ~body:[] ()))

let test_cq_vars () =
  let q = q_xy [ ra "R" (v "x") (v "y"); ra "S" (v "y") (v "z") ] in
  check_int "vars" 3 (Term.Set.cardinal (Cq.vars q));
  check_int "head vars" 2 (Term.Set.cardinal (Cq.head_vars q));
  check_int "existential vars" 1 (Term.Set.cardinal (Cq.existential_vars q))

let test_cq_unbound () =
  let q =
    Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y"); ra "S" (v "x") (v "z") ] ()
  in
  check_bool "y unbound" true (Cq.is_unbound_var q (v "y"));
  check_bool "x bound (head)" false (Cq.is_unbound_var q (v "x"));
  let q2 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y"); ca "A" (v "y") ] () in
  check_bool "y shared" false (Cq.is_unbound_var q2 (v "y"))

let test_cq_connected () =
  let q = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y"); ca "A" (v "y") ] () in
  check_bool "chain connected" true (Cq.is_connected q);
  let q2 = Cq.make ~head:[ v "x" ] ~body:[ ca "A" (v "x"); ca "B" (v "z") ] () in
  check_bool "cartesian product" false (Cq.is_connected q2)

let test_cq_canonicalize_stable () =
  let q1 =
    Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "u"); ca "A" (v "u") ] ()
  in
  let q2 =
    Cq.make ~head:[ v "x" ] ~body:[ ca "A" (v "w"); ra "R" (v "x") (v "w") ] ()
  in
  check_bool "same canonical form" true (Cq.equal (Cq.canonicalize q1) (Cq.canonicalize q2));
  (* On a chain a single renaming pass moves the names on every
     application; the canonical form was once the first pass's output,
     which canonicalised to a second form. *)
  let chain =
    Cq.make ~head:[ v "x" ]
      ~body:[ ca "A" (v "x"); ra "R" (v "u") (v "w"); ra "R" (v "w") (v "z") ]
      ()
  in
  let c = Cq.canonicalize chain in
  check_bool "chain canonical form is a fixpoint" true (Cq.equal c (Cq.canonicalize c))

let test_cq_hom_containment () =
  (* q1(x) <- R(x,y) ^ A(y)  is contained in  q2(x) <- R(x,y). *)
  let q1 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y"); ca "A" (v "y") ] () in
  let q2 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y") ] () in
  check_bool "q1 in q2" true (Cq.contained_in q1 q2);
  check_bool "q2 not in q1" false (Cq.contained_in q2 q1)

let test_cq_hom_constants () =
  let q1 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (c "a") ] () in
  let q2 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y") ] () in
  check_bool "constant query more specific" true (Cq.contained_in q1 q2);
  check_bool "not conversely" false (Cq.contained_in q2 q1)

let test_cq_minimize () =
  (* R(x,y) ^ R(x,z) minimises to R(x,y). *)
  let q =
    Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y"); ra "R" (v "x") (v "z") ] ()
  in
  let m = Cq.minimize q in
  check_int "one atom left" 1 (Cq.atom_count m);
  check_bool "equivalent" true (Cq.equivalent q m);
  (* A core that cannot shrink. *)
  let q2 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y"); ca "A" (v "y") ] () in
  check_int "core stays" 2 (Cq.atom_count (Cq.minimize q2))

let test_cq_reduce () =
  let q =
    Cq.make ~head:[ v "x" ]
      ~body:[ ra "S" (v "x") (v "z"); ra "S" (v "y") (v "x") ] ()
  in
  match Cq.reduce q 0 1 with
  | None -> Alcotest.fail "atoms should unify"
  | Some q' ->
    check_int "single atom" 1 (Cq.atom_count q');
    (* the unification forces S(x,x) with the head preserved *)
    check_bool "head still x" true (List.equal Term.equal q'.Cq.head [ v "x" ]);
    check_bool "self loop" true (List.exists (Atom.equal (ra "S" (v "x") (v "x"))) (Cq.atoms q'))

let test_cq_reduce_no_unify () =
  let q = Cq.make ~head:[ v "x" ] ~body:[ ra "S" (v "x") (c "a"); ra "S" (c "b") (v "x") ] () in
  check_bool "constants clash" true (Cq.reduce q 0 1 = None)

(* {1 UCQs} *)

let test_ucq_minimize () =
  let d1 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y"); ca "A" (v "y") ] () in
  let d2 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y") ] () in
  let u = Ucq.make [ d1; d2 ] in
  let m = Ucq.minimize u in
  check_int "one disjunct" 1 (Ucq.size m);
  check_int "the general one" 1 (Cq.atom_count (List.hd (Ucq.disjuncts m)))

let test_ucq_dedup () =
  let d1 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y") ] () in
  let d2 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "z") ] () in
  check_int "alpha-equivalent disjuncts" 1 (Ucq.size (Ucq.dedup (Ucq.make [ d1; d2 ])))

let test_ucq_arity_mismatch () =
  let d1 = Cq.make ~head:[ v "x" ] ~body:[ ca "A" (v "x") ] () in
  let d2 = Cq.make ~head:[ v "x"; v "y" ] ~body:[ ra "R" (v "x") (v "y") ] () in
  Alcotest.check_raises "mismatch" (Invalid_argument "Ucq.make: arity mismatch")
    (fun () -> ignore (Ucq.make [ d1; d2 ]))

(* {1 FOL trees} *)

let test_fol_dialects () =
  let cq_a = Cq.make ~head:[ v "x" ] ~body:[ ca "A" (v "x") ] () in
  let cq_r = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y") ] () in
  let u = Ucq.make [ cq_a; cq_r ] in
  let leaf = Fol.of_ucq u in
  check_bool "leaf is ucq" true (Fol.is_ucq leaf);
  check_bool "leaf is single-atom scq" true (Fol.is_scq leaf);
  let join = Fol.join ~out:[ v "x" ] [ leaf; leaf ] in
  check_bool "join of ucqs is jucq" true (Fol.is_jucq join);
  check_bool "join of single-atom unions is scq" true (Fol.is_scq join);
  check_int "cq count" 4 (Fol.cq_count join);
  check_int "join width" 2 (Fol.join_width join)

let test_fol_join_validation () =
  let cq_a = Cq.make ~head:[ v "x" ] ~body:[ ca "A" (v "x") ] () in
  Alcotest.check_raises "output not produced"
    (Invalid_argument "Fol.join: output y in no part") (fun () ->
      ignore (Fol.join ~out:[ v "y" ] [ Fol.of_cq cq_a ]))

(* {1 Property-based tests} *)

let gen_term =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> v (Printf.sprintf "x%d" (i mod 4))) small_nat;
        map (fun i -> c (Printf.sprintf "a%d" (i mod 3))) small_nat;
      ])

let gen_atom =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun i t -> ca (Printf.sprintf "A%d" (i mod 3)) t) small_nat gen_term;
        map3
          (fun i t1 t2 -> ra (Printf.sprintf "R%d" (i mod 3)) t1 t2)
          small_nat gen_term gen_term;
      ])

(* A generator of safe random CQs: head = variables of the body. *)
let gen_cq =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    let* body = list_size (return n) gen_atom in
    let vars =
      Term.Set.elements
        (List.fold_left (fun acc a -> Term.Set.union acc (Atom.vars a)) Term.Set.empty body)
    in
    let head = match vars with [] -> [] | first :: _ -> [ first ] in
    if head = [] then
      return (Cq.make ~head:[] ~body ())
    else return (Cq.make ~head ~body ()))

let prop_canonicalize_idempotent =
  QCheck2.Test.make ~name:"canonicalize idempotent" ~count:200 gen_cq (fun q ->
      Cq.equal (Cq.canonicalize q) (Cq.canonicalize (Cq.canonicalize q)))

let prop_containment_reflexive =
  QCheck2.Test.make ~name:"containment reflexive" ~count:200 gen_cq (fun q ->
      Cq.contained_in q q)

let prop_minimize_equivalent =
  QCheck2.Test.make ~name:"minimize preserves equivalence" ~count:200 gen_cq (fun q ->
      Cq.equivalent q (Cq.minimize q))

let prop_dropping_atom_relaxes =
  QCheck2.Test.make ~name:"subquery contains superquery" ~count:200 gen_cq (fun q ->
      match Cq.atoms q with
      | [ _ ] | [] -> true
      | atoms ->
        let body' = List.tl atoms in
        let bv =
          List.fold_left (fun acc a -> Term.Set.union acc (Atom.vars a)) Term.Set.empty body'
        in
        let head_ok =
          List.for_all (fun t -> Term.is_cst t || Term.Set.mem t bv) q.Cq.head
        in
        (not head_ok)
        ||
        let q' = Cq.make ~head:q.Cq.head ~body:body' () in
        (* q has more constraints, hence is contained in q' *)
        Cq.contained_in q q')

let gen_atom_pair = QCheck2.Gen.pair gen_atom gen_atom

let prop_unify_produces_unifier =
  QCheck2.Test.make ~name:"mgu actually unifies" ~count:500 gen_atom_pair
    (fun (a1, a2) ->
      match Atom.unify a1 a2 with
      | None -> true
      | Some s -> Atom.equal (Atom.substitute s a1) (Atom.substitute s a2))

let prop_unify_symmetric =
  QCheck2.Test.make ~name:"unifiability is symmetric" ~count:500 gen_atom_pair
    (fun (a1, a2) ->
      Option.is_some (Atom.unify a1 a2) = Option.is_some (Atom.unify a2 a1))

let prop_containment_transitive =
  QCheck2.Test.make ~name:"containment transitive" ~count:100
    QCheck2.Gen.(triple gen_cq gen_cq gen_cq)
    (fun (q1, q2, q3) ->
      Cq.arity q1 <> Cq.arity q2 || Cq.arity q2 <> Cq.arity q3
      || (not (Cq.contained_in q1 q2 && Cq.contained_in q2 q3))
      || Cq.contained_in q1 q3)

let prop_canonicalize_preserves_equivalence =
  QCheck2.Test.make ~name:"canonicalize preserves equivalence" ~count:200 gen_cq
    (fun q -> Cq.equivalent q (Cq.canonicalize q))

let prop_minimize_canonicalize_commute_on_answers =
  QCheck2.Test.make ~name:"minimize of canonical still equivalent" ~count:200 gen_cq
    (fun q -> Cq.equivalent q (Cq.minimize (Cq.canonicalize q)))

let prop_ucq_minimize_keeps_maximal =
  QCheck2.Test.make ~name:"ucq minimize keeps a containing disjunct" ~count:100
    QCheck2.Gen.(pair gen_cq gen_cq)
    (fun (q1, q2) ->
      Cq.arity q1 <> Cq.arity q2
      ||
      let u = Ucq.make [ q1; q2 ] in
      let m = Ucq.minimize u in
      (* every dropped disjunct is contained in some survivor *)
      List.for_all
        (fun d ->
          List.exists (fun k -> Cq.contained_in d k) (Ucq.disjuncts m))
        (Ucq.disjuncts u))

(* {1 Query identity}

   [Cq.key], [Cq.canonicalize] and the executor's scan signature over a
   tiny alphabet in which variable names and constants overlap and
   contain the separators a printed key would use. Each property runs
   [identity_budget] cases. *)

let identity_budget = 10_000

let names = [ "x"; "a"; "c"; "_c0"; "_c1"; "a:b"; "b:c"; ":"; ","; "("; ")"; "?"; "!" ]

let gen_name = QCheck2.Gen.oneofl names

let gen_id_term =
  QCheck2.Gen.(oneof [ map (fun n -> v n) gen_name; map (fun n -> c n) gen_name ])

let gen_id_atom =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun p t -> ca p t) (oneofl [ "A"; "A:B" ]) gen_id_term;
        map3 (fun p t1 t2 -> ra p t1 t2) (oneofl [ "R"; "R(S" ]) gen_id_term gen_id_term;
      ])

(* Safe CQs: each head term is a body variable or a constant. *)
let gen_id_cq =
  QCheck2.Gen.(
    let* body = list_size (int_range 1 3) gen_id_atom in
    let vars =
      Term.Set.elements
        (List.fold_left (fun s a -> Term.Set.union s (Atom.vars a)) Term.Set.empty body)
    in
    let gen_head_term =
      if vars = [] then map c gen_name else oneof [ oneofl vars; map c gen_name ]
    in
    let* head = list_size (int_range 0 2) gen_head_term in
    return (Cq.make ~head ~body ()))

let map_atom f = function
  | Atom.Ca (p, t) -> Atom.Ca (p, f t)
  | Atom.Ra (p, t1, t2) -> Atom.Ra (p, f t1, f t2)

(* Pairs of unrelated CQs, equal CQs, and CQs one term apart: the
   term at a random position turned from a variable into the
   equally-named constant or back (kept safe by [Cq.make]). *)
let gen_cq_pair =
  QCheck2.Gen.(
    let flip = function Term.Var n -> c n | Term.Cst n -> v n in
    let flipped q i =
      let k = ref (-1) in
      let f t =
        incr k;
        if !k = i then flip t else t
      in
      let body = List.map (map_atom f) q.Cq.body in
      match Cq.make ~head:q.Cq.head ~body () with
      | q' -> q'
      | exception Invalid_argument _ -> q
    in
    oneof
      [
        pair gen_id_cq gen_id_cq;
        map (fun q -> q, q) gen_id_cq;
        map2 (fun q i -> q, flipped q i) gen_id_cq (int_bound 5);
      ])

let prop_key_injective =
  QCheck2.Test.make ~name:"Cq.key equal iff head and body equal" ~count:identity_budget
    gen_cq_pair
    (fun (a, b) ->
      let same =
        List.equal Term.equal a.Cq.head b.Cq.head && List.equal Atom.equal a.Cq.body b.Cq.body
      in
      Cq.key a = Cq.key b = same
      && Cq.key a = Cq.key (Cq.make ~name:"other" ~head:a.Cq.head ~body:a.Cq.body ()))

(* An alpha-renaming: the existential variables mapped injectively onto
   names that are not head variables. *)
let gen_alpha_renamed =
  QCheck2.Gen.(
    let* q = gen_id_cq in
    let ex = Term.Set.elements (Cq.existential_vars q) in
    let free =
      List.filter
        (fun n -> not (Term.Set.mem (v n) (Cq.head_vars q)))
        (names @ [ "y"; "z"; "w" ])
    in
    let* targets = shuffle_l free in
    let renaming =
      List.combine ex (List.filteri (fun i _ -> i < List.length ex) targets)
    in
    let rename t = match List.assoc_opt t renaming with Some n -> v n | None -> t in
    return (q, Cq.make ~head:q.Cq.head ~body:(List.map (map_atom rename) q.Cq.body) ()))

let prop_alpha_shares_key =
  QCheck2.Test.make ~name:"alpha-renamed copies and the canonical form share its key"
    ~count:identity_budget gen_alpha_renamed
    (fun (q, q') ->
      let k = Cq.key (Cq.canonicalize q) in
      k = Cq.key (Cq.canonicalize q') && k = Cq.key (Cq.canonicalize (Cq.canonicalize q)))

(* Every name of the alphabet as an individual, with self-loops, so
   that constants and repeated variables both select something. *)
let identity_abox =
  let rng = Random.State.make [| 11 |] in
  let pick () = List.nth names (Random.State.int rng (List.length names)) in
  Dllite.Abox.of_assertions
    ~concepts:(List.concat_map (fun p -> List.init 6 (fun _ -> p, pick ())) [ "A"; "A:B" ])
    ~roles:
      (List.concat_map
         (fun p ->
           List.init 12 (fun _ -> p, pick (), pick ())
           @ List.map (fun n -> p, n, n) [ "x"; "_c0" ])
         [ "R"; "R(S" ])

let prop_canonicalize_keeps_answers =
  QCheck2.Test.make ~name:"canonicalize keeps the answers" ~count:identity_budget gen_id_cq
    (fun q ->
      eval_fol identity_abox (Fol.of_cq q)
      = eval_fol identity_abox (Fol.of_cq (Cq.canonicalize q)))

(* Equality up to variable renaming, decided by building the renaming:
   a bijection between the two atoms' variables, identity on constants. *)
let alpha_equal_atoms a1 a2 =
  let rec go fwd bwd = function
    | [], [] -> true
    | Term.Cst k1 :: r1, Term.Cst k2 :: r2 -> String.equal k1 k2 && go fwd bwd (r1, r2)
    | Term.Var x :: r1, Term.Var y :: r2 -> (
      match List.assoc_opt x fwd, List.assoc_opt y bwd with
      | None, None -> go ((x, y) :: fwd) ((y, x) :: bwd) (r1, r2)
      | Some y', Some x' -> String.equal y y' && String.equal x x' && go fwd bwd (r1, r2)
      | _ -> false)
    | _ -> false
  in
  Atom.is_role a1 = Atom.is_role a2
  && String.equal (Atom.pred_name a1) (Atom.pred_name a2)
  && go [] [] (Atom.terms a1, Atom.terms a2)

(* Pairs of unrelated atoms, renamed copies, and role atoms whose two
   constants meet at a different [:] (["a"], ["b:c"] and ["a:b"],
   ["c"]), which a signature joining names with [:] confuses. *)
let gen_atom_pair_id =
  QCheck2.Gen.(
    let renamed a =
      map
        (fun n -> map_atom (function Term.Var x -> v (x ^ n) | t -> t) a)
        (oneofl [ "'"; "2" ])
    in
    let resplit a i =
      match a with
      | Atom.Ra (p, Term.Cst k1, Term.Cst k2) ->
        let s = k1 ^ ":" ^ k2 in
        let cuts =
          List.filter (fun j -> s.[j] = ':') (List.init (String.length s) Fun.id)
        in
        let j = List.nth cuts (i mod List.length cuts) in
        ra p (c (String.sub s 0 j)) (c (String.sub s (j + 1) (String.length s - j - 1)))
      | a -> a
    in
    oneof
      [
        pair gen_id_atom gen_id_atom;
        (let* a = gen_id_atom in
         map (fun a' -> a, a') (renamed a));
        map2 (fun a i -> a, resplit a i) gen_id_atom nat;
      ])

let prop_scan_signature =
  QCheck2.Test.make ~name:"scan signatures equal iff atoms equal up to renaming"
    ~count:identity_budget gen_atom_pair_id
    (fun (a1, a2) ->
      Rdbms.Exec.scan_signature a1 = Rdbms.Exec.scan_signature a2
      = alpha_equal_atoms a1 a2)

(* {1 Undoable union-find and the union-find unifier} *)

let test_unionfind_basic () =
  let uf = Unionfind.create () in
  let a = Unionfind.make uf and b = Unionfind.make uf and cc = Unionfind.make uf in
  check_int "dense ids" 2 cc;
  check_bool "fresh nodes distinct" false (Unionfind.equiv uf a b);
  check_bool "first union merges" true (Unionfind.union uf a b);
  check_bool "second union is a no-op" false (Unionfind.union uf b a);
  check_bool "merged" true (Unionfind.equiv uf a b);
  check_bool "third node untouched" false (Unionfind.equiv uf a cc);
  check_int "three nodes" 3 (Unionfind.count uf);
  check_bool "partition" true
    (List.sort compare (Unionfind.classes uf) = [ [ 0; 1 ]; [ 2 ] ])

let test_unionfind_compression () =
  (* A long chain of unions, then finds: path compression must leave
     every find stable and the class intact. Capacity 1 also exercises
     the growth path. *)
  let uf = Unionfind.create ~capacity:1 () in
  let nodes = List.init 40 (fun _ -> Unionfind.make uf) in
  List.iter (fun i -> if i > 0 then ignore (Unionfind.union uf (i - 1) i)) nodes;
  let roots = List.map (Unionfind.find uf) nodes in
  let r0 = List.hd roots in
  check_bool "single class, single root" true (List.for_all (Int.equal r0) roots);
  List.iter
    (fun i -> check_int "find stable after compression" r0 (Unionfind.find uf i))
    nodes;
  check_int "one class" 1 (List.length (Unionfind.classes uf))

let test_unionfind_rollback () =
  let uf = Unionfind.create () in
  let a = Unionfind.make uf and b = Unionfind.make uf in
  ignore (Unionfind.union uf a b);
  let snap = Unionfind.snapshot uf in
  let c' = Unionfind.make uf and d = Unionfind.make uf in
  ignore (Unionfind.union uf c' d);
  ignore (Unionfind.union uf a c');
  (* a deep find, so compression writes land on the trail too *)
  ignore (Unionfind.find uf d);
  check_bool "all merged" true (Unionfind.equiv uf b d);
  Unionfind.rollback uf snap;
  check_int "post-snapshot nodes discarded" 2 (Unionfind.count uf);
  check_bool "pre-snapshot union survives" true (Unionfind.equiv uf a b);
  let e = Unionfind.make uf in
  check_int "ids restart where the snapshot left them" 2 e;
  check_bool "fresh node separate" false (Unionfind.equiv uf a e);
  ignore (Unionfind.union uf a e);
  Unionfind.rollback uf snap;
  check_int "rollback twice to the same mark" 2 (Unionfind.count uf)

(* The union-find unifier must decide and substitute exactly like
   folding [Subst.unify_terms] — [Atom.unify] and [Cq.reduce] sit on
   top of it. *)
let test_unifier_matches_unify_terms () =
  let rng = Random.State.make [| 90125 |] in
  let random_term () =
    if Random.State.int rng 3 = 0 then c (Printf.sprintf "k%d" (Random.State.int rng 3))
    else v (Printf.sprintf "x%d" (Random.State.int rng 4))
  in
  for _ = 1 to 500 do
    let pairs =
      List.init (1 + Random.State.int rng 5) (fun _ -> random_term (), random_term ())
    in
    let naive =
      List.fold_left
        (fun acc (t1, t2) -> Option.bind acc (Subst.unify_terms t1 t2))
        (Some Subst.empty) pairs
    in
    let u = Subst.Unifier.create () in
    let ok = List.for_all (fun (t1, t2) -> Subst.Unifier.unify u t1 t2) pairs in
    match naive, ok with
    | None, false -> check_bool "both reject" true (not (Subst.Unifier.is_consistent u))
    | Some s, true ->
      check_bool "same substitution" true
        (Subst.bindings s = Subst.bindings (Subst.Unifier.to_subst u))
    | Some _, false -> Alcotest.fail "unifier rejected a unifiable pair list"
    | None, true -> Alcotest.fail "unifier accepted a non-unifiable pair list"
  done

let test_unifier_constant_conflict () =
  let u = Subst.Unifier.create () in
  check_bool "x~a" true (Subst.Unifier.unify u (v "x") (c "a"));
  check_bool "y~x propagates a" true (Subst.Unifier.unify u (v "y") (v "x"));
  check_bool "rep y is a" true (Term.equal (Subst.Unifier.representative u (v "y")) (c "a"));
  check_bool "y~b clashes through the class" false (Subst.Unifier.unify u (v "y") (c "b"));
  check_bool "inconsistent" false (Subst.Unifier.is_consistent u);
  check_bool "to_subst refuses" true
    (match Subst.Unifier.to_subst u with
    | (_ : Subst.t) -> false
    | exception Invalid_argument _ -> true)

let test_unifier_rollback () =
  let u = Subst.Unifier.create () in
  check_bool "x~y" true (Subst.Unifier.unify u (v "x") (v "y"));
  let snap = Subst.Unifier.snapshot u in
  check_bool "y~a" true (Subst.Unifier.unify u (v "y") (c "a"));
  check_bool "constant reaches x" true
    (Term.equal (Subst.Unifier.representative u (v "x")) (c "a"));
  check_bool "x~b conflicts" false (Subst.Unifier.unify u (v "x") (c "b"));
  Subst.Unifier.rollback u snap;
  check_bool "consistent again" true (Subst.Unifier.is_consistent u);
  check_bool "x~y survives the rollback" true (Subst.Unifier.equiv u (v "x") (v "y"));
  check_bool "binding to a undone" false
    (Term.equal (Subst.Unifier.representative u (v "x")) (c "a"));
  (* and the unifier keeps working: the other constant now binds fine *)
  check_bool "x~b accepted after rollback" true (Subst.Unifier.unify u (v "x") (c "b"));
  let s = Subst.Unifier.to_subst u in
  check_bool "apply x = b" true (Term.equal (Subst.apply s (v "x")) (c "b"));
  check_bool "apply y = b" true (Term.equal (Subst.apply s (v "y")) (c "b"))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_canonicalize_idempotent;
      prop_containment_reflexive;
      prop_minimize_equivalent;
      prop_dropping_atom_relaxes;
      prop_unify_produces_unifier;
      prop_unify_symmetric;
      prop_containment_transitive;
      prop_canonicalize_preserves_equivalence;
      prop_minimize_canonicalize_commute_on_answers;
      prop_ucq_minimize_keeps_maximal;
      prop_key_injective;
      prop_alpha_shares_key;
      prop_canonicalize_keeps_answers;
      prop_scan_signature;
    ]

let suite =
  [
    Alcotest.test_case "term order" `Quick test_term_order;
    Alcotest.test_case "subst apply" `Quick test_subst_apply;
    Alcotest.test_case "subst bind conflict" `Quick test_subst_bind_conflict;
    Alcotest.test_case "unify terms" `Quick test_unify_terms;
    Alcotest.test_case "atom unify" `Quick test_atom_unify;
    Alcotest.test_case "atom shares var" `Quick test_atom_shares_var;
    Alcotest.test_case "cq unsafe head" `Quick test_cq_make_unsafe;
    Alcotest.test_case "cq empty body" `Quick test_cq_make_empty;
    Alcotest.test_case "cq vars" `Quick test_cq_vars;
    Alcotest.test_case "cq unbound vars" `Quick test_cq_unbound;
    Alcotest.test_case "cq connectivity" `Quick test_cq_connected;
    Alcotest.test_case "cq canonical form" `Quick test_cq_canonicalize_stable;
    Alcotest.test_case "cq hom containment" `Quick test_cq_hom_containment;
    Alcotest.test_case "cq hom constants" `Quick test_cq_hom_constants;
    Alcotest.test_case "cq minimize" `Quick test_cq_minimize;
    Alcotest.test_case "cq reduce" `Quick test_cq_reduce;
    Alcotest.test_case "cq reduce clash" `Quick test_cq_reduce_no_unify;
    Alcotest.test_case "ucq minimize" `Quick test_ucq_minimize;
    Alcotest.test_case "ucq dedup" `Quick test_ucq_dedup;
    Alcotest.test_case "ucq arity" `Quick test_ucq_arity_mismatch;
    Alcotest.test_case "fol dialects" `Quick test_fol_dialects;
    Alcotest.test_case "fol join validation" `Quick test_fol_join_validation;
    Alcotest.test_case "unionfind basic" `Quick test_unionfind_basic;
    Alcotest.test_case "unionfind compression" `Quick test_unionfind_compression;
    Alcotest.test_case "unionfind rollback" `Quick test_unionfind_rollback;
    Alcotest.test_case "unifier = unify_terms" `Quick test_unifier_matches_unify_terms;
    Alcotest.test_case "unifier constant clash" `Quick test_unifier_constant_conflict;
    Alcotest.test_case "unifier rollback" `Quick test_unifier_rollback;
  ]
  @ props
