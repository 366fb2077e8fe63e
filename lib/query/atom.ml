type t =
  | Ca of string * Term.t
  | Ra of string * Term.t * Term.t

let pred_name = function Ca (p, _) -> p | Ra (p, _, _) -> p

let is_role = function Ca _ -> false | Ra _ -> true

let terms = function Ca (_, t) -> [ t ] | Ra (_, t1, t2) -> [ t1; t2 ]

let vars a =
  List.fold_left
    (fun acc t -> if Term.is_var t then Term.Set.add t acc else acc)
    Term.Set.empty (terms a)

let arity = function Ca _ -> 1 | Ra _ -> 2

let substitute s = function
  | Ca (p, t) -> Ca (p, Subst.apply s t)
  | Ra (p, t1, t2) -> Ra (p, Subst.apply s t1, Subst.apply s t2)

let compare a1 a2 =
  match a1, a2 with
  | Ca (p1, t1), Ca (p2, t2) ->
    let c = String.compare p1 p2 in
    if c <> 0 then c else Term.compare t1 t2
  | Ra (p1, s1, o1), Ra (p2, s2, o2) ->
    let c = String.compare p1 p2 in
    if c <> 0 then c
    else
      let c = Term.compare s1 s2 in
      if c <> 0 then c else Term.compare o1 o2
  | Ca _, Ra _ -> -1
  | Ra _, Ca _ -> 1

let equal a1 a2 = compare a1 a2 = 0

let pp ppf = function
  | Ca (p, t) -> Fmt.pf ppf "%s(%a)" p Term.pp t
  | Ra (p, t1, t2) -> Fmt.pf ppf "%s(%a,%a)" p Term.pp t1 Term.pp t2

let to_string a = Fmt.str "%a" pp a

let add_key buf = function
  | Ca (p, t) ->
    Buffer.add_char buf 'C';
    Term.add_string buf p;
    Term.add_key buf t
  | Ra (p, t1, t2) ->
    Buffer.add_char buf 'R';
    Term.add_string buf p;
    Term.add_key buf t1;
    Term.add_key buf t2

(* Unification runs on the union-find unifier: term pairs union their
   classes (constant conflicts abort) and the accumulated triangular
   substitution is read back at the end — the result is identical to
   folding [Subst.unify_terms] over the term pairs. *)
let unify a1 a2 =
  match a1, a2 with
  | Ca (p1, t1), Ca (p2, t2) when String.equal p1 p2 ->
    let u = Subst.Unifier.create () in
    if Subst.Unifier.unify u t1 t2 then Some (Subst.Unifier.to_subst u) else None
  | Ra (p1, s1, o1), Ra (p2, s2, o2) when String.equal p1 p2 ->
    let u = Subst.Unifier.create () in
    if Subst.Unifier.unify u s1 s2 && Subst.Unifier.unify u o1 o2 then
      Some (Subst.Unifier.to_subst u)
    else None
  | _ -> None

let shares_var a1 a2 = not (Term.Set.disjoint (vars a1) (vars a2))
