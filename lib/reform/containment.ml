open Query

let frozen_name t =
  match t with
  | Term.Var v -> "_frozen_" ^ v
  | Term.Cst c -> c

let freeze (q : Cq.t) =
  let abox = Dllite.Abox.create () in
  List.iter
    (fun atom ->
      match atom with
      | Atom.Ca (p, t) -> Dllite.Abox.add_concept abox ~concept:p ~ind:(frozen_name t)
      | Atom.Ra (p, t1, t2) ->
        Dllite.Abox.add_role abox ~role:p ~subj:(frozen_name t1)
          ~obj:(frozen_name t2))
    (Cq.atoms q);
  abox, List.map frozen_name q.Cq.head

let contained_in_raw tbox q1 q2 =
  if Cq.arity q1 <> Cq.arity q2 then
    invalid_arg "Containment.contained_in: arity mismatch";
  let abox, head = freeze q1 in
  let answers = Dllite.Chase.certain_answers tbox abox q2 in
  List.mem head answers

(* TBox-relative containment chases the frozen body — expensive, and
   the same (tbox, q1, q2) triple recurs whenever reformulations of
   overlapping fragments are compared. Verdicts are memoised in a
   bounded LRU keyed by TBox uid and the keys of both sides' canonical
   forms, so alpha-equivalent queries share an entry. *)
let cache : (int * string * string, bool) Cache.Lru.t =
  Cache.Lru.create ~name:"containment" ~capacity:4096 ()

let clear_cache () = Cache.Lru.clear cache

let contained_in tbox q1 q2 =
  if Cq.arity q1 <> Cq.arity q2 then
    invalid_arg "Containment.contained_in: arity mismatch";
  let key q = Cq.key (Cq.canonicalize q) in
  fst
    (Cache.Lru.find_or_compute cache
       (Dllite.Tbox.uid tbox, key q1, key q2)
       (fun () -> contained_in_raw tbox q1 q2))

let equivalent tbox q1 q2 = contained_in tbox q1 q2 && contained_in tbox q2 q1
