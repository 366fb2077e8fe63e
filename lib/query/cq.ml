type t = {
  name : string;
  head : Term.t list;
  body : Atom.t list;
}

let body_vars body =
  List.fold_left (fun acc a -> Term.Set.union acc (Atom.vars a)) Term.Set.empty body

let make ?(name = "q") ~head ~body () =
  if body = [] then invalid_arg "Cq.make: empty body";
  let bv = body_vars body in
  List.iter
    (fun t ->
      if Term.is_var t && not (Term.Set.mem t bv) then
        Fmt.invalid_arg "Cq.make: head variable %a not in body" Term.pp t)
    head;
  { name; head; body }

let arity q = List.length q.head

let atoms q = q.body

let atom_count q = List.length q.body

let vars q = body_vars q.body

let head_vars q =
  List.fold_left
    (fun acc t -> if Term.is_var t then Term.Set.add t acc else acc)
    Term.Set.empty q.head

let existential_vars q = Term.Set.diff (vars q) (head_vars q)

let is_head_var q v = Term.Set.mem (Term.Var v) (head_vars q)

let occurrence_count q t =
  List.fold_left
    (fun n a -> n + List.length (List.filter (Term.equal t) (Atom.terms a)))
    0 q.body

let is_unbound_var q t =
  Term.is_var t
  && (not (Term.Set.mem t (head_vars q)))
  && occurrence_count q t = 1

let is_connected q =
  match q.body with
  | [] -> false
  | first :: _ ->
    (* Breadth-first traversal of the atom graph, where two atoms are
       adjacent when they share a variable. *)
    let n = List.length q.body in
    let arr = Array.of_list q.body in
    let seen = Array.make n false in
    let rec grow frontier =
      match frontier with
      | [] -> ()
      | i :: rest ->
        let next = ref rest in
        for j = 0 to n - 1 do
          if (not seen.(j)) && Atom.shares_var arr.(i) arr.(j) then begin
            seen.(j) <- true;
            next := j :: !next
          end
        done;
        grow !next
    in
    ignore first;
    seen.(0) <- true;
    grow [ 0 ];
    Array.for_all Fun.id seen

let dedup_atoms body =
  let rec go acc = function
    | [] -> List.rev acc
    | a :: rest -> if List.exists (Atom.equal a) acc then go acc rest else go (a :: acc) rest
  in
  go [] body

let substitute s q =
  {
    q with
    head = List.map (Subst.apply s) q.head;
    body = dedup_atoms (List.map (Atom.substitute s) q.body);
  }

(* Atomic: fresh variables are drawn concurrently when reformulation
   fans out across domains. *)
let fresh_counter = Atomic.make 0

let fresh_var () =
  Term.Var (Printf.sprintf "_e%d" (Atomic.fetch_and_add fresh_counter 1 + 1))

let rename_apart ~avoid q =
  let clashes = Term.Set.inter (existential_vars q) avoid in
  if Term.Set.is_empty clashes then q
  else
    let s =
      Term.Set.fold
        (fun t acc ->
          match t with
          | Term.Var v -> Subst.bind v (fresh_var ()) acc
          | Term.Cst _ -> acc)
        clashes Subst.empty
    in
    substitute s q

let canonical_vars = Array.init 32 (fun i -> Term.Var ("_c" ^ string_of_int i))

let canonical_var i =
  if i < Array.length canonical_vars then canonical_vars.(i)
  else Term.Var ("_c" ^ string_of_int i)

(* One canonical-renaming pass over [q], whose head variables are [hv]:
   assign names _c0, _c1 … in order of first occurrence while scanning
   atoms sorted by a renaming-independent key, then sort the body
   syntactically. A name that is already a head variable is skipped,
   so that no existential is captured by (merged into) a head
   variable. *)
let canonicalize_pass hv q =
  (* The renaming-independent order: by predicate, then term by term
     constants (by name) before existentials (all alike) before head
     variables (by name), a concept atom before a role atom that ties
     with it on the first term. *)
  let rank t = if Term.is_cst t then 0 else if Term.Set.mem t hv then 2 else 1 in
  let compare_terms t u =
    let r = rank t in
    let c = Int.compare r (rank u) in
    if c <> 0 || r = 1 then c else String.compare (Term.to_string t) (Term.to_string u)
  in
  let compare_atoms a b =
    let c = String.compare (Atom.pred_name a) (Atom.pred_name b) in
    if c <> 0 then c
    else
      match a, b with
      | Atom.Ca (_, t), Atom.Ca (_, u) -> compare_terms t u
      | Atom.Ca (_, t), Atom.Ra (_, u, _) ->
        let c = compare_terms t u in
        if c <> 0 then c else -1
      | Atom.Ra (_, t, _), Atom.Ca (_, u) ->
        let c = compare_terms t u in
        if c <> 0 then c else 1
      | Atom.Ra (_, t1, t2), Atom.Ra (_, u1, u2) ->
        let c = compare_terms t1 u1 in
        if c <> 0 then c else compare_terms t2 u2
  in
  let sorted = List.stable_sort compare_atoms q.body in
  let mapping = ref [] in
  let next = ref 0 in
  let map_term t =
    match t with
    | Term.Cst _ -> t
    | Term.Var v ->
      if Term.Set.mem t hv then t
      else begin
        match List.assoc_opt v !mapping with
        | Some t' -> t'
        | None ->
          let rec fresh () =
            let t' = canonical_var !next in
            incr next;
            if Term.Set.mem t' hv then fresh () else t'
          in
          let t' = fresh () in
          mapping := (v, t') :: !mapping;
          t'
      end
  in
  let map_atom = function
    | Atom.Ca (p, t) -> Atom.Ca (p, map_term t)
    | Atom.Ra (p, t1, t2) -> Atom.Ra (p, map_term t1, map_term t2)
  in
  let body = List.map map_atom sorted in
  { q with body = List.sort Atom.compare (dedup_atoms body) }

(* The head's terms (tagged V/K) end where the first atom (tagged C/R)
   begins. *)
let key q =
  let buf = Buffer.create 256 in
  List.iter (Term.add_key buf) q.head;
  List.iter (Atom.add_key buf) q.body;
  Buffer.contents buf

let compare q1 q2 =
  let c = List.compare Term.compare q1.head q2.head in
  if c <> 0 then c else List.compare Atom.compare q1.body q2.body

let equal q1 q2 = compare q1 q2 = 0

(* On symmetric bodies (e.g. [R(u,v) ∧ R(v,u)]) and on chains
   (e.g. [R(u,v) ∧ R(v,w)]) a single pass is not idempotent: the name
   assignment can change on every application. Passes are therefore
   repeated until a form recurs; the forms from its first occurrence
   on are a cycle the pass maps onto itself, and the canonical form is
   the least of them (w.r.t. [compare]). Every form of that cycle
   leads back to the same cycle, so the result is a true fixpoint. A
   form the first pass leaves unchanged is its own cycle. *)
let canonicalize q =
  let hv = head_vars q in
  let least forms =
    List.fold_left (fun m f -> if compare f m < 0 then f else m) (List.hd forms) forms
  in
  (* [trajectory] is newest first *)
  let rec walk trajectory fuel =
    let next = canonicalize_pass hv (List.hd trajectory) in
    let rec cycle acc = function
      | [] -> None
      | f :: rest -> if equal f next then Some (f :: acc) else cycle (f :: acc) rest
    in
    match cycle [] trajectory with
    | Some forms -> least forms
    | None -> if fuel = 0 then least trajectory else walk (next :: trajectory) (fuel - 1)
  in
  let first = canonicalize_pass hv q in
  if equal first q then first else walk [ first ] 8

(* Extends [s] so that term [t1] of the source maps to term [t2] of the
   target; unlike unification, the target side is never bound. *)
let map_term_hom s t1 t2 =
  match t1 with
  | Term.Cst _ -> if Term.equal t1 t2 then Some s else None
  | Term.Var v -> (
    match Subst.find v s with
    | Some t -> if Term.equal t t2 then Some s else None
    | None -> Some (Subst.bind v t2 s))

(* Homomorphism search: map every atom of [from_q] onto some atom of
   [to_q], extending a substitution; the head must map elementwise. *)
let exists_hom ~from_q ~to_q =
  if List.length from_q.head <> List.length to_q.head then false
  else
    let init =
      List.fold_left2
        (fun acc t1 t2 ->
          match acc with
          | None -> None
          | Some s -> (
            match t1 with
            | Term.Cst _ -> if Term.equal (Subst.apply s t1) t2 then Some s else None
            | Term.Var v -> (
              match Subst.find v s with
              | Some t -> if Term.equal t t2 then Some s else None
              | None -> Some (Subst.bind v t2 s))))
        (Some Subst.empty) from_q.head to_q.head
    in
    match init with
    | None -> false
    | Some s0 ->
      let targets = Array.of_list to_q.body in
      let extend_atom s a target =
        match a, target with
        | Atom.Ca (p1, t1), Atom.Ca (p2, t2) when String.equal p1 p2 ->
          map_term_hom s t1 t2
        | Atom.Ra (p1, s1, o1), Atom.Ra (p2, s2, o2) when String.equal p1 p2 -> (
          match map_term_hom s s1 s2 with
          | None -> None
          | Some s' -> map_term_hom s' o1 o2)
        | _ -> None
      in
      let rec search s = function
        | [] -> true
        | a :: rest ->
          let n = Array.length targets in
          let rec try_target i =
            if i >= n then false
            else
              match extend_atom s a targets.(i) with
              | Some s' when search s' rest -> true
              | _ -> try_target (i + 1)
          in
          try_target 0
      in
      search s0 from_q.body

let contained_in q1 q2 = exists_hom ~from_q:q2 ~to_q:q1

let equivalent q1 q2 = contained_in q1 q2 && contained_in q2 q1

let minimize q =
  let drop_nth l n = List.filteri (fun i _ -> i <> n) l in
  let rec shrink q =
    let n = List.length q.body in
    if n <= 1 then q
    else
      let rec try_drop i =
        if i >= n then q
        else
          let body' = drop_nth q.body i in
          (* Dropping an atom relaxes the query: q ⊑ q' always holds.
             The drop preserves equivalence iff q' ⊑ q, i.e. there is a
             homomorphism from q into q'. *)
          let bv = body_vars body' in
          let head_safe = List.for_all (fun t -> Term.is_cst t || Term.Set.mem t bv) q.head in
          if head_safe then begin
            let q' = { q with body = body' } in
            if exists_hom ~from_q:q ~to_q:q' then shrink q' else try_drop (i + 1)
          end
          else try_drop (i + 1)
      in
      try_drop 0
  in
  shrink { q with body = dedup_atoms q.body }

let reduce q i j =
  let arr = Array.of_list q.body in
  if i < 0 || j < 0 || i >= Array.length arr || j >= Array.length arr || i = j then
    invalid_arg "Cq.reduce: bad atom indexes";
  match Atom.unify arr.(i) arr.(j) with
  | None -> None
  | Some s ->
    let q' = substitute s q in
    (* Keep head variable names stable: when a head variable was bound
       to a fresh existential variable, rename the image back. *)
    let hv = head_vars q in
    let repair =
      Term.Set.fold
        (fun t acc ->
          match t with
          | Term.Cst _ -> acc
          | Term.Var v -> (
            match Subst.apply s t with
            | Term.Var w
              when (not (String.equal v w)) && not (Term.Set.mem (Term.Var w) hv)
              -> (
              try Subst.bind w (Term.Var v) acc with Invalid_argument _ -> acc)
            | Term.Var _ | Term.Cst _ -> acc))
        hv Subst.empty
    in
    Some (if Subst.is_empty repair then q' else substitute repair q')

let pp ppf q =
  Fmt.pf ppf "%s(%a) <- %a" q.name
    (Fmt.list ~sep:(Fmt.any ",") Term.pp)
    q.head
    (Fmt.list ~sep:(Fmt.any " ^ ") Atom.pp)
    q.body

let to_string q = Fmt.str "%a" pp q
