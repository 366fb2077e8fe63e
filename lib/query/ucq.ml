type t = {
  arity : int;
  disjuncts : Cq.t list;
}

let make = function
  | [] -> invalid_arg "Ucq.make: empty union"
  | first :: _ as l ->
    let arity = Cq.arity first in
    List.iter
      (fun cq ->
        if Cq.arity cq <> arity then invalid_arg "Ucq.make: arity mismatch")
      l;
    { arity; disjuncts = l }

let of_cq cq = { arity = Cq.arity cq; disjuncts = [ cq ] }

let disjuncts u = u.disjuncts

let size u = List.length u.disjuncts

let arity u = u.arity

let total_atoms u =
  List.fold_left (fun n cq -> n + Cq.atom_count cq) 0 u.disjuncts

let dedup u =
  let seen = Hashtbl.create 64 in
  let keep cq =
    let key = Cq.key (Cq.canonicalize cq) in
    if Hashtbl.mem seen key then false
    else begin
      Hashtbl.add seen key ();
      true
    end
  in
  { u with disjuncts = List.filter keep u.disjuncts }

module SS = Set.Make (String)

let pred_set cq =
  List.fold_left (fun acc a -> SS.add (Atom.pred_name a) acc) SS.empty (Cq.atoms cq)

let minimize u =
  let u = { u with disjuncts = List.map Cq.minimize u.disjuncts } in
  let ds = Array.of_list (dedup u).disjuncts in
  let n = Array.length ds in
  let preds = Array.map pred_set ds in
  let dead = Array.make n false in
  (* d.(i) is dropped when it is contained in a surviving d.(j); among
     mutually equivalent disjuncts the smallest index survives. A
     homomorphism d.(j) → d.(i) requires the predicates of d.(j) to be
     a subset of those of d.(i), which prunes most pairs cheaply. *)
  for i = 0 to n - 1 do
    let j = ref 0 in
    while (not dead.(i)) && !j < n do
      if !j <> i && (not dead.(!j)) && SS.subset preds.(!j) preds.(i) then
        if Cq.contained_in ds.(i) ds.(!j) then
          if Cq.contained_in ds.(!j) ds.(i) && !j > i then () else dead.(i) <- true;
      incr j
    done
  done;
  let survivors = ref [] in
  for i = n - 1 downto 0 do
    if not dead.(i) then survivors := ds.(i) :: !survivors
  done;
  { u with disjuncts = !survivors }

let union u1 u2 =
  if u1.arity <> u2.arity then invalid_arg "Ucq.union: arity mismatch";
  { u1 with disjuncts = u1.disjuncts @ u2.disjuncts }

let pp ppf u =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:(Fmt.any "@,| ") Cq.pp) u.disjuncts
