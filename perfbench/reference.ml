(* The benchmark's answer oracle: certain answers of a CQ over a
   DL-LiteR knowledge base, computed by a depth-bounded restricted chase
   over hash-indexed facts and an index-driven backtracking matcher.

   It shares no reformulation, SQL, planning or execution code with the
   engine it checks. It exists beside [Dllite.Chase] because that chase
   scans a whole role to find an existential witness and matches atoms
   without indexes: about 100 s at 100k facts, against a few seconds
   here. At 5k facts every run cross-checks the two (see [agrees]). *)

module Roles = struct
  type t = {
    fwd : (int, int list) Hashtbl.t;  (* subject -> objects *)
    bwd : (int, int list) Hashtbl.t;  (* object -> subjects *)
    pairs : (int * int, unit) Hashtbl.t;
  }

  let create () =
    { fwd = Hashtbl.create 64; bwd = Hashtbl.create 64; pairs = Hashtbl.create 64 }

  let get tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k)
end

type t = {
  ids : (string, int) Hashtbl.t;  (* named individual -> id *)
  mutable names : string array;  (* id -> name, for named ids *)
  mutable n_named : int;
  mutable next_null : int;  (* nulls take ids from [null_base] up *)
  depth : (int, int) Hashtbl.t;  (* null -> chase depth; named are 0 *)
  concepts : (string, (int, unit) Hashtbl.t) Hashtbl.t;
  roles : (string, Roles.t) Hashtbl.t;
}

let null_base = 1 lsl 40

let concept_ext t a =
  match Hashtbl.find_opt t.concepts a with
  | Some s -> s
  | None ->
    let s = Hashtbl.create 64 in
    Hashtbl.replace t.concepts a s;
    s

let role_ext t p =
  match Hashtbl.find_opt t.roles p with
  | Some r -> r
  | None ->
    let r = Roles.create () in
    Hashtbl.replace t.roles p r;
    r

let intern t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
    let id = t.n_named in
    if id >= Array.length t.names then begin
      let bigger = Array.make (max 1024 (2 * id)) "" in
      Array.blit t.names 0 bigger 0 id;
      t.names <- bigger
    end;
    t.names.(id) <- name;
    t.n_named <- id + 1;
    Hashtbl.replace t.ids name id;
    id

type event =
  | Member of string * int
  | Edge of string * int * int

(* [B1 ⊑ B2] and [R1 ⊑ R2] indexed by what triggers them: a concept
   name, a role name read forwards ([∃P], [P ⊑ R]) or backwards
   ([∃P⁻], [P⁻ ⊑ R]). *)
type rules = {
  on_concept : (string, Dllite.Concept.t) Hashtbl.t;
  on_subject : (string, Dllite.Concept.t) Hashtbl.t;
  on_object : (string, Dllite.Concept.t) Hashtbl.t;
  role_fwd : (string, Dllite.Role.t) Hashtbl.t;
  role_bwd : (string, Dllite.Role.t) Hashtbl.t;
}

let rules_of tbox =
  let r =
    { on_concept = Hashtbl.create 64; on_subject = Hashtbl.create 64;
      on_object = Hashtbl.create 64; role_fwd = Hashtbl.create 64;
      role_bwd = Hashtbl.create 64 }
  in
  List.iter
    (function
      | Dllite.Axiom.Concept_sub (Dllite.Concept.Atomic a, b) -> Hashtbl.add r.on_concept a b
      | Dllite.Axiom.Concept_sub (Dllite.Concept.Exists (Dllite.Role.Named p), b) ->
        Hashtbl.add r.on_subject p b
      | Dllite.Axiom.Concept_sub (Dllite.Concept.Exists (Dllite.Role.Inverse p), b) ->
        Hashtbl.add r.on_object p b
      | Dllite.Axiom.Role_sub (Dllite.Role.Named p, s) -> Hashtbl.add r.role_fwd p s
      | Dllite.Axiom.Role_sub (Dllite.Role.Inverse p, s) -> Hashtbl.add r.role_bwd p s
      | Dllite.Axiom.Concept_disj _ | Dllite.Axiom.Role_disj _ -> ())
    (Dllite.Tbox.positive_axioms tbox);
  r

let chase tbox ~max_depth (facts : (string * string list) list) =
  let t =
    { ids = Hashtbl.create 4096; names = [||]; n_named = 0; next_null = null_base;
      depth = Hashtbl.create 1024; concepts = Hashtbl.create 64;
      roles = Hashtbl.create 64 }
  in
  let rules = rules_of tbox in
  let queue = Queue.create () in
  let add_member a x =
    let s = concept_ext t a in
    if not (Hashtbl.mem s x) then begin
      Hashtbl.replace s x ();
      Queue.push (Member (a, x)) queue
    end
  in
  let add_edge p x y =
    let r = role_ext t p in
    if not (Hashtbl.mem r.Roles.pairs (x, y)) then begin
      Hashtbl.replace r.Roles.pairs (x, y) ();
      Hashtbl.replace r.Roles.fwd x (y :: Roles.get r.Roles.fwd x);
      Hashtbl.replace r.Roles.bwd y (x :: Roles.get r.Roles.bwd y);
      Queue.push (Edge (p, x, y)) queue
    end
  in
  let add_role_fact role x y =
    match role with
    | Dllite.Role.Named p -> add_edge p x y
    | Dllite.Role.Inverse p -> add_edge p y x
  in
  let depth_of x = Option.value ~default:0 (Hashtbl.find_opt t.depth x) in
  let require x = function
    | Dllite.Concept.Atomic a -> add_member a x
    | Dllite.Concept.Exists role ->
      let witnesses =
        match role with
        | Dllite.Role.Named p -> (role_ext t p).Roles.fwd
        | Dllite.Role.Inverse p -> (role_ext t p).Roles.bwd
      in
      if (not (Hashtbl.mem witnesses x)) && depth_of x < max_depth then begin
        let n = t.next_null in
        t.next_null <- n + 1;
        Hashtbl.replace t.depth n (depth_of x + 1);
        add_role_fact role x n
      end
  in
  List.iter
    (fun (p, args) ->
      match args with
      | [ x ] -> add_member p (intern t x)
      | [ x; y ] -> add_edge p (intern t x) (intern t y)
      | _ -> invalid_arg "Reference.chase: arity")
    facts;
  while not (Queue.is_empty queue) do
    match Queue.pop queue with
    | Member (a, x) -> List.iter (require x) (Hashtbl.find_all rules.on_concept a)
    | Edge (p, x, y) ->
      List.iter (require x) (Hashtbl.find_all rules.on_subject p);
      List.iter (require y) (Hashtbl.find_all rules.on_object p);
      List.iter (fun s -> add_role_fact s x y) (Hashtbl.find_all rules.role_fwd p);
      List.iter (fun s -> add_role_fact s y x) (Hashtbl.find_all rules.role_bwd p)
  done;
  t

(* Backtracking over the atoms, always extending by the atom with the
   fewest candidates under the current binding. *)
let answers t (q : Query.Cq.t) =
  let vars =
    List.sort_uniq compare
      (List.concat_map
         (fun a -> List.filter_map Query.Term.var_name (Query.Atom.terms a))
         q.Query.Cq.body)
  in
  let slot = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace slot v i) vars;
  let binding = Array.make (List.length vars) (-1) in
  (* -1: unbound variable; -2: a constant absent from the data *)
  let value = function
    | Query.Term.Cst c -> Option.value ~default:(-2) (Hashtbl.find_opt t.ids c)
    | Query.Term.Var v -> binding.(Hashtbl.find slot v)
  in
  let concept a = Option.value ~default:(Hashtbl.create 1) (Hashtbl.find_opt t.concepts a) in
  let role p = Option.value ~default:(Roles.create ()) (Hashtbl.find_opt t.roles p) in
  let candidates atom =
    match atom with
    | Query.Atom.Ca (a, x) ->
      let v = value x in
      if v >= 0 || v = -2 then `Check (v >= 0 && Hashtbl.mem (concept a) v), 0
      else `Scan (Hashtbl.fold (fun k () acc -> [ k ] :: acc) (concept a) []), 1
    | Query.Atom.Ra (p, x, y) -> (
      let r = role p in
      match value x, value y with
      | -2, _ | _, -2 -> `Check false, 0
      | vx, vy when vx >= 0 && vy >= 0 -> `Check (Hashtbl.mem r.Roles.pairs (vx, vy)), 0
      | vx, _ when vx >= 0 -> `Scan (List.map (fun o -> [ o ]) (Roles.get r.Roles.fwd vx)), 2
      | _, vy when vy >= 0 -> `Scan (List.map (fun s -> [ s ]) (Roles.get r.Roles.bwd vy)), 3
      | _ -> `Scan (Hashtbl.fold (fun (s, o) () acc -> [ s; o ] :: acc) r.Roles.pairs []), 4)
  in
  let size atom =
    match atom with
    | Query.Atom.Ca (a, x) -> if value x = -1 then Hashtbl.length (concept a) else 0
    | Query.Atom.Ra (p, x, y) -> (
      let r = role p in
      match value x, value y with
      | -1, -1 -> Hashtbl.length r.Roles.pairs
      | -1, vy when vy >= 0 -> List.length (Roles.get r.Roles.bwd vy)
      | vx, -1 when vx >= 0 -> List.length (Roles.get r.Roles.fwd vx)
      | _ -> 0)
  in
  let bind_vars atom shape vals =
    (* the unbound variables the candidate fills, in term order *)
    let terms =
      match atom, shape with
      | Query.Atom.Ca (_, x), _ -> [ x ]
      | Query.Atom.Ra (_, _, y), 2 -> [ y ]
      | Query.Atom.Ra (_, x, _), 3 -> [ x ]
      | Query.Atom.Ra (_, x, y), _ -> [ x; y ]
    in
    let set = ref [] and ok = ref true in
    List.iter2
      (fun term v ->
        match term with
        | Query.Term.Var name ->
          let i = Hashtbl.find slot name in
          if binding.(i) = -1 then begin
            binding.(i) <- v;
            set := i :: !set
          end
          else if binding.(i) <> v then ok := false
        | Query.Term.Cst _ -> ok := false)
      terms vals;
    !ok, !set
  in
  let results = Hashtbl.create 256 in
  let rec search = function
    | [] ->
      let row = List.map value q.Query.Cq.head in
      if List.for_all (fun v -> v >= 0 && v < null_base) row then
        Hashtbl.replace results (List.map (fun v -> t.names.(v)) row) ()
    | atoms ->
      let best =
        List.fold_left
          (fun acc a -> match acc with Some b when size b <= size a -> acc | _ -> Some a)
          None atoms
        |> Option.get
      in
      let rest = List.filter (fun a -> a != best) atoms in
      (match candidates best with
       | `Check true, _ -> search rest
       | `Check false, _ -> ()
       | `Scan cands, shape ->
         List.iter
           (fun vals ->
             let ok, set = bind_vars best shape vals in
             if ok then search rest;
             List.iter (fun i -> binding.(i) <- -1) set)
           cands)
  in
  search q.Query.Cq.body;
  List.sort compare (Hashtbl.fold (fun row () acc -> row :: acc) results [])

let facts_of_abox abox =
  let dict = Dllite.Abox.dict abox in
  let name = Dllite.Dict.decode dict in
  List.concat_map
    (fun a -> Array.to_list (Array.map (fun x -> a, [ name x ]) (Dllite.Abox.concept_members abox a)))
    (Dllite.Abox.concept_names abox)
  @ List.concat_map
      (fun p ->
        Array.to_list (Array.map (fun (s, o) -> p, [ name s; name o ]) (Dllite.Abox.role_pairs abox p)))
      (Dllite.Abox.role_names abox)

(* Deep enough for every workload query: a match of an n-atom CQ in the
   canonical model uses null chains no longer than n. *)
let max_depth queries =
  2 + List.fold_left (fun m q -> max m (Query.Cq.atom_count q)) 0 queries

let certain_answers tbox facts queries =
  let t = chase tbox ~max_depth:(max_depth queries) facts in
  List.map (answers t) queries

(* The library oracle and this one must agree; run where the library
   chase is affordable. *)
let agrees tbox abox queries mine =
  List.for_all2 (fun q rows -> Dllite.Chase.certain_answers tbox abox q = rows) queries mine
