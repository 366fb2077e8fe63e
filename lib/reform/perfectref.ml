open Query

(* Backward application of a negation-free constraint to one atom
   (the [gr(g, I)] function of [13]). The produced atom set, per
   axiom, is at most one atom; fresh variables play the role of the
   unbound placeholder [⊥]. *)

let concept_as_atom lhs t =
  match lhs with
  | Dllite.Concept.Atomic a -> Atom.Ca (a, t)
  | Dllite.Concept.Exists (Dllite.Role.Named p) -> Atom.Ra (p, t, Cq.fresh_var ())
  | Dllite.Concept.Exists (Dllite.Role.Inverse p) -> Atom.Ra (p, Cq.fresh_var (), t)

let atom_specializations tbox q atom =
  let positives = Dllite.Tbox.positive_axioms tbox in
  match atom with
  | Atom.Ca (a, t) ->
    List.filter_map
      (function
        | Dllite.Axiom.Concept_sub (lhs, Dllite.Concept.Atomic a') when a' = a ->
          Some (concept_as_atom lhs t)
        | _ -> None)
      positives
  | Atom.Ra (p, t1, t2) ->
    let from_roles =
      List.filter_map
        (function
          | Dllite.Axiom.Role_sub (r1, r2) when Dllite.Role.name r2 = p ->
            let swap = Dllite.Role.is_inverse r2 in
            let s, o = if swap then t2, t1 else t1, t2 in
            Some
              (match r1 with
              | Dllite.Role.Named p' -> Atom.Ra (p', s, o)
              | Dllite.Role.Inverse p' -> Atom.Ra (p', o, s))
          | _ -> None)
        positives
    in
    let from_exists =
      let unbound2 = Cq.is_unbound_var q t2 and unbound1 = Cq.is_unbound_var q t1 in
      List.filter_map
        (function
          | Dllite.Axiom.Concept_sub (lhs, Dllite.Concept.Exists r)
            when Dllite.Role.name r = p ->
            if (not (Dllite.Role.is_inverse r)) && unbound2 then
              Some (concept_as_atom lhs t1)
            else if Dllite.Role.is_inverse r && unbound1 then
              Some (concept_as_atom lhs t2)
            else None
          | _ -> None)
        positives
    in
    from_roles @ from_exists

let replace_atom q i atom' =
  let body = List.mapi (fun j a -> if j = i then atom' else a) (Cq.atoms q) in
  Cq.make ~name:q.Cq.name ~head:q.Cq.head ~body ()

let specializations tbox q i =
  let atom = List.nth (Cq.atoms q) i in
  List.map (replace_atom q i) (atom_specializations tbox q atom)

let m_fixpoint_iterations =
  Obs.Metrics.counter
    ~help:"PerfectRef frontier CQs processed until fixpoint"
    "reform.fixpoint.iterations"

let m_cqs_generated =
  Obs.Metrics.counter
    ~help:"distinct CQs produced by PerfectRef (before minimisation)"
    "reform.cq.generated"

let m_cache_requests =
  Obs.Metrics.counter
    ~help:"reformulation-cache lookups (hits + misses)"
    "reform.cache.requests"

let m_cache_hits =
  Obs.Metrics.counter ~help:"reformulation-cache hits" "reform.cache.hits"

let reformulate_raw tbox q =
  let seen = Hashtbl.create 256 in
  let identity cq = Cq.key (Cq.canonicalize cq) in
  Hashtbl.add seen (identity q) ();
  let results = ref [ q ] in
  let frontier = Queue.create () in
  Queue.add q frontier;
  let push cq =
    let key = identity cq in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      let cq = Cq.canonicalize cq in
      results := cq :: !results;
      Queue.add cq frontier
    end
  in
  while not (Queue.is_empty frontier) do
    Obs.Metrics.incr m_fixpoint_iterations;
    let cur = Queue.pop frontier in
    let n = Cq.atom_count cur in
    (* atom specialisation steps *)
    for i = 0 to n - 1 do
      List.iter push (specializations tbox cur i)
    done;
    (* reduce steps: unify two atoms by their mgu *)
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        match Cq.reduce cur i j with
        | Some cq -> push cq
        | None -> ()
      done
    done
  done;
  Obs.Metrics.add m_cqs_generated (List.length !results);
  Ucq.make (List.rev !results)

(* {2 The fast fixpoint}

   Same BFS as {!reformulate_raw}, with the per-atom scan of the
   whole positive-axiom list replaced by a per-TBox index bucketing
   axioms by the predicate they rewrite. Bucket order preserves axiom
   order, so every accepted CQ and its order is identical to the raw
   fixpoint. *)

type spec_index = {
  by_concept : (string, Dllite.Axiom.t list) Hashtbl.t;
      (* axioms [lhs ⊑ A] keyed by [A] *)
  by_role : (string, Dllite.Axiom.t list) Hashtbl.t;
      (* axioms [r1 ⊑ r2] keyed by [name r2] *)
  by_exists : (string, Dllite.Axiom.t list) Hashtbl.t;
      (* axioms [lhs ⊑ ∃r] keyed by [name r] *)
}

let spec_index_build tbox =
  let by_concept = Hashtbl.create 64 in
  let by_role = Hashtbl.create 64 in
  let by_exists = Hashtbl.create 64 in
  let push tbl k ax =
    Hashtbl.replace tbl k (ax :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun ax ->
      match ax with
      | Dllite.Axiom.Concept_sub (_, Dllite.Concept.Atomic a) ->
        push by_concept a ax
      | Dllite.Axiom.Concept_sub (_, Dllite.Concept.Exists r) ->
        push by_exists (Dllite.Role.name r) ax
      | Dllite.Axiom.Role_sub (_, r2) -> push by_role (Dllite.Role.name r2) ax
      | _ -> ())
    (Dllite.Tbox.positive_axioms tbox);
  (* buckets were built by prepending: restore axiom order *)
  let rev tbl = Hashtbl.iter (fun k l -> Hashtbl.replace tbl k (List.rev l)) tbl in
  rev by_concept;
  rev by_role;
  rev by_exists;
  { by_concept; by_role; by_exists }

let spec_indexes : (int, spec_index) Hashtbl.t = Hashtbl.create 8

let spec_indexes_lock = Mutex.create ()

let spec_index_of tbox =
  let uid = Dllite.Tbox.uid tbox in
  Mutex.lock spec_indexes_lock;
  let cached = Hashtbl.find_opt spec_indexes uid in
  Mutex.unlock spec_indexes_lock;
  match cached with
  | Some idx -> idx
  | None ->
    let idx = spec_index_build tbox in
    Mutex.lock spec_indexes_lock;
    if Hashtbl.length spec_indexes >= 64 then Hashtbl.reset spec_indexes;
    if not (Hashtbl.mem spec_indexes uid) then Hashtbl.add spec_indexes uid idx;
    Mutex.unlock spec_indexes_lock;
    idx

let bucket tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k)

(* Identical output (list order included) to [atom_specializations]:
   each filter below runs over the bucket holding exactly the axioms
   the original [List.filter_map] would have accepted, in axiom
   order. *)
let atom_specializations_fast idx q atom =
  match atom with
  | Atom.Ca (a, t) ->
    List.filter_map
      (function
        | Dllite.Axiom.Concept_sub (lhs, Dllite.Concept.Atomic _) ->
          Some (concept_as_atom lhs t)
        | _ -> None)
      (bucket idx.by_concept a)
  | Atom.Ra (p, t1, t2) ->
    let from_roles =
      List.filter_map
        (function
          | Dllite.Axiom.Role_sub (r1, r2) ->
            let swap = Dllite.Role.is_inverse r2 in
            let s, o = if swap then t2, t1 else t1, t2 in
            Some
              (match r1 with
              | Dllite.Role.Named p' -> Atom.Ra (p', s, o)
              | Dllite.Role.Inverse p' -> Atom.Ra (p', o, s))
          | _ -> None)
        (bucket idx.by_role p)
    in
    let from_exists =
      let unbound2 = Cq.is_unbound_var q t2 and unbound1 = Cq.is_unbound_var q t1 in
      List.filter_map
        (function
          | Dllite.Axiom.Concept_sub (lhs, Dllite.Concept.Exists r) ->
            if (not (Dllite.Role.is_inverse r)) && unbound2 then
              Some (concept_as_atom lhs t1)
            else if Dllite.Role.is_inverse r && unbound1 then
              Some (concept_as_atom lhs t2)
            else None
          | _ -> None)
        (bucket idx.by_exists p)
    in
    from_roles @ from_exists

let reformulate_fixpoint tbox q =
  let idx = spec_index_of tbox in
  (* The seen-set is keyed by the key of the canonical form: string
     hashing stays uniform over thousands of structurally similar CQs,
     where the generic [Hashtbl.hash] on the CQ value itself samples
     too few nodes and degenerates to bucket scans. *)
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.add seen (Cq.key (Cq.canonicalize q)) ();
  let results = ref [ q ] in
  let frontier = Queue.create () in
  Queue.add q frontier;
  let push cq =
    let c = Cq.canonicalize cq in
    let key = Cq.key c in
    if Hashtbl.mem seen key then Obs.Metrics.incr Minimize.m_dedup_hits
    else begin
      Hashtbl.add seen key ();
      results := c :: !results;
      Queue.add c frontier
    end
  in
  let spec_push cur i atom =
    List.iter
      (fun atom' -> push (replace_atom cur i atom'))
      (atom_specializations_fast idx cur atom)
  in
  while not (Queue.is_empty frontier) do
    Obs.Metrics.incr m_fixpoint_iterations;
    let cur = Queue.pop frontier in
    let atoms = Array.of_list (Cq.atoms cur) in
    let n = Array.length atoms in
    for i = 0 to n - 1 do
      spec_push cur i atoms.(i)
    done;
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        match Cq.reduce cur i j with
        | Some cq -> push cq
        | None -> ()
      done
    done
  done;
  Obs.Metrics.add m_cqs_generated (List.length !results);
  Ucq.make (List.rev !results)

let reformulate tbox q = Minimize.minimize (reformulate_fixpoint tbox q)

let reformulate_naive tbox q = Ucq.minimize (reformulate_raw tbox q)

(* One bounded LRU for every TBox, keyed on the TBox uid stamp, the
   query name (the disjuncts carry it) and the query's key — uids make
   entries from dead TBoxes unreachable, and the LRU bound reclaims
   them under pressure. The cache is shared across domains (fragment
   reformulation fans out during cover search); [Cache.Lru] locks
   internally, the reformulation itself runs outside the lock, and a
   domain missing on a key another domain is computing waits for that
   result instead of computing it again. *)
let default_cache_capacity = 1024

let cache : (int * string * string, Ucq.t) Cache.Lru.t =
  Cache.Lru.create
    ~cost_of:(fun u -> Ucq.total_atoms u * 64)
    ~name:"reform" ~capacity:default_cache_capacity ()

let set_cache_capacity n = Cache.Lru.set_capacity cache n

let cache_stats () = Cache.Lru.stats cache

let clear_cache () = Cache.Lru.clear cache

let reformulate_cached tbox q =
  Obs.Metrics.incr m_cache_requests;
  let key = Dllite.Tbox.uid tbox, q.Cq.name, Cq.key q in
  let u, hit = Cache.Lru.find_or_compute cache key (fun () -> reformulate tbox q) in
  if hit then Obs.Metrics.incr m_cache_hits;
  u
