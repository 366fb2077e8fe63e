open Query

type config = {
  scan_cache : bool;
  build_cache : bool;
}

let postgres_like = { scan_cache = false; build_cache = false }

let db2_like = { scan_cache = true; build_cache = true }

(* Counters are atomic: the arms of a [Union] node evaluate on
   separate domains and bump them concurrently. Every scan/build
   request increments exactly one of (performed, hit), so
   performed + hit always equals the number of requests. *)
type counters = {
  scans : int Atomic.t;
  scan_hits : int Atomic.t;
  builds : int Atomic.t;
  build_hits : int Atomic.t;
}

(* Registry metrics alongside the per-run counters: request and hit
   totals are deterministic at any job count (each request bumps
   exactly one of performed/hit, the set of requests is fixed by the
   plan, and the run caches are single-flight). *)
let m_scan_requests =
  Obs.Metrics.counter ~help:"atom scans requested (performed + cache hits)"
    "exec.scan.requests"

let m_scan_hits =
  Obs.Metrics.counter ~help:"atom scans served from the scan cache"
    "exec.scan.cache_hits"

let m_build_requests =
  Obs.Metrics.counter ~help:"join build tables requested (built + cache hits)"
    "exec.build.requests"

let m_build_hits =
  Obs.Metrics.counter ~help:"join build tables served from the build cache"
    "exec.build.cache_hits"

let m_union_arms =
  Obs.Metrics.counter ~help:"union arms evaluated" "exec.union.arms"

(* Sideways information passing: reducers built, rows their filters
   dropped, union arms never opened because a reducer proved them
   empty. All three are deterministic at any job count (reducers and
   elision decisions are functions of plan + data). *)
let m_sip_reducers =
  Obs.Metrics.counter ~help:"semijoin reducers built for sideways passing"
    "sip.reducers"

let m_sip_pruned =
  Obs.Metrics.counter ~help:"rows pruned by sideways reducer filters"
    "sip.rows_pruned"

let m_sip_elided =
  Obs.Metrics.counter ~help:"union arms elided as provably empty under a reducer"
    "sip.arms_elided"

let fresh_counters () =
  {
    scans = Atomic.make 0;
    scan_hits = Atomic.make 0;
    builds = Atomic.make 0;
    build_hits = Atomic.make 0;
  }

(* Keys carry the fragment's read set alongside the injective
   structural key, so an update can drop exactly the views that read a
   touched predicate and keep the rest warm. *)
type view_store = (string list * string, Relation.t) Cache.Lru.t

let default_view_capacity = 256

(* The LRU stores charge the exact byte footprint of the columnar
   storage ({!Relation.bytes}) — no more per-row overhead guessing. *)
let fresh_view_store ?(capacity = default_view_capacity) () : view_store =
  Cache.Lru.create ~cost_of:Relation.bytes ~name:"views" ~capacity ()

let view_key p = Plan.predicates p, Plan.structural_key p

let invalidate_views (store : view_store) touched =
  match touched with
  | [] -> 0
  | _ ->
    Cache.Lru.invalidate_if store (fun (preds, _) ->
        List.exists (fun p -> List.mem p touched) preds)

(* The per-run scan/build caches are bounded too, with a capacity
   generous enough that all arms of one reformulated union share their
   scans — the bound only matters as a memory backstop on adversarial
   plans. *)
let default_run_cache_capacity = 4096

let run_cache_capacity = Atomic.make default_run_cache_capacity

let set_run_cache_capacity n = Atomic.set run_cache_capacity n

type cache_outcome =
  | Hit
  | Miss
  | Uncached

type node_stats = {
  plan : Plan.t;
  actual_rows : int;
  elapsed_ns : int64;
  cache : cache_outcome;
  sip_pruned : int;  (* rows dropped by reducer filters at this node *)
  sip_elided : int;  (* union arms this node never opened *)
  sip_reducer : string option;  (* reducer kind built at this join *)
  children : node_stats list;
}

(* The EXPLAIN ANALYZE accumulator of one operator. *)
type acc = {
  a_plan : Plan.t;
  a_t0 : int64;  (* when the node started compiling *)
  mutable a_rows : int;
  mutable a_ns : int64;
  mutable a_cache : cache_outcome;
  mutable a_pruned : int;
  mutable a_elided : int;
  mutable a_reducer : string option;
  mutable a_children : acc list;  (* most recently adopted first *)
}

(* What a run records per operator: nothing, or an accumulator. *)
type _ mode =
  | Plain : unit mode
  | Analyzed : acc mode

type 'n ctx = {
  mode : 'n mode;
  layout : Layout.t;
  config : config;
  counters : counters;
  scans : (string, Relation.t) Cache.Lru.t;  (* canonical scan results *)
  builds : (string, Relation.build_table) Cache.Lru.t;
  views : view_store option;  (* cross-query materialised fragments *)
  jobs : int;  (* parallelism for union arms; 1 = sequential *)
  sip_memo : (string, bool) Hashtbl.t;
      (* (reducer id, stored column) -> does the reducer intersect it?
         Shared across the arms of one run; mutex-protected because
         nested unions can run the emptiness test on pool domains. *)
  sip_lock : Mutex.t;
}

let fresh_run_caches () =
  let capacity = Atomic.get run_cache_capacity in
  ( Cache.Lru.create ~cost_of:Relation.bytes ~name:"exec.scan" ~capacity (),
    Cache.Lru.create ~name:"exec.build" ~capacity () )

(* A scan signature independent of variable names, so that R(x,y) in
   one union arm and R(u,v) in another share the same cached result. *)
let scan_signature atom =
  match atom with
  | Atom.Ca (p, Term.Var _) -> Printf.sprintf "c:%s:V" p
  | Atom.Ca (p, Term.Cst k) -> Printf.sprintf "c:%s:K:%s" p k
  | Atom.Ra (p, Term.Var v1, Term.Var v2) ->
    if v1 = v2 then Printf.sprintf "r:%s:VS" p else Printf.sprintf "r:%s:VV" p
  | Atom.Ra (p, Term.Var _, Term.Cst k) -> Printf.sprintf "r:%s:VK:%s" p k
  | Atom.Ra (p, Term.Cst k, Term.Var _) -> Printf.sprintf "r:%s:KV:%s" p k
  | Atom.Ra (p, Term.Cst k1, Term.Cst k2) -> Printf.sprintf "r:%s:KK:%s:%s" p k1 k2

(* Canonical scan: output columns are position markers $0, $1. The
   results are columnar views of the storage layer — on the simple
   layout the column arrays alias the table's own lazily-split
   projections, so a full role or concept scan copies nothing. *)
let scan_canonical ctx atom =
  let layout = ctx.layout in
  let dict = Layout.dict layout in
  let code k = Dllite.Dict.find dict k in
  match atom with
  | Atom.Ca (p, Term.Var _) ->
    Relation.of_columns ~cols:[ "$0" ] [| Layout.concept_rows layout p |]
  | Atom.Ca (p, Term.Cst k) -> (
    match code k with
    | None -> Relation.boolean false
    | Some c -> Relation.boolean (Layout.concept_mem layout p c))
  | Atom.Ra (p, Term.Var v1, Term.Var v2) ->
    let subs, objs = Layout.role_cols layout p in
    if v1 = v2 then begin
      (* self-loop R(x,x): keep the subjects whose object equals them *)
      let keep = Ibuf.create () in
      for i = 0 to Array.length subs - 1 do
        if subs.(i) = objs.(i) then Ibuf.push keep subs.(i)
      done;
      Relation.of_columns ~cols:[ "$0" ] [| Ibuf.to_array keep |]
    end
    else Relation.of_columns ~cols:[ "$0"; "$1" ] [| subs; objs |]
  | Atom.Ra (p, Term.Var _, Term.Cst k) -> (
    match code k with
    | None -> Relation.empty ~cols:[ "$0" ]
    | Some c ->
      let pairs = Layout.role_lookup_object_arr layout p c in
      Relation.of_columns ~cols:[ "$0" ] [| Array.map fst pairs |])
  | Atom.Ra (p, Term.Cst k, Term.Var _) -> (
    match code k with
    | None -> Relation.empty ~cols:[ "$0" ]
    | Some c ->
      let pairs = Layout.role_lookup_subject_arr layout p c in
      Relation.of_columns ~cols:[ "$0" ] [| Array.map snd pairs |])
  | Atom.Ra (p, Term.Cst k1, Term.Cst k2) -> (
    match code k1, code k2 with
    | Some c1, Some c2 ->
      Relation.boolean
        (Array.exists (fun (_, o) -> o = c2) (Layout.role_lookup_subject_arr layout p c1))
    | _ -> Relation.boolean false)

(* The caches model DB2's buffer-locality support for repeated scans
   ([21]): on the simple layout a repeated scan re-reads the same
   pages, so sharing the extracted relation is fair. On the RDF layout
   a role scan probes every predicate column of every DPH row — CPU
   work the engine performs again for every union arm (no CSE across
   union terms, as the paper verifies) — so role accesses are never
   cached there. *)
let cacheable ctx atom =
  match ctx.layout with
  | Layout.Simple _ -> true
  | Layout.Rdf _ -> not (Query.Atom.is_role atom)

(* Each request bumps exactly one counter. Under parallelism the caches
   are single-flight ({!Cache.Lru.find_or_compute}): arms missing on
   the same signature together compute it once, and the others wait
   and count as hits, so hits and performed scans stay as they are
   sequentially. *)
let scan_cached ctx atom =
  Obs.Metrics.incr m_scan_requests;
  let compute () =
    Atomic.incr ctx.counters.scans;
    scan_canonical ctx atom
  in
  if ctx.config.scan_cache && cacheable ctx atom then
    match Cache.Lru.find_or_compute ctx.scans (scan_signature atom) compute with
    | r, true ->
      Atomic.incr ctx.counters.scan_hits;
      Obs.Metrics.incr m_scan_hits;
      r, Hit
    | r, false -> r, Miss
  else compute (), Uncached

let scan ctx atom =
  let canonical, outcome = scan_cached ctx atom in
  let cols = Array.of_list (Plan.scan_cols atom) in
  { canonical with Relation.cols }, outcome

(* Build-side sharing: when the build side is a base scan, key the
   build table on the scan signature and the canonical positions of the
   join columns. Payload columns named $i come from the canonical scan
   and become the atom's actual variable at position i. *)
let payload_rename actual_cols c =
  if String.length c > 1 && c.[0] = '$' then
    actual_cols.(int_of_string (String.sub c 1 (String.length c - 1)))
  else c

(* A cached (or freshly built) build table for a base-scan build side,
   plus the rename mapping its canonical payload columns back to the
   atom's variables. The probe over it pipelines: the build is the
   only materialisation point. The stored table is always built from
   the {e unfiltered} canonical scan — sideways reducers must never
   leak into a cache entry keyed without them. *)
let build_cached ctx atom on =
  let actual_cols = Array.of_list (Plan.scan_cols atom) in
  let position_of c =
    let rec find i =
      if i >= Array.length actual_cols then raise Not_found
      else if actual_cols.(i) = c then i
      else find (i + 1)
    in
    find 0
  in
  let positions = List.map position_of on in
  let key =
    scan_signature atom ^ ":on:" ^ String.concat "," (List.map string_of_int positions)
  in
  Obs.Metrics.incr m_build_requests;
  let compute () =
    Atomic.incr ctx.counters.builds;
    let canonical, _ = scan_cached ctx atom in
    Relation.build canonical ~on:(List.map (fun p -> "$" ^ string_of_int p) positions)
  in
  let build, outcome =
    if cacheable ctx atom then
      match Cache.Lru.find_or_compute ctx.builds key compute with
      | b, true ->
        Atomic.incr ctx.counters.build_hits;
        Obs.Metrics.incr m_build_hits;
        b, Hit
      | b, false -> b, Miss
    else compute (), Uncached
  in
  build, outcome, payload_rename actual_cols

let build_key_count (b : Relation.build_table) =
  match b.Relation.table with
  | Relation.Single tbl -> Hashtbl.length tbl
  | Relation.Multi tbl -> Hashtbl.length tbl

(* Index nested loop over a role atom: pipelined — every batch of the
   left stream probes the index on the side named by [probe_col]. *)
let index_join_op ctx left_op atom probe_col =
  let layout = ctx.layout in
  let dict = Layout.dict layout in
  let p, probe_side =
    match atom with
    | Query.Atom.Ra (p, Query.Term.Var v, _) when v = probe_col -> p, `Subject
    | Query.Atom.Ra (p, _, Query.Term.Var v) when v = probe_col -> p, `Object
    | _ -> Fmt.invalid_arg "Index_join: %s does not bind %a" probe_col Query.Atom.pp atom
  in
  Atomic.incr ctx.counters.scans;
  Obs.Metrics.incr m_scan_requests;
  let lookup =
    match probe_side with
    | `Subject -> Layout.role_lookup_subject_arr layout p
    | `Object -> Layout.role_lookup_object_arr layout p
  in
  let other_of = match probe_side with `Subject -> snd | `Object -> fst in
  Physical.index_join ~lookup ~other_of ~dict_find:(Dllite.Dict.find dict) left_op
    atom probe_col

(* {2 Sideways information passing}

   A [Plan.Sip] annotation on a join makes the compiler build a
   compact key-set reducer ({!Sip.t}) from the source side's join
   column and push it into the other side's subtree as a reducer
   environment [senv]: column name -> reducer. At a [Scan] the
   matching bindings wrap the stream in selection-vector filters;
   [Project], [Distinct] and [Materialize] pass the environment
   through; at a [Union] it is remapped positionally into every arm,
   and an arm whose reducer-filtered base accesses are provably empty
   is never compiled at all. Reducers are immutable after
   construction, so they cross parallel union arms without
   synchronisation. Every cache-write site (scan cache, build cache,
   view store) stores {e unfiltered} data, so dropping or adding a
   binding anywhere is sound: reducers only prune, never invent. *)

type senv = (string * Sip.t) list

let restrict (env : senv) cols = List.filter (fun (c, _) -> List.mem c cols) env

(* Union output column i is arm output column i. *)
let remap_env (env : senv) cols arm_cols : senv =
  List.filter_map
    (fun (c, r) ->
      let rec pos i = function
        | [] -> None
        | c' :: rest -> if String.equal c c' then Some i else pos (i + 1) rest
      in
      match pos 0 cols with
      | None -> None
      | Some i ->
        (match List.nth_opt arm_cols i with
        | Some ac -> Some (ac, r)
        | None -> None))
    env

let empty_op cols = Physical.of_relation (Relation.empty ~cols)

(* Wrap [op] in one selection filter per binding that names one of its
   columns. [on_pruned] additionally feeds the per-node EXPLAIN
   ANALYZE counter. *)
let apply_sip ?on_pruned (env : senv) op =
  List.fold_left
    (fun op (c, r) ->
      if Array.exists (String.equal c) op.Physical.cols then begin
        let tally n =
          Obs.Metrics.add m_sip_pruned n;
          match on_pruned with
          | Some f -> f n
          | None -> ()
        in
        Physical.sip_filter op ~col:c ~reducer:r ~tally
      end
      else op)
    op env

let dict_domain ctx = Dllite.Dict.size (Layout.dict ctx.layout)

let reducer_of_array ctx keys =
  Obs.Metrics.incr m_sip_reducers;
  Sip.of_array ~domain:(dict_domain ctx) keys

let reducer_of_relation ctx rel c =
  reducer_of_array ctx rel.Relation.columns.(Relation.col_index rel c)

(* A reducer straight off a single-column build table's key set —
   exactly the distinct join keys, no rescan of the build relation.
   Multi-column keys never carry a SIP annotation. *)
let reducer_of_build ctx (b : Relation.build_table) =
  match b.Relation.table with
  | Relation.Multi _ -> None
  | Relation.Single tbl ->
    Obs.Metrics.incr m_sip_reducers;
    Some
      (Sip.of_iter ~domain:(dict_domain ctx) ~count:(Hashtbl.length tbl) (fun f ->
           Hashtbl.iter (fun k _ -> f k) tbl))

(* The index side of an annotated index join: the reducer is the
   stored role's probe-side column. Simple layout only — on the RDF
   layout [role_cols] re-pays the wide-table extraction the index
   exists to avoid. *)
let index_reducer ctx atom probe_col =
  match ctx.layout with
  | Layout.Rdf _ -> None
  | Layout.Simple _ -> (
    match atom with
    | Atom.Ra (p, Term.Var v, _) when v = probe_col ->
      Some (reducer_of_array ctx (fst (Layout.role_cols ctx.layout p)))
    | Atom.Ra (p, _, Term.Var v) when v = probe_col ->
      Some (reducer_of_array ctx (snd (Layout.role_cols ctx.layout p)))
    | _ -> None)

(* Reducer-vs-stored-column emptiness, memoised per (reducer, stored
   column) so that the same reducer probing the same role across many
   union arms walks it once. The intersection test runs outside the
   lock ([Sip.intersects] is pure; a racing duplicate is idempotent). *)
let memo_intersects ctx r key col_thunk =
  let k = string_of_int (Sip.id r) ^ key in
  Mutex.lock ctx.sip_lock;
  let cached = Hashtbl.find_opt ctx.sip_memo k in
  Mutex.unlock ctx.sip_lock;
  match cached with
  | Some b -> b
  | None ->
    let b = Sip.intersects r (col_thunk ()) in
    Mutex.lock ctx.sip_lock;
    Hashtbl.replace ctx.sip_memo k b;
    Mutex.unlock ctx.sip_lock;
    b

(* Conservative static emptiness: [true] only when some reducer
   binding provably annihilates a base access of the (sub)plan.
   Simple layout only, where the stored column arrays are aliased
   (walking them costs no extraction and [Sip.intersects] early-exits
   on the first survivor). Everything unprovable answers [false]. *)
let scan_provably_empty ctx (env : senv) atom =
  match ctx.layout with
  | Layout.Rdf _ -> false
  | Layout.Simple _ -> (
    match atom with
    | Atom.Ca (p, Term.Var v) -> (
      match List.assoc_opt v env with
      | Some r ->
        not
          (memo_intersects ctx r (":c:" ^ p) (fun () ->
               Layout.concept_rows ctx.layout p))
      | None -> false)
    | Atom.Ra (p, Term.Var v1, Term.Var v2) when v1 <> v2 ->
      let side v key pick =
        match List.assoc_opt v env with
        | Some r ->
          not
            (memo_intersects ctx r (key ^ p) (fun () ->
                 pick (Layout.role_cols ctx.layout p)))
        | None -> false
      in
      side v1 ":rs:" fst || side v2 ":ro:" snd
    | _ -> false)

let rec provably_empty ctx (env : senv) plan =
  env <> []
  &&
  match plan with
  | Plan.Scan atom -> scan_provably_empty ctx env atom
  | Plan.Hash_join { left; right; _ } | Plan.Merge_join { left; right; _ } ->
    provably_empty ctx (restrict env (Plan.out_cols left)) left
    || provably_empty ctx (restrict env (Plan.out_cols right)) right
  | Plan.Index_join { left; _ } ->
    provably_empty ctx (restrict env (Plan.out_cols left)) left
  | Plan.Project { input; _ } ->
    provably_empty ctx (restrict env (Plan.out_cols input)) input
  | Plan.Distinct p | Plan.Materialize p -> provably_empty ctx env p
  | Plan.Union { cols; inputs } ->
    inputs <> []
    && List.for_all
         (fun p -> provably_empty ctx (remap_env env cols (Plan.out_cols p)) p)
         inputs
  | Plan.Sip { join; _ } -> provably_empty ctx env join

(* The single-column join key a [Sip] annotation can act on. *)
let sip_col on dir =
  match on with
  | [ c ] -> Some (c, dir)
  | _ -> None

(* Zone-map-pruned segmented scan: when a sideways reducer binds a
   column of a full variable scan on the simple layout, stream the
   stored compressed segments directly ({!Physical.segments_scan}) and
   let the reducer's exact key range discard whole segments off their
   zone maps before any decoding. The table's pending delta tail rides
   along as a final pseudo-segment (its min/max plays the zone map) —
   without it a segment-streaming scan would miss facts inserted since
   the last compaction. Only the uncached configuration takes this
   path — the scan cache must store the canonical unfiltered relation,
   so cached scans keep materialising. Row-level reducer filtering
   still applies on top ([apply_sip]); the zone test is the
   necessary-condition prefilter, never the membership test. *)
let array_range a =
  let n = Array.length a in
  if n = 0 then None
  else begin
    let lo = ref a.(0) and hi = ref a.(0) in
    for i = 1 to n - 1 do
      if a.(i) < !lo then lo := a.(i);
      if a.(i) > !hi then hi := a.(i)
    done;
    Some (!lo, !hi)
  end

let segmented_scan_op ctx (env : senv) atom =
  if ctx.config.scan_cache || env = [] then None
  else
    match ctx.layout with
    | Layout.Rdf _ -> None
    | Layout.Simple s -> (
      let zone_miss col r i =
        let lo, hi = Colstore.zone col i in
        not (Sip.overlaps_range r ~lo ~hi)
      in
      let range_miss range r =
        match range with
        | None -> true
        | Some (lo, hi) -> not (Sip.overlaps_range r ~lo ~hi)
      in
      let count_scan () =
        Atomic.incr ctx.counters.scans;
        Obs.Metrics.incr m_scan_requests
      in
      match atom with
      | Atom.Ca (p, Term.Var v) when List.mem_assoc v env -> (
        match Storage.concept_col s p with
        | None -> None
        | Some col ->
          let r = List.assoc v env in
          let tail_col = Storage.concept_tail s p in
          let tail_rng = array_range tail_col in
          let nsegs = Colstore.seg_count col in
          let skip i =
            if i < nsegs then zone_miss col r i else range_miss tail_rng r
          in
          count_scan ();
          Some
            (Physical.segments_scan ~tail:[| tail_col |] ~cols:[| v |] ~skip
               [| col |]))
      | Atom.Ra (p, Term.Var v1, Term.Var v2)
        when v1 <> v2 && (List.mem_assoc v1 env || List.mem_assoc v2 env) -> (
        match Storage.role_colstores s p with
        | None -> None
        | Some (scol, ocol) ->
          let tail_s, tail_o = Storage.role_tail s p in
          let rng_s = array_range tail_s and rng_o = array_range tail_o in
          let nsegs = Colstore.seg_count scol in
          let side col rng v i =
            match List.assoc_opt v env with
            | None -> false
            | Some r -> if i < nsegs then zone_miss col r i else range_miss rng r
          in
          let skip i = side scol rng_s v1 i || side ocol rng_o v2 i in
          count_scan ();
          Some
            (Physical.segments_scan ~tail:[| tail_s; tail_o |]
               ~cols:[| v1; v2 |] ~skip [| scol; ocol |]))
      | _ -> None)

(* {2 Plan compilation}

   [compile] turns a logical plan into an opened physical operator
   tree. Scans materialise their (cached, canonical) relations at
   compile time and stream them in batches; index joins, probes over
   cached builds, projections and distinct pipeline on top without
   materialising. The pipeline breakers are exactly: hash-join build
   sides, merge joins (both sides sorted), [Materialize] fragments,
   and union arms evaluated on the domain pool (jobs > 1) — a
   sequential union streams its arms without a barrier. *)

let encode_out ctx out =
  let dict = Layout.dict ctx.layout in
  List.map
    (function
      | `Col c -> `Col c
      | `Const k -> `Const (Dllite.Dict.encode dict k))
    out

(* The compiler serves plain and analyzed (EXPLAIN ANALYZE) runs
   alike; the run's mode only decides what a node records. On a plain
   run [enter] and [close] do nothing, so the operator tree is exactly
   the uninstrumented one. On an analyzed run a node's accumulator is
   charged its compile time at [close] — which includes any child
   materialised at compile time: builds, merge sorts, materialised
   fragments, parallel arms — and its wrapped [next] adds wall-clock
   time and emitted rows. A parent's [next] calls its children's
   wrapped [next], so every node's time is inclusive of its subtree. *)

let enter : type n. n ctx -> Plan.t -> n =
 fun ctx plan ->
  match ctx.mode with
  | Plain -> ()
  | Analyzed ->
    {
      a_plan = plan;
      a_t0 = Obs.Mclock.now_ns ();
      a_rows = 0;
      a_ns = 0L;
      a_cache = Uncached;
      a_pruned = 0;
      a_elided = 0;
      a_reducer = None;
      a_children = [];
    }

let instrument acc (op : Physical.op) =
  let next () =
    let t0 = Obs.Mclock.now_ns () in
    let r = op.Physical.next () in
    acc.a_ns <- Int64.add acc.a_ns (Obs.Mclock.elapsed_ns ~since:t0);
    (match r with
    | Some b -> acc.a_rows <- acc.a_rows + Batch.length b
    | None -> ());
    r
  in
  { op with Physical.next }

let close : type n.
    n ctx ->
    n ->
    ?cache:cache_outcome ->
    ?reducer:Sip.t ->
    ?elided:int ->
    Physical.op ->
    n list ->
    Physical.op * n =
 fun ctx node ?(cache = Uncached) ?reducer ?(elided = 0) op children ->
  match ctx.mode with
  | Plain -> op, node
  | Analyzed ->
    node.a_cache <- cache;
    node.a_reducer <- Option.map Sip.kind_name reducer;
    node.a_elided <- elided;
    node.a_children <- List.rev children;
    node.a_ns <- Obs.Mclock.elapsed_ns ~since:node.a_t0;
    instrument node op, node

(* A child opened after its parent closed: a lazily opened union arm. *)
let adopt : type n. n ctx -> n -> n -> unit =
 fun ctx node child ->
  match ctx.mode with
  | Plain -> ()
  | Analyzed -> node.a_children <- child :: node.a_children

(* [apply_sip], counting the rows it prunes against [node]. *)
let filter : type n. n ctx -> n -> senv -> Physical.op -> Physical.op =
 fun ctx node env op ->
  match ctx.mode with
  | Plain -> apply_sip env op
  | Analyzed ->
    apply_sip ~on_pruned:(fun n -> node.a_pruned <- node.a_pruned + n) env op

let rec compile ctx env plan =
  let node = enter ctx plan in
  match plan with
  | Plan.Scan atom -> (
    match segmented_scan_op ctx env atom with
    | Some op -> close ctx node (filter ctx node env op) []
    | None ->
      let rel, cache = scan ctx atom in
      close ctx node ~cache (filter ctx node env (Physical.of_relation rel)) [])
  | Plan.Hash_join { left; right; on } -> compile_hash ctx node env None left right on
  | Plan.Merge_join { left; right; on } -> compile_merge ctx node env None left right on
  | Plan.Index_join { left; atom; probe_col } ->
    compile_index ctx node env ~sip:false left atom probe_col
  | Plan.Project { input; out } ->
    let i, n = compile ctx (restrict env (Plan.out_cols input)) input in
    close ctx node (Physical.project i (encode_out ctx out)) [ n ]
  | Plan.Distinct p ->
    let i, n = compile ctx env p in
    close ctx node (Physical.distinct i) [ n ]
  | Plan.Union { cols; inputs } ->
    (* The embarrassingly parallel hot path: a reformulated UCQ is one
       [Union] whose arms are independent. At jobs > 1 the arms
       materialise on the domain pool and merge positionally in input
       order; sequentially they stream one after the other. Either way
       the result is identical to the sequential fold at any job
       count — arm elision is a pure function of plan + data, so it
       too is deterministic. *)
    let arms =
      List.filter_map
        (fun p ->
          let aenv = remap_env env cols (Plan.out_cols p) in
          if provably_empty ctx aenv p then begin
            Obs.Metrics.incr m_sip_elided;
            None
          end
          else Some (aenv, p))
        inputs
    in
    let elided = List.length inputs - List.length arms in
    Obs.Metrics.add m_union_arms (List.length arms);
    if ctx.jobs > 1 && List.length arms > 1 then
      let done_arms =
        Parallel.map ~jobs:ctx.jobs
          (fun (aenv, p) ->
            let op, n = compile ctx aenv p in
            Physical.to_relation op, n)
          arms
      in
      close ctx node ~elided
        (Physical.union ~cols
           (List.map (fun (rel, _) -> Physical.of_relation rel) done_arms))
        (List.map snd done_arms)
    else
      (* arms open lazily: arm i's build tables and scan extractions
         are garbage before arm i+1's exist *)
      close ctx node ~elided
        (Physical.union_delayed ~cols
           (List.map
              (fun (aenv, p) () ->
                let op, n = compile ctx aenv p in
                adopt ctx node n;
                op)
              arms))
        []
  | Plan.Materialize p -> (
    match ctx.views with
    | None ->
      let i, n = compile ctx env p in
      close ctx node i [ n ]
    | Some store ->
      (* the stored fragment is compiled {e without} the reducer
         environment — the view store is keyed on the fragment alone
         and outlives this query; filters go on top of the copy *)
      let child = ref [] in
      let rel, hit =
        Cache.Lru.find_or_compute store (view_key p) (fun () ->
            let op, n = compile ctx [] p in
            child := [ n ];
            Physical.to_relation op)
      in
      close ctx node
        ~cache:(if hit then Hit else Miss)
        (filter ctx node env (Physical.of_relation rel))
        !child)
  | Plan.Sip { join; dir } -> (
    match join with
    | Plan.Hash_join { left; right; on } ->
      compile_hash ctx node env (sip_col on dir) left right on
    | Plan.Merge_join { left; right; on } ->
      compile_merge ctx node env (sip_col on dir) left right on
    | Plan.Index_join { left; atom; probe_col } ->
      compile_index ctx node env ~sip:(dir = Plan.Build_to_probe) left atom probe_col
    | other ->
      (* a stray annotation on a non-join is inert *)
      compile ctx env other)

and compile_hash ctx node env sip left right on =
  let out = Plan.out_cols (Plan.Hash_join { left; right; on }) in
  let lenv = restrict env (Plan.out_cols left) in
  let renv = restrict env (Plan.out_cols right) in
  match sip, right with
  | Some (c, Plan.Probe_to_build), _ ->
    (* materialise the probe side first; its key set prunes the build
       subtree — the direction that reaches into a reformulated
       union's arms before any of their rows exist *)
    let lop, ln = compile ctx lenv left in
    let l_rel = Physical.to_relation lop in
    if Relation.cardinality l_rel = 0 then close ctx node (empty_op out) [ ln ]
    else begin
      let reducer = reducer_of_relation ctx l_rel c in
      Atomic.incr ctx.counters.builds;
      let rop, rn = compile ctx ((c, reducer) :: renv) right in
      close ctx node ~reducer
        (Physical.hash_join (Physical.of_relation l_rel) (Physical.to_relation rop) ~on)
        [ ln; rn ]
    end
  | _, Plan.Scan atom when ctx.config.build_cache ->
    (* the build side folds into this node: its build outcome is the
       node's cache outcome, and it has no separate child *)
    let build, cache, rename = build_cached ctx atom on in
    (* an empty build table yields nothing: the probe subtree is never
       even compiled *)
    if build_key_count build = 0 then close ctx node ~cache (empty_op out) []
    else begin
      let reducer =
        match sip with
        | Some (c, _) -> Option.map (fun r -> c, r) (reducer_of_build ctx build)
        | None -> None
      in
      let l, ln = compile ctx (Option.to_list reducer @ lenv) left in
      (* join-column bindings reach the output through the left side *)
      let renv_only = List.filter (fun (c, _) -> not (List.mem c on)) renv in
      close ctx node ~cache ?reducer:(Option.map snd reducer)
        (filter ctx node renv_only (Physical.probe ~rename l ~build ~on))
        [ ln ]
    end
  | _ ->
    (* build side first for the same early exit *)
    Atomic.incr ctx.counters.builds;
    let rop, rn = compile ctx renv right in
    let r_rel = Physical.to_relation rop in
    if Relation.cardinality r_rel = 0 then close ctx node (empty_op out) [ rn ]
    else begin
      let reducer =
        Option.map (fun (c, _) -> c, reducer_of_relation ctx r_rel c) sip
      in
      let l, ln = compile ctx (Option.to_list reducer @ lenv) left in
      close ctx node ?reducer:(Option.map snd reducer)
        (Physical.hash_join l r_rel ~on)
        [ ln; rn ]
    end

(* Both sides materialise; the passing side goes first, and an empty
   passing side leaves the other uncompiled. *)
and compile_merge ctx node env sip left right on =
  let out = Plan.out_cols (Plan.Merge_join { left; right; on }) in
  let lenv = restrict env (Plan.out_cols left) in
  let renv = restrict env (Plan.out_cols right) in
  let side env p =
    let op, n = compile ctx env p in
    Physical.to_relation op, n
  in
  let join l r = Physical.of_relation (Relation.merge_join l r ~on) in
  match sip with
  | Some (c, Plan.Probe_to_build) ->
    let l, ln = side lenv left in
    if Relation.cardinality l = 0 then close ctx node (empty_op out) [ ln ]
    else begin
      let reducer = reducer_of_relation ctx l c in
      let r, rn = side ((c, reducer) :: renv) right in
      close ctx node ~reducer (join l r) [ ln; rn ]
    end
  | Some (c, Plan.Build_to_probe) ->
    let r, rn = side renv right in
    if Relation.cardinality r = 0 then close ctx node (empty_op out) [ rn ]
    else begin
      let reducer = reducer_of_relation ctx r c in
      let l, ln = side ((c, reducer) :: lenv) left in
      close ctx node ~reducer (join l r) [ ln; rn ]
    end
  | None ->
    let l, ln = side lenv left in
    let r, rn = side renv right in
    close ctx node (join l r) [ ln; rn ]

and compile_index ctx node env ~sip left atom probe_col =
  let lcols = Plan.out_cols left in
  let reducer = if sip then index_reducer ctx atom probe_col else None in
  let lenv = restrict env lcols in
  let lenv = match reducer with Some r -> (probe_col, r) :: lenv | None -> lenv in
  let l, ln = compile ctx lenv left in
  (* outer bindings on the fresh column the index join introduces *)
  let outer = List.filter (fun (c, _) -> not (List.mem c lcols)) env in
  close ctx node ?reducer
    (filter ctx node outer (index_join_op ctx l atom probe_col))
    [ ln ]

let rec stats_of acc =
  {
    plan = acc.a_plan;
    actual_rows = acc.a_rows;
    elapsed_ns = acc.a_ns;
    cache = acc.a_cache;
    sip_pruned = acc.a_pruned;
    sip_elided = acc.a_elided;
    sip_reducer = acc.a_reducer;
    children = List.rev_map stats_of acc.a_children;
  }

(* Every access to the run caches is gated on the config flags
   ([scan_cached] checks [scan_cache]; [probe_cached] is only reached
   under [build_cache]), so a config with both caches off can share
   one never-touched pair instead of paying two cache allocations and
   eight metrics-registry lookups per query. *)
let disabled_run_caches = fresh_run_caches ()

let make_ctx mode config counters views jobs layout =
  let counters = Option.value ~default:(fresh_counters ()) counters in
  let jobs =
    match jobs with Some j -> max 1 j | None -> Parallel.default_jobs ()
  in
  let scans, builds =
    if config.scan_cache || config.build_cache then fresh_run_caches ()
    else disabled_run_caches
  in
  {
    mode;
    layout;
    config;
    counters;
    scans;
    builds;
    views;
    jobs;
    sip_memo = Hashtbl.create 16;
    sip_lock = Mutex.create ();
  }

let run ?(config = postgres_like) ?counters ?views ?jobs layout plan =
  let op, () = compile (make_ctx Plain config counters views jobs layout) [] plan in
  Physical.to_relation op

let run_analyzed ?(config = postgres_like) ?counters ?views ?jobs layout plan =
  let op, acc = compile (make_ctx Analyzed config counters views jobs layout) [] plan in
  let rel = Physical.to_relation op in
  rel, stats_of acc

let decode_rows layout rel =
  let dict = Layout.dict layout in
  List.sort_uniq compare
    (List.map
       (fun row -> Array.to_list (Array.map (Dllite.Dict.decode dict) row))
       (Relation.rows rel))

let answers ?config ?views ?jobs layout plan =
  decode_rows layout (Relation.distinct (run ?config ?views ?jobs layout plan))
