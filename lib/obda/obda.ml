type engine_kind =
  [ `Pglite
  | `Db2lite ]

type layout_kind =
  [ `Simple
  | `Rdf ]

type engine = {
  profile : Rdbms.Explain.profile;
  layout : Rdbms.Layout.t;
  kind : engine_kind;
  id : int;  (* process-unique, a component of plan-cache keys *)
  mutable generation : int;  (* KB generation: bumped on every insert *)
  mutable views : Rdbms.Exec.view_store option;
  mutable sip : bool;  (* sideways-information-passing annotations *)
  mutable feedback : Cost.Feedback.t option;
      (* cardinality-correction store fed by analyze runs *)
  mutable drift_threshold : float;
      (* root q-error past which a cached cost-based plan re-ranks *)
}

let next_engine_id = Atomic.make 0

(* A plan whose corrected root-cardinality estimate is still this far
   from the observed answer count (q-error) after an analyze run was
   costed against statistics that have since been corrected — worth
   re-optimising. Well above the ~1–2 q-error of healthy estimates,
   well below the 10^2..10^5 drift of an uncorrected union shape. *)
let default_drift_threshold = 4.0

let make_engine_of_layout kind layout =
  let profile =
    match kind with
    | `Pglite -> Rdbms.Explain.pglite
    | `Db2lite -> Rdbms.Explain.db2lite
  in
  {
    profile;
    layout;
    kind;
    id = Atomic.fetch_and_add next_engine_id 1;
    generation = 0;
    views = None;
    sip = true;
    feedback = Some (Cost.Feedback.create ());
    drift_threshold = default_drift_threshold;
  }

let make_engine kind layout_kind abox =
  make_engine_of_layout kind
    (match layout_kind with
    | `Simple -> Rdbms.Layout.simple_of_abox abox
    | `Rdf -> Rdbms.Layout.rdf_of_abox abox)

let generation e = e.generation

(* The plan cache: repeated queries skip PerfectRef and the EDL/GDL
   cover search entirely. Keyed by engine id, TBox uid, strategy and
   the canonical form of the query — a plan is only ever replayed in
   exactly the context that produced it. Data-independent strategies
   carry no generation in their key, so their entries survive updates
   outright. Cost-based keys embed the KB generation (an update shifts
   the statistics their cover search optimised against), and
   [data_changed] drops them on every update so superseded entries are
   reclaimed immediately instead of squatting in the LRU. *)
type plan = {
  p_reformulation : Query.Fol.t;
  p_cover : Covers.Generalized.t option;
  p_epoch : int;
      (* the feedback-store correction epoch the plan was costed
         under; 0 with feedback disabled. A cached cost-based plan
         whose q-error drifts is only re-ranked once the epoch has
         advanced — re-searching under unchanged corrections would
         reproduce the same cover. *)
}

type plan_key = {
  k_engine : int;
  k_generation : int option;  (* [None] for data-independent strategies *)
  k_tbox : int;
  k_strategy : string;
  k_query : string;  (* canonical form *)
}

let default_plan_cache_capacity = 256

let plan_cost p = Query.Fol.total_atoms p.p_reformulation * 128

let plan_cache : (plan_key, plan) Cache.Lru.t =
  Cache.Lru.create ~cost_of:plan_cost ~name:"plan"
    ~capacity:default_plan_cache_capacity ()

(* An accepted insert advances the engine's KB generation and reports
   the touched predicate. Invalidation is predicate-scoped: the view
   store drops exactly the fragments that read the touched predicate
   (the rest stay warm), and this engine's generation-keyed plans
   (GDL/EDL — their covers depend on statistics) are dropped, since no
   key can reach them any more. *)
let data_changed e ~predicate =
  e.generation <- e.generation + 1;
  ignore
    (Cache.Lru.invalidate_if plan_cache (fun k ->
         k.k_engine = e.id && k.k_generation <> None));
  Option.iter
    (fun s -> ignore (Rdbms.Exec.invalidate_views s [ predicate ]))
    e.views

let insert_concept e ~concept ~ind =
  let inserted = Rdbms.Layout.insert_concept e.layout ~concept ~ind in
  if inserted then data_changed e ~predicate:concept;
  inserted

let insert_role e ~role ~subj ~obj =
  let inserted = Rdbms.Layout.insert_role e.layout ~role ~subj ~obj in
  if inserted then data_changed e ~predicate:role;
  inserted

let enable_fragment_views e =
  if e.views = None then begin
    let store = Rdbms.Exec.fresh_view_store () in
    Cache.Lru.set_version store e.generation;
    e.views <- Some store
  end

let disable_fragment_views e = e.views <- None

let set_sip e enabled = e.sip <- enabled

let sip_enabled e = e.sip

let feedback_store e = e.feedback

let set_feedback_store e store = e.feedback <- store

let set_feedback e enabled =
  if not enabled then e.feedback <- None
  else if e.feedback = None then e.feedback <- Some (Cost.Feedback.create ())

let feedback_enabled e = e.feedback <> None

let drift_threshold e = e.drift_threshold

let set_drift_threshold e th =
  if not (th >= 1.) then invalid_arg "Obda.set_drift_threshold: must be >= 1";
  e.drift_threshold <- th

let fragment_view_count e =
  match e.views with None -> 0 | Some store -> Cache.Lru.length store

let engine_name e =
  Printf.sprintf "%s/%s" e.profile.Rdbms.Explain.name (Rdbms.Layout.name e.layout)

let layout e = e.layout

let profile e = e.profile

type cost_source =
  | Rdbms_cost
  | Ext_cost

type strategy =
  | Ucq
  | Uscq
  | Croot
  | Gdl of cost_source
  | Gdl_limited of cost_source * float
  | Edl of cost_source

let cost_source_name = function Rdbms_cost -> "rdbms" | Ext_cost -> "ext"

let strategy_name = function
  | Ucq -> "ucq"
  | Uscq -> "uscq"
  | Croot -> "croot"
  | Gdl src -> "gdl/" ^ cost_source_name src
  | Gdl_limited (src, budget) ->
    Printf.sprintf "gdl%.0fms/%s" (budget *. 1000.) (cost_source_name src)
  | Edl src -> "edl/" ^ cost_source_name src

type 'a run = {
  strategy : strategy;
  reformulation : Query.Fol.t;
  cq_count : int;
  sql : string lazy_t;
  sql_bytes : int;
  search_time : float;
  eval_time : float;
  plan_cached : bool;
  answers : ('a, string) Stdlib.result;
}

type outcome = string list list run

let cost_model e = Cost.Cost_model.calibrated e.kind

let estimator e = function
  | Rdbms_cost -> Optimizer.Estimator.rdbms e.profile e.layout
  | Ext_cost -> Optimizer.Estimator.ext (cost_model e) e.layout

(* One optimisation pass: the chosen reformulation, and the chosen
   generalized cover for the strategies that search for one. The
   cost-based searches consult the engine's feedback store, so a
   trained engine ranks candidate covers with observed cardinalities. *)
let compute_plan e tbox strategy q =
  match strategy with
  | Ucq -> Covers.Reformulate.ucq tbox q, None
  | Uscq -> Reform.Uscq_reform.reformulate tbox q, None
  | Croot ->
    let store = Reform.Relstore.of_tbox tbox in
    Covers.Reformulate.of_cover tbox (Covers.Safety.root_cover ~store tbox q), None
  | Gdl src ->
    let r = Optimizer.Gdl.search ?feedback:e.feedback tbox (estimator e src) q in
    r.Optimizer.Gdl.reformulation, Some r.Optimizer.Gdl.cover
  | Gdl_limited (src, budget) ->
    let r =
      Optimizer.Gdl.search ~time_budget:budget ?feedback:e.feedback tbox
        (estimator e src) q
    in
    r.Optimizer.Gdl.reformulation, Some r.Optimizer.Gdl.cover
  | Edl src ->
    let r = Optimizer.Edl.search ?feedback:e.feedback tbox (estimator e src) q in
    r.Optimizer.Edl.reformulation, Some r.Optimizer.Edl.cover

let reformulate e tbox strategy q = fst (compute_plan e tbox strategy q)

(* A strategy is data-independent when its output is a function of the
   TBox and query alone: UCQ/USCQ/CROOT never consult statistics, so
   their plans stay valid across any sequence of updates. The GDL/EDL
   family searches covers under a cost model fed by the engine's
   statistics — those plans are still answer-sound after an update
   (any reformulation is), but their optimality claim is stale. *)
let data_independent = function
  | Ucq | Uscq | Croot -> true
  | Gdl _ | Gdl_limited _ | Edl _ -> false

let set_plan_cache_capacity n = Cache.Lru.set_capacity plan_cache n

let plan_cache_stats () = Cache.Lru.stats plan_cache

let clear_plan_cache () = Cache.Lru.clear plan_cache

let plan_key e tbox strategy q =
  {
    k_engine = e.id;
    k_generation = (if data_independent strategy then None else Some e.generation);
    k_tbox = Dllite.Tbox.uid tbox;
    k_strategy = strategy_name strategy;
    k_query = Query.Cq.to_string (Query.Cq.canonicalize q);
  }

let feedback_epoch e =
  match e.feedback with Some fb -> Cost.Feedback.epoch fb | None -> 0

let plan_for e tbox strategy q =
  Cache.Lru.find_or_compute plan_cache (plan_key e tbox strategy q) (fun () ->
      let epoch = feedback_epoch e in
      let fol, cover = compute_plan e tbox strategy q in
      { p_reformulation = fol; p_cover = cover; p_epoch = epoch })

let m_queries =
  Obs.Metrics.counter ~help:"end-to-end queries answered" "obda.queries"

let m_search_ms =
  Obs.Metrics.histogram
    ~help:"reformulation / cover-search latency (ms)" "obda.search_ms"

let m_eval_ms =
  Obs.Metrics.histogram ~help:"plan evaluation latency (ms)" "obda.eval_ms"

let m_total_ms =
  Obs.Metrics.histogram
    ~help:"end-to-end query latency, search + SQL + eval (ms)" "obda.total_ms"

let seconds_since t0 = Int64.to_float (Obs.Mclock.elapsed_ns ~since:t0) /. 1e9

(* Planning and SIP annotation run after the plan cache, which stores
   the reformulation, not the physical plan: toggling SIP takes effect
   immediately even on cached plans. *)
let physical_plan e reformulation =
  let plan = Rdbms.Planner.of_fol e.layout reformulation in
  if e.sip then
    Cost.Sip_pass.annotate ~model:(cost_model e) ?feedback:e.feedback e.layout plan
  else plan

(* The one query pipeline: plan-cache lookup (the search stage), SQL
   translation and the engine's statement-size check, then physical
   planning, SIP annotation and [exec] (the evaluation stage). Returns
   the start time, so callers can close the end-to-end latency. *)
let pipeline e tbox strategy q ~exec =
  let t0 = Obs.Mclock.now_ns () in
  let plan, plan_cached = plan_for e tbox strategy q in
  let reformulation = plan.p_reformulation in
  let search_time = seconds_since t0 in
  let sql = lazy (Sql.Sql_ast.to_string (Sql.Sql_gen.of_fol e.layout reformulation)) in
  let sql_bytes = String.length (Lazy.force sql) in
  let t1 = Obs.Mclock.now_ns () in
  let answers =
    match e.profile.Rdbms.Explain.max_sql_bytes with
    | Some limit when sql_bytes > limit ->
      Error
        (Printf.sprintf
           "The statement is too long or too complex. Current SQL statement size is \
            %d"
           sql_bytes)
    | _ -> Ok (exec (physical_plan e reformulation))
  in
  let eval_time = seconds_since t1 in
  ( t0,
    plan,
    {
      strategy;
      reformulation;
      cq_count = Query.Fol.cq_count reformulation;
      sql;
      sql_bytes;
      search_time;
      eval_time;
      plan_cached;
      answers;
    } )

let observe t0 o =
  Obs.Metrics.incr m_queries;
  Obs.Metrics.observe m_search_ms (o.search_time *. 1000.);
  Obs.Metrics.observe m_eval_ms (o.eval_time *. 1000.);
  Obs.Metrics.observe m_total_ms (seconds_since t0 *. 1000.)

let exec_config e = e.profile.Rdbms.Explain.exec_config

let answer e tbox strategy q =
  let t0, _, o =
    pipeline e tbox strategy q ~exec:(fun plan ->
        Rdbms.Exec.answers ~config:(exec_config e) ?views:e.views e.layout plan)
  in
  observe t0 o;
  o

let explain e tbox strategy q =
  let _, _, o = pipeline e tbox strategy q ~exec:Fun.id in
  o

let answers_exn e tbox strategy q =
  match (answer e tbox strategy q).answers with
  | Ok a -> a
  | Error msg -> failwith msg

(* --- The feedback loop: EXPLAIN ANALYZE -> corrections -> re-rank --- *)

type analysis = {
  a_outcome : outcome;
  a_stats : Rdbms.Exec.node_stats option;
  a_q_error : float;
  a_harvested : int;
  a_reranked : bool;
}

let analyze e tbox strategy q =
  let t0, plan_rec, o =
    pipeline e tbox strategy q ~exec:(fun plan ->
        let rel, stats =
          Rdbms.Exec.run_analyzed ~config:(exec_config e) ?views:e.views e.layout plan
        in
        Rdbms.Exec.decode_rows e.layout rel, stats)
  in
  let stats = Result.to_option (Result.map snd o.answers) in
  (* The drift check prices the plan's root under the corrections it
     was (approximately) costed with — *before* this run's harvest —
     so a plan whose estimate already matches reality never churns. *)
  let q_error =
    match stats with
    | None -> 1.0
    | Some s -> Cost.Feedback.root_q_error ?feedback:e.feedback e.layout s
  in
  let harvested =
    match e.feedback, stats with
    | Some fb, Some s -> Cost.Feedback.harvest fb e.layout s
    | _ -> 0
  in
  let reranked =
    (* Re-rank: the cached cover was chosen under estimates that are
       now demonstrably off (q-error past the threshold) *and* the
       correction epoch has advanced past the plan's — dropping the
       entry makes the next call re-search under the new factors. *)
    match e.feedback with
    | Some fb
      when (not (data_independent strategy))
           && q_error > e.drift_threshold
           && Cost.Feedback.epoch fb > plan_rec.p_epoch ->
      let key = plan_key e tbox strategy q in
      let dropped = Cache.Lru.invalidate_if plan_cache (fun k -> k = key) in
      if dropped > 0 then Cost.Feedback.note_rerank ();
      dropped > 0
    | _ -> false
  in
  observe t0 o;
  {
    a_outcome = { o with answers = Result.map fst o.answers };
    a_stats = stats;
    a_q_error = q_error;
    a_harvested = harvested;
    a_reranked = reranked;
  }
