(** The public façade: end-to-end ontology-based data access.

    Build an {!engine} over an ABox (choosing an engine profile and a
    storage layout), then {!answer} conjunctive queries under a TBox
    with any of the reformulation strategies the paper evaluates —
    plain UCQ, the fixed root-cover JUCQ, or the cost-driven GDL / EDL
    covers with either cost source. The answer always reflects both the
    data and the constraints (FOL reducibility of DL-LiteR). *)

type engine_kind =
  [ `Pglite  (** Postgres-like: no scan sharing, sampling estimator *)
  | `Db2lite  (** DB2-like: scan sharing, 2M-char statement limit *) ]

type layout_kind =
  [ `Simple  (** a table per concept and role *)
  | `Rdf  (** DB2RDF-style wide tables *) ]

type engine

val make_engine : engine_kind -> layout_kind -> Dllite.Abox.t -> engine
(** Loads the ABox into the chosen layout. *)

val make_engine_of_layout : engine_kind -> Rdbms.Layout.t -> engine
(** Wraps an already-built layout — a store streamed in through
    {!Rdbms.Storage.Builder} or reopened with {!Rdbms.Storage.load} —
    without re-loading any ABox. *)

val engine_name : engine -> string
(** e.g. ["db2lite/rdf"]. *)

val layout : engine -> Rdbms.Layout.t

val profile : engine -> Rdbms.Explain.profile

type cost_source =
  | Rdbms_cost  (** the engine's own estimation ([explain]) *)
  | Ext_cost  (** the external textbook cost model *)

type strategy =
  | Ucq  (** plain (minimal) CQ-to-UCQ reformulation *)
  | Uscq  (** factorised CQ-to-USCQ reformulation ({e [33]}-style) *)
  | Croot  (** fixed JUCQ over the root cover *)
  | Gdl of cost_source  (** greedy cover search *)
  | Gdl_limited of cost_source * float  (** time-limited GDL (seconds) *)
  | Edl of cost_source  (** exhaustive cover search (small queries!) *)

val strategy_name : strategy -> string

val strategies : (string * strategy) list
(** The strategy vocabulary of the CLI, the REPL and the server:
    [ucq], [uscq], [croot], [gdl-rdbms], [gdl-ext], [gdl20ms-ext]
    (GDL stopped after 20 ms) and [edl-ext]. *)

type 'a run = {
  strategy : strategy;
  reformulation : Query.Fol.t;
  cq_count : int;  (** CQ disjuncts in the reformulation *)
  sql : string lazy_t;  (** the SQL translation *)
  sql_bytes : int;
  search_time : float;  (** seconds spent choosing the reformulation *)
  eval_time : float;  (** seconds spent evaluating it *)
  plan_cached : bool;
      (** the reformulation came from the plan cache — no PerfectRef
          call and no cover search ran for this query *)
  answers : ('a, string) Stdlib.result;
      (** what the pipeline's last stage produced — the sorted certain
          answers for {!answer}, the physical plan for {!explain} — or
          the engine error (e.g. the statement-size rejection DB2
          raises on the RDF layout) *)
}
(** One pass through the query pipeline: plan-cache lookup, SQL
    translation and size check, physical planning, SIP annotation,
    and a last stage that depends on the caller. *)

type outcome = string list list run

val reformulate : engine -> Dllite.Tbox.t -> strategy -> Query.Cq.t -> Query.Fol.t
(** Only the reformulation step (no evaluation), searched afresh: it
    neither reads nor fills the plan cache. *)

val answer : engine -> Dllite.Tbox.t -> strategy -> Query.Cq.t -> outcome
(** The full pipeline: reformulate, translate to SQL, check engine
    limits, evaluate, decode. The optimisation step goes through the
    {{!section-plan_cache}plan cache}: a repeated query (same engine,
    KB generation, TBox and strategy, equal canonical form) replays
    the memoised reformulation instead of searching again. *)

val explain : engine -> Dllite.Tbox.t -> strategy -> Query.Cq.t -> Rdbms.Plan.t run
(** {!answer}'s pipeline up to the physical plan, which it returns
    instead of executing: the plan-cache entry, SQL size check,
    planner and SIP annotation that the next {!answer} of this query
    would use, so an EXPLAIN shows the plan that ANSWER runs. Unlike
    {!answer} it records no query metrics. *)

val answers_exn : engine -> Dllite.Tbox.t -> strategy -> Query.Cq.t -> string list list
(** Convenience: the answers of {!answer}, raising [Failure] on engine
    errors. *)

val estimator : engine -> cost_source -> Optimizer.Estimator.t

(** {2 Incremental updates}

    New facts can be inserted into a loaded engine (after the
    dynamic-databases concern of {e [17]}): inserts land in per-table
    delta buffers ({!Rdbms.Storage}), indexes and statistics are
    maintained in place, and invalidation is {e predicate-scoped} —
    only the materialised fragment views that read the touched
    concept/role are dropped, and only the engine's generation-keyed
    (cost-based) plan-cache entries are dropped; plans of the data-independent
    strategies survive updates outright. Consistency of the update is
    the caller's concern ({!Dllite.Kb.check_consistency} /
    {!Reform.Consistency}). *)

val insert_concept : engine -> concept:string -> ind:string -> bool
(** [false] when the fact was already stored. *)

val insert_role : engine -> role:string -> subj:string -> obj:string -> bool

val generation : engine -> int
(** The engine's KB generation: starts at [0], advances on every
    accepted insert. Cost-based plan-cache keys carry it, so a
    stale-statistics cover search is never replayed after an update. *)

(** {2:plan_cache Plan cache}

    A process-wide bounded LRU memoising the outcome of the
    optimisation step — the chosen cover and compiled reformulation —
    keyed by (engine, TBox version, strategy, canonical query). Plans
    of the data-independent strategies ([Ucq]/[Uscq]/[Croot]) carry no
    KB-generation component: they are functions of the TBox and query
    alone, so they survive data updates. Plans of the cost-based
    strategies ([Gdl]/[Gdl_limited]/[Edl]) additionally embed the
    engine's generation, and an update drops that engine's
    generation-keyed entries (superseded entries would otherwise squat
    in the LRU until evicted). Repeated-query traffic skips PerfectRef
    and the EDL/GDL cover search entirely; reformulations are
    data-independent, so a replayed plan returns the same answers as a
    fresh search. Concurrent misses on one key search once: the others
    wait for that search and count as hits. *)

val default_plan_cache_capacity : int

val set_plan_cache_capacity : int -> unit
(** Resizes the plan cache; [<= 0] disables it. *)

val plan_cache_stats : unit -> Cache.Lru.stats

val clear_plan_cache : unit -> unit

(** {2 Materialised fragment views}

    The paper's §7 future-work extension: reformulated fragment queries
    ([WITH] subqueries) are materialised anyway — keeping them in a
    view store shared across queries lets later queries that
    materialise the same fragment against the same data reuse the
    stored result. The store is a bounded {!Cache.Lru} keyed by each
    fragment's read set: an insert drops exactly the fragments that
    read the touched predicate ({!Rdbms.Exec.invalidate_views}) and
    keeps the rest warm, so a stale fragment is never served and an
    update to one predicate does not cold-start the whole store. *)

val enable_fragment_views : engine -> unit
(** Start sharing materialised fragments across subsequent
    {!answer} calls on this engine. Idempotent. *)

val disable_fragment_views : engine -> unit
(** Drop the store and stop sharing. *)

val fragment_view_count : engine -> int
(** Number of distinct fragments currently materialised. *)

(** {2 Sideways information passing}

    When enabled (the default), {!answer} runs the
    {!Cost.Sip_pass.annotate} optimizer pass over each physical plan:
    profitable joins get semijoin-reducer annotations that the
    executor turns into scan filters and union-arm elision. Purely a
    performance lever — answers are identical either way. *)

val set_sip : engine -> bool -> unit
(** Toggle the SIP annotation pass for subsequent {!answer} calls.
    Takes effect immediately (plans are annotated after the plan
    cache, which stores only reformulations). *)

val sip_enabled : engine -> bool

(** {2 Feedback-driven cost corrections}

    The closed loop from EXPLAIN ANALYZE back into the optimizer:
    every engine carries a {!Cost.Feedback} correction store (on by
    default, empty until trained). {!analyze} runs a query through
    {!Rdbms.Exec.run_analyzed}, harvests the per-operator
    (est, actual) cardinality pairs into the store, and the next
    cost-based cover search — the "ext" estimator, the SIP gain
    threshold, GDL/EDL candidate ranking — prices reformulations with
    the observed factors instead of the uniformity assumptions.

    Cached cost-based plans carry the correction {e epoch} they were
    costed under. When an {!analyze} run finds a plan whose corrected
    root estimate still drifts past the engine's q-error threshold
    {e and} the epoch has advanced, the plan-cache entry is dropped
    ([feedback.plan.reranks]) so the next call re-optimises — the
    paper's ε calibration as a feedback loop. Corrections never change
    answers: any cover's reformulation is answer-equivalent, so
    feedback only moves {e which} equivalent plan runs. *)

val feedback_store : engine -> Cost.Feedback.t option
(** The engine's correction store; [None] when feedback is disabled. *)

val set_feedback : engine -> bool -> unit
(** [set_feedback e false] detaches the store (subsequent searches are
    purely static); [set_feedback e true] re-attaches a fresh one if
    none is present (an existing store is kept). *)

val feedback_enabled : engine -> bool

val set_feedback_store : engine -> Cost.Feedback.t option -> unit
(** Attach a specific store — e.g. one rehydrated from disk with
    {!Cost.Feedback.load} ([obda_cli feedback load]). *)

val default_drift_threshold : float
(** [4.0]: the root q-error past which an analyzed cost-based plan is
    considered drifted. *)

val drift_threshold : engine -> float

val set_drift_threshold : engine -> float -> unit
(** [Invalid_argument] below [1.0] (a q-error is never below one). *)

type analysis = {
  a_outcome : outcome;  (** exactly what {!answer} would return *)
  a_stats : Rdbms.Exec.node_stats option;
      (** the EXPLAIN ANALYZE tree; [None] when the engine rejected
          the statement (size limit) and nothing ran *)
  a_q_error : float;
      (** root-cardinality q-error of the {e corrected} estimate
          against the observed answer count, priced before this run's
          harvest; [1.0] when nothing ran *)
  a_harvested : int;  (** (est, actual) pairs recorded into the store *)
  a_reranked : bool;
      (** this run invalidated the cached plan for drift: the next
          {!answer}/{!analyze} of this query re-optimises under the
          updated corrections *)
}

val analyze : engine -> Dllite.Tbox.t -> strategy -> Query.Cq.t -> analysis
(** {!answer}'s pipeline with {!Rdbms.Exec.run_analyzed} as the
    executor: same plan cache, same SIP annotations, same operator
    tree, identical answers — plus the harvest and the drift check
    described above. This is the only path that trains the store
    (EXPLAIN ANALYZE in the CLI, the REPL and the server runs it);
    plain {!answer} never pays the instrumentation. *)

(** {2 EXPLAIN as JSON}

    The JSON that the server's EXPLAIN reply and
    [obda_cli explain --format json] share. *)

val explain_json :
  engine -> Dllite.Tbox.t -> strategy -> analyze:bool -> Query.Cq.t -> Obs.Json.t run
(** {!explain} ({!analyze} when [analyze]) with the plan rendered as
    its JSON tree ({!Rdbms.Explain.render_json} /
    {!Rdbms.Explain.render_analyze_json}). *)

val explain_fields : analyze:bool -> Obs.Json.t run -> (string * Obs.Json.t) list
(** The fields [strategy], [dialect], [cq_disjuncts], [join_width],
    [sql_bytes], [analyze] and [plan] of an {!explain_json} run;
    [plan] is [null] when the engine rejected the statement. *)
