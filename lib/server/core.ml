type config = {
  host : string;
  port : int;
  workers : int;
  queue_depth : int;
  default_strategy : Obda.strategy;
  default_deadline_ms : float option;
  max_answer_rows : int;
}

let default_config =
  { host = "127.0.0.1";
    port = 0;
    workers = 2;
    queue_depth = 64;
    default_strategy = Obda.Gdl Obda.Ext_cost;
    default_deadline_ms = None;
    max_answer_rows = 1000 }

(* {1 A reader/writer lock}

   ANSWER/EXPLAIN share the engine read-side; UPDATE takes it
   exclusively because the insert path maintains indexes and
   statistics in place. Writer-preference is not needed at the write
   rates the protocol sees; a plain readers-count gate suffices. *)

type rwlock = {
  rw_m : Mutex.t;
  rw_c : Condition.t;
  mutable readers : int;
  mutable writing : bool;
}

let rw_make () =
  { rw_m = Mutex.create (); rw_c = Condition.create (); readers = 0; writing = false }

let read_locked rw f =
  Mutex.lock rw.rw_m;
  while rw.writing do
    Condition.wait rw.rw_c rw.rw_m
  done;
  rw.readers <- rw.readers + 1;
  Mutex.unlock rw.rw_m;
  let finish () =
    Mutex.lock rw.rw_m;
    rw.readers <- rw.readers - 1;
    if rw.readers = 0 then Condition.broadcast rw.rw_c;
    Mutex.unlock rw.rw_m
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let write_locked rw f =
  Mutex.lock rw.rw_m;
  while rw.writing || rw.readers > 0 do
    Condition.wait rw.rw_c rw.rw_m
  done;
  rw.writing <- true;
  Mutex.unlock rw.rw_m;
  let finish () =
    Mutex.lock rw.rw_m;
    rw.writing <- false;
    Condition.broadcast rw.rw_c;
    Mutex.unlock rw.rw_m
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* {1 Sessions and jobs} *)

type session = {
  s_id : int;
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  out_lock : Mutex.t;
  mutable s_alive : bool;  (* guarded by [out_lock] *)
  s_requests : int Atomic.t;
  s_ok : int Atomic.t;
  s_errors : int Atomic.t;
  s_shed : int Atomic.t;
  s_timeouts : int Atomic.t;
}

type work =
  | W_answer of {
      id : int option;
      cq : Query.Cq.t;
      strategy : Obda.strategy;
      deadline_ms : float option;
      limit : int;
    }
  | W_explain of {
      id : int option;
      cq : Query.Cq.t;
      strategy : Obda.strategy;
      analyze : bool;
    }
  | W_update of { id : int option; inserts : Protocol.insert list }

type job = { j_session : session; j_work : work; enq_ns : int64 }

type stats = {
  accepted_sessions : int;
  active_sessions : int;
  completed : int;
  ok : int;
  shed : int;
  timeouts : int;
  protocol_errors : int;
}

type t = {
  cfg : config;
  engine : Obda.engine;
  tbox : Dllite.Tbox.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  rw : rwlock;
  (* the bounded request queue *)
  q : job Queue.t;
  q_lock : Mutex.t;
  q_nonempty : Condition.t;
  mutable paused : bool;  (* guarded by [q_lock] *)
  (* lifecycle *)
  state : Mutex.t;
  stopped_c : Condition.t;
  mutable stopping : bool;
  mutable stopped : bool;
  mutable sessions : session list;
  mutable session_threads : Thread.t list;
  mutable core_threads : Thread.t list;  (* acceptor + workers *)
  (* counters, guarded by [state] *)
  mutable n_accepted : int;
  mutable n_active : int;
  mutable n_completed : int;
  mutable n_ok : int;
  mutable n_shed : int;
  mutable n_timeouts : int;
  mutable n_proto_errors : int;
  (* registry instruments *)
  m_accepted : Obs.Metrics.counter;
  m_active : Obs.Metrics.gauge;
  m_answer : Obs.Metrics.counter;
  m_explain : Obs.Metrics.counter;
  m_update : Obs.Metrics.counter;
  m_sheds : Obs.Metrics.counter;
  m_qdepth : Obs.Metrics.gauge;
  m_qwait : Obs.Metrics.histogram;
  m_latency : Obs.Metrics.histogram;
  m_timeouts : Obs.Metrics.counter;
  m_proto_errors : Obs.Metrics.counter;
}

let send s line =
  Mutex.lock s.out_lock;
  (if s.s_alive then
     try
       output_string s.oc line;
       output_char s.oc '\n';
       flush s.oc
     with Sys_error _ | Unix.Unix_error _ -> s.s_alive <- false);
  Mutex.unlock s.out_lock

let locked m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception e ->
    Mutex.unlock m;
    raise e

let ms_since ns = Obs.Mclock.ns_to_ms (Obs.Mclock.elapsed_ns ~since:ns)

(* {1 Request handling} *)

let protocol_error t s ~id reason =
  locked t.state (fun () -> t.n_proto_errors <- t.n_proto_errors + 1);
  Obs.Metrics.incr t.m_proto_errors;
  Atomic.incr s.s_errors;
  send s (Protocol.error ~id reason)

let resolve_query = function
  | Protocol.Named name -> (
    match Lubm.Workload.find name with
    | entry -> Ok entry.Lubm.Workload.query
    | exception Not_found -> Error (Printf.sprintf "unknown workload query %S" name))
  | Protocol.Inline text -> (
    match Syntax.Query_text.parse text with
    | cq -> Ok cq
    | exception Syntax.Query_text.Parse_error m -> Error ("parse error: " ^ m)
    | exception Syntax.Lexer.Error m -> Error ("parse error: " ^ m))

let resolve_strategy t = function
  | None -> Ok t.cfg.default_strategy
  | Some name -> (
    match Protocol.strategy_of_name name with
    | Some s -> Ok s
    | None ->
      Error
        (Printf.sprintf "unknown strategy %S (one of %s)" name
           (String.concat ", " Protocol.strategy_names)))

let enqueue t s ~id work =
  let job = { j_session = s; j_work = work; enq_ns = Obs.Mclock.now_ns () } in
  Mutex.lock t.q_lock;
  if t.stopping then begin
    Mutex.unlock t.q_lock;
    send s (Protocol.error ~id "server is shutting down")
  end
  else if Queue.length t.q >= t.cfg.queue_depth then begin
    Mutex.unlock t.q_lock;
    locked t.state (fun () -> t.n_shed <- t.n_shed + 1);
    Obs.Metrics.incr t.m_sheds;
    Atomic.incr s.s_shed;
    send s (Protocol.overloaded ~id ~queue_depth:t.cfg.queue_depth)
  end
  else begin
    Queue.push job t.q;
    Obs.Metrics.set t.m_qdepth (float_of_int (Queue.length t.q));
    Condition.signal t.q_nonempty;
    Mutex.unlock t.q_lock
  end

let hello_reply t ~client =
  ignore client;
  Protocol.ok ~id:None
    [ "server", Wire.String "obda-server";
      "protocol", Wire.Int 1;
      "engine", Wire.String (Obda.engine_name t.engine);
      "generation", Wire.Int (Obda.generation t.engine);
      "strategies", Wire.List (List.map (fun n -> Wire.String n) Protocol.strategy_names);
      "queries",
      Wire.List
        (List.map (fun e -> Wire.String e.Lubm.Workload.name) Lubm.Workload.queries) ]

let metrics_reply t s ~id scope =
  match scope with
  | Protocol.Scope_registry -> Protocol.ok ~id [ "registry", Wire.Raw (Obs.Metrics.to_json ()) ]
  | Protocol.Scope_session ->
    Protocol.ok ~id
      [ "scope", Wire.String "session";
        "session", Wire.Int s.s_id;
        "requests", Wire.Int (Atomic.get s.s_requests);
        "ok", Wire.Int (Atomic.get s.s_ok);
        "errors", Wire.Int (Atomic.get s.s_errors);
        "shed", Wire.Int (Atomic.get s.s_shed);
        "timeouts", Wire.Int (Atomic.get s.s_timeouts) ]
  | Protocol.Scope_server ->
    let st =
      locked t.state (fun () ->
          { accepted_sessions = t.n_accepted;
            active_sessions = t.n_active;
            completed = t.n_completed;
            ok = t.n_ok;
            shed = t.n_shed;
            timeouts = t.n_timeouts;
            protocol_errors = t.n_proto_errors })
    in
    let queued = locked t.q_lock (fun () -> Queue.length t.q) in
    Protocol.ok ~id
      [ "scope", Wire.String "server";
        "accepted_sessions", Wire.Int st.accepted_sessions;
        "active_sessions", Wire.Int st.active_sessions;
        "completed", Wire.Int st.completed;
        "ok", Wire.Int st.ok;
        "shed", Wire.Int st.shed;
        "timeouts", Wire.Int st.timeouts;
        "protocol_errors", Wire.Int st.protocol_errors;
        "queued", Wire.Int queued;
        "queue_depth", Wire.Int t.cfg.queue_depth;
        "generation", Wire.Int (Obda.generation t.engine) ]

(* one counter per distinct body predicate of an answered query *)
let count_predicates cq =
  Query.Cq.atoms cq
  |> List.map Query.Atom.pred_name
  |> List.sort_uniq String.compare
  |> List.iter (fun p ->
         Obs.Metrics.incr (Obs.Metrics.counter ("server.predicate." ^ p ^ ".answers")))

let job_done t ~ok =
  locked t.state (fun () ->
      t.n_completed <- t.n_completed + 1;
      if ok then t.n_ok <- t.n_ok + 1)

let run_answer t s ~id ~cq ~strategy ~deadline_ms ~limit ~enq_ns =
  let generation = ref 0 in
  let outcome =
    read_locked t.rw (fun () ->
        generation := Obda.generation t.engine;
        Obda.answer t.engine t.tbox strategy cq)
  in
  match outcome.Obda.answers with
  | Error e ->
    job_done t ~ok:false;
    Atomic.incr s.s_errors;
    send s (Protocol.error ~id ("engine: " ^ e))
  | Ok rows ->
    let total = List.length rows in
    let returned = min total limit in
    let shown = List.filteri (fun i _ -> i < returned) rows in
    let latency_ms = ms_since enq_ns in
    Obs.Metrics.observe t.m_latency latency_ms;
    count_predicates cq;
    job_done t ~ok:true;
    Atomic.incr s.s_ok;
    send s
      (Protocol.ok ~id
         [ "strategy", Wire.String (Obda.strategy_name strategy);
           "generation", Wire.Int !generation;
           "plan_cached", Wire.Bool outcome.Obda.plan_cached;
           "cq_count", Wire.Int outcome.Obda.cq_count;
           "search_ms", Wire.Float (1000. *. outcome.Obda.search_time);
           "eval_ms", Wire.Float (1000. *. outcome.Obda.eval_time);
           "latency_ms", Wire.Float latency_ms;
           "deadline_ms",
           (match deadline_ms with Some d -> Wire.Float d | None -> Wire.Null);
           "rows", Wire.Int total;
           "returned", Wire.Int returned;
           "truncated", Wire.Bool (total > returned);
           "answers",
           Wire.List
             (List.map (fun row -> Wire.List (List.map (fun v -> Wire.String v) row)) shown)
         ])

(* EXPLAIN runs ANSWER's pipeline up to the physical plan, so it shows
   the cached plan that ANSWER runs; EXPLAIN ANALYZE runs it through the
   instrumented executor ({!Obda.analyze}). *)
let run_explain t s ~id ~cq ~strategy ~analyze =
  let reply =
    read_locked t.rw (fun () ->
        let profile = Obda.profile t.engine and lay = Obda.layout t.engine in
        let reply (o : _ Obda.run) plan_json =
          let fol = o.Obda.reformulation in
          let dialect =
            if Query.Fol.is_ucq fol then "UCQ"
            else if Query.Fol.is_jucq fol then "JUCQ"
            else if Query.Fol.is_juscq fol then "JUSCQ"
            else "FOL"
          in
          Result.map
            (fun r ->
              [ "strategy", Wire.String (Obda.strategy_name strategy);
                "dialect", Wire.String dialect;
                "cq_disjuncts", Wire.Int o.Obda.cq_count;
                "join_width", Wire.Int (Query.Fol.join_width fol);
                "sql_bytes", Wire.Int o.Obda.sql_bytes;
                "analyze", Wire.Bool analyze;
                "plan", Wire.Raw (plan_json r) ])
            o.Obda.answers
        in
        if analyze then
          let a = Obda.analyze t.engine t.tbox strategy cq in
          reply a.Obda.a_outcome (fun _ ->
              Option.fold ~none:"null"
                ~some:(Rdbms.Explain.render_analyze_json profile lay)
                a.Obda.a_stats)
        else
          reply (Obda.explain t.engine t.tbox strategy cq)
            (Rdbms.Explain.render_json profile lay))
  in
  match reply with
  | Ok fields ->
    job_done t ~ok:true;
    Atomic.incr s.s_ok;
    send s (Protocol.ok ~id fields)
  | Error e ->
    job_done t ~ok:false;
    Atomic.incr s.s_errors;
    send s (Protocol.error ~id ("engine: " ^ e))

(* How long the exclusive write lock is held per UPDATE request. With
   delta-buffered storage this is O(pending delta) per insert, not
   O(table): the readers it stalls are blocked for the duration, so it
   is the server-side number the incremental-update path exists to
   shrink. *)
let m_update_lock_ms =
  Obs.Metrics.histogram ~help:"UPDATE write-lock hold time (ms)"
    "server.update.lock_ms"

let run_update t s ~id ~inserts =
  let accepted = ref 0 and duplicates = ref 0 in
  let lock_t0 = ref 0L in
  let generation =
    write_locked t.rw (fun () ->
        lock_t0 := Obs.Mclock.now_ns ();
        List.iter
          (fun ins ->
            let fresh =
              match ins with
              | Protocol.Insert_concept { concept; ind } ->
                Obda.insert_concept t.engine ~concept ~ind
              | Protocol.Insert_role { role; subj; obj } ->
                Obda.insert_role t.engine ~role ~subj ~obj
            in
            if fresh then incr accepted else incr duplicates)
          inserts;
        let g = Obda.generation t.engine in
        Obs.Metrics.observe m_update_lock_ms
          (Int64.to_float (Obs.Mclock.elapsed_ns ~since:!lock_t0) /. 1e6);
        g)
  in
  job_done t ~ok:true;
  Atomic.incr s.s_ok;
  send s
    (Protocol.ok ~id
       [ "generation", Wire.Int generation;
         "accepted", Wire.Int !accepted;
         "duplicates", Wire.Int !duplicates ])

let work_id = function
  | W_answer { id; _ } | W_explain { id; _ } | W_update { id; _ } -> id

let run_job t job =
  let s = job.j_session in
  let id = work_id job.j_work in
  let waited_ms = ms_since job.enq_ns in
  Obs.Metrics.observe t.m_qwait waited_ms;
  let deadline =
    match job.j_work with
    | W_answer { deadline_ms; _ } -> (
      match deadline_ms with None -> t.cfg.default_deadline_ms | d -> d)
    | _ -> None
  in
  match deadline with
  | Some d when waited_ms >= d ->
    locked t.state (fun () ->
        t.n_completed <- t.n_completed + 1;
        t.n_timeouts <- t.n_timeouts + 1);
    Obs.Metrics.incr t.m_timeouts;
    Atomic.incr s.s_timeouts;
    send s (Protocol.timeout ~id ~deadline_ms:d)
  | _ -> (
    try
      match job.j_work with
      | W_answer { id; cq; strategy; deadline_ms; limit } ->
        run_answer t s ~id ~cq ~strategy ~deadline_ms ~limit ~enq_ns:job.enq_ns
      | W_explain { id; cq; strategy; analyze } -> run_explain t s ~id ~cq ~strategy ~analyze
      | W_update { id; inserts } -> run_update t s ~id ~inserts
    with e ->
      job_done t ~ok:false;
      Atomic.incr s.s_errors;
      send s (Protocol.error ~id ("internal: " ^ Printexc.to_string e)))

(* {1 Threads} *)

let worker_loop t =
  let next () =
    Mutex.lock t.q_lock;
    while (not t.stopping) && (t.paused || Queue.is_empty t.q) do
      Condition.wait t.q_nonempty t.q_lock
    done;
    if t.stopping then begin
      Mutex.unlock t.q_lock;
      None
    end
    else begin
      let job = Queue.pop t.q in
      Obs.Metrics.set t.m_qdepth (float_of_int (Queue.length t.q));
      Mutex.unlock t.q_lock;
      Some job
    end
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some job ->
      run_job t job;
      loop ()
  in
  loop ()

let handle_request t s line =
  match Protocol.parse_request line with
  | Error e -> protocol_error t s ~id:None e
  | Ok req -> (
    Atomic.incr s.s_requests;
    match req with
    | Protocol.Hello { client } -> send s (hello_reply t ~client)
    | Protocol.Metrics { m_id; scope } -> send s (metrics_reply t s ~id:m_id scope)
    | Protocol.Quit -> raise Exit
    | Protocol.Answer { a_id = id; a_query; a_strategy; a_deadline_ms; a_limit } -> (
      Obs.Metrics.incr t.m_answer;
      match resolve_query a_query, resolve_strategy t a_strategy with
      | Error e, _ | _, Error e -> protocol_error t s ~id e
      | Ok cq, Ok strategy ->
        let limit =
          match a_limit with
          | Some l when l >= 0 -> min l t.cfg.max_answer_rows
          | _ -> t.cfg.max_answer_rows
        in
        enqueue t s ~id (W_answer { id; cq; strategy; deadline_ms = a_deadline_ms; limit }))
    | Protocol.Explain { e_id = id; e_query; e_strategy; e_analyze } -> (
      Obs.Metrics.incr t.m_explain;
      match resolve_query e_query, resolve_strategy t e_strategy with
      | Error e, _ | _, Error e -> protocol_error t s ~id e
      | Ok cq, Ok strategy -> enqueue t s ~id (W_explain { id; cq; strategy; analyze = e_analyze }))
    | Protocol.Update { u_id = id; inserts } ->
      Obs.Metrics.incr t.m_update;
      enqueue t s ~id (W_update { id; inserts }))

let session_loop t s =
  let quit = ref false in
  (try
     while not !quit do
       let line = input_line s.ic in
       if String.trim line <> "" then
         try handle_request t s line with
         | Exit ->
           send s (Protocol.ok ~id:None [ "bye", Wire.Bool true ]);
           quit := true
         | (End_of_file | Sys_error _ | Unix.Unix_error _) as e -> raise e
         | e ->
           (* any other exception must not kill the session silently:
              surface it as an ERROR reply and keep the connection *)
           protocol_error t s ~id:None ("internal: " ^ Printexc.to_string e)
     done
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  (* close under the out lock so a late worker reply can never write
     into a recycled file descriptor *)
  Mutex.lock s.out_lock;
  if s.s_alive then begin
    s.s_alive <- false;
    (try flush s.oc with _ -> ())
  end;
  (try Unix.close s.fd with _ -> ());
  Mutex.unlock s.out_lock;
  locked t.state (fun () ->
      t.n_active <- t.n_active - 1;
      t.sessions <- List.filter (fun x -> x.s_id <> s.s_id) t.sessions);
  Obs.Metrics.set t.m_active
    (float_of_int (locked t.state (fun () -> t.n_active)))

let next_session_id = Atomic.make 0

let accept_loop t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error _ ->
      if locked t.state (fun () -> t.stopping) then continue := false
      else Thread.delay 0.01
    | fd, _ ->
      let s =
        { s_id = Atomic.fetch_and_add next_session_id 1;
          fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd;
          out_lock = Mutex.create ();
          s_alive = true;
          s_requests = Atomic.make 0;
          s_ok = Atomic.make 0;
          s_errors = Atomic.make 0;
          s_shed = Atomic.make 0;
          s_timeouts = Atomic.make 0 }
      in
      locked t.state (fun () ->
          t.n_accepted <- t.n_accepted + 1;
          t.n_active <- t.n_active + 1;
          t.sessions <- s :: t.sessions);
      Obs.Metrics.incr t.m_accepted;
      Obs.Metrics.set t.m_active (float_of_int (locked t.state (fun () -> t.n_active)));
      let th = Thread.create (fun () -> session_loop t s) () in
      locked t.state (fun () -> t.session_threads <- th :: t.session_threads)
  done

(* {1 Lifecycle} *)

let start ?(config = default_config) ~engine ~tbox () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port) in
  (try Unix.bind listen_fd addr
   with e ->
     (try Unix.close listen_fd with _ -> ());
     raise e);
  Unix.listen listen_fd 64;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let t =
    { cfg = config;
      engine;
      tbox;
      listen_fd;
      bound_port;
      rw = rw_make ();
      q = Queue.create ();
      q_lock = Mutex.create ();
      q_nonempty = Condition.create ();
      paused = false;
      state = Mutex.create ();
      stopped_c = Condition.create ();
      stopping = false;
      stopped = false;
      sessions = [];
      session_threads = [];
      core_threads = [];
      n_accepted = 0;
      n_active = 0;
      n_completed = 0;
      n_ok = 0;
      n_shed = 0;
      n_timeouts = 0;
      n_proto_errors = 0;
      m_accepted = Obs.Metrics.counter "server.sessions.accepted";
      m_active = Obs.Metrics.gauge "server.sessions.active";
      m_answer = Obs.Metrics.counter "server.answer.requests";
      m_explain = Obs.Metrics.counter "server.explain.requests";
      m_update = Obs.Metrics.counter "server.update.requests";
      m_sheds = Obs.Metrics.counter "server.queue.sheds";
      m_qdepth = Obs.Metrics.gauge "server.queue.depth";
      m_qwait = Obs.Metrics.histogram "server.queue.wait_ms";
      m_latency = Obs.Metrics.histogram "server.answer.latency_ms";
      m_timeouts = Obs.Metrics.counter "server.deadline.timeouts";
      m_proto_errors = Obs.Metrics.counter "server.protocol.errors" }
  in
  let workers =
    List.init (max 1 config.workers) (fun _ -> Thread.create (fun () -> worker_loop t) ())
  in
  let acceptor = Thread.create (fun () -> accept_loop t) () in
  t.core_threads <- acceptor :: workers;
  t

let port t = t.bound_port

let stats t =
  locked t.state (fun () ->
      { accepted_sessions = t.n_accepted;
        active_sessions = t.n_active;
        completed = t.n_completed;
        ok = t.n_ok;
        shed = t.n_shed;
        timeouts = t.n_timeouts;
        protocol_errors = t.n_proto_errors })

let pause t = locked t.q_lock (fun () -> t.paused <- true)

let resume t =
  locked t.q_lock (fun () ->
      t.paused <- false;
      Condition.broadcast t.q_nonempty)

let stop t =
  let already = locked t.state (fun () ->
      let was = t.stopping in
      t.stopping <- true;
      was)
  in
  if already then
    (* second caller waits for the first to finish the teardown *)
    locked t.state (fun () ->
        while not t.stopped do
          Condition.wait t.stopped_c t.state
        done)
  else begin
    (* wake the workers *)
    locked t.q_lock (fun () -> Condition.broadcast t.q_nonempty);
    (* wake the acceptor: on Linux closing a descriptor does NOT wake a
       thread blocked in [accept]; [shutdown] on the listening socket
       does (the accept returns with an error), after which the close
       is safe *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with _ -> ());
    (try Unix.close t.listen_fd with _ -> ());
    (* wake session threads blocked in input_line; they close their
       own descriptors on the way out *)
    let sessions = locked t.state (fun () -> t.sessions) in
    List.iter (fun s -> try Unix.shutdown s.fd Unix.SHUTDOWN_ALL with _ -> ()) sessions;
    List.iter Thread.join t.core_threads;
    let rec drain () =
      match locked t.state (fun () ->
          match t.session_threads with
          | [] -> None
          | th :: rest ->
            t.session_threads <- rest;
            Some th)
      with
      | None -> ()
      | Some th ->
        Thread.join th;
        drain ()
    in
    drain ();
    locked t.state (fun () ->
        t.stopped <- true;
        Condition.broadcast t.stopped_c)
  end

let wait t =
  locked t.state (fun () ->
      while not t.stopped do
        Condition.wait t.stopped_c t.state
      done)
