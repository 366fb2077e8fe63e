(** The OBDA server: concurrent sessions over one shared engine.

    [start] binds a TCP socket and spawns an acceptor thread, one
    thread per connected session, and a fixed pool of worker threads
    draining a bounded request queue. Sessions speak the
    newline-delimited JSON protocol of {!Protocol}; all of them share
    the server's single engine and therefore the process-wide
    generation-invalidated plan, view and reformulation caches —
    that sharing is the point, it is what makes repeated-query traffic
    cheap across sessions.

    {b Admission control.} HELLO, METRICS and QUIT are answered
    inline by the session thread. ANSWER, EXPLAIN and UPDATE are
    enqueued; when the queue already holds [queue_depth] requests the
    request is shed immediately with an [OVERLOADED] reply instead of
    queueing unbounded latency. Per-request deadlines are measured
    from arrival with {!Obs.Mclock}; a request whose deadline has
    already passed when a worker picks it up is answered [TIMEOUT]
    without being evaluated.

    {b Reads and writes.} ANSWER/EXPLAIN run under a shared read
    lock, UPDATE under an exclusive write lock, so the engine's
    insert path (not audited for concurrent writers) is serialised
    while readers still overlap each other. An UPDATE bumps the KB
    generation; in-flight sessions observe it on their next request
    because the update drops every plan chosen under the old
    statistics (see DESIGN.md §13). EXPLAIN goes through ANSWER's own
    pipeline ({!Obda.explain}, {!Obda.analyze}), so it reports the
    cached plan that ANSWER runs.

    Session replies to pipelined requests may arrive out of request
    order; clients correlate them with the echoed ["id"] field. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port; see {!port} *)
  workers : int;  (** worker threads draining the request queue *)
  queue_depth : int;  (** bound on queued requests before shedding *)
  default_strategy : Obda.strategy;
      (** used when a request names no strategy *)
  default_deadline_ms : float option;
      (** applied to requests that carry no deadline; [None] = none *)
  max_answer_rows : int;
      (** server-side cap on rows in one ANSWER reply; client [limit]
          can only lower it *)
}

val default_config : config
(** [127.0.0.1:0], 2 workers, queue depth 64, [Gdl Ext_cost], no
    default deadline, 1000-row cap. *)

type t

val start : ?config:config -> engine:Obda.engine -> tbox:Dllite.Tbox.t -> unit -> t
(** Binds, listens and returns once the acceptor is running. Ignores
    [SIGPIPE] process-wide (a peer hanging up must not kill the
    server). Raises [Unix.Unix_error] when the bind fails. *)

val port : t -> int
(** The actually-bound port — the one to advertise when the config
    asked for port [0]. *)

type stats = {
  accepted_sessions : int;  (** connections accepted since start *)
  active_sessions : int;  (** currently-connected sessions *)
  completed : int;  (** queued requests fully processed *)
  ok : int;  (** of which answered [OK] *)
  shed : int;  (** requests refused with [OVERLOADED] *)
  timeouts : int;  (** requests answered [TIMEOUT] *)
  protocol_errors : int;  (** malformed or unresolvable requests *)
}

val stats : t -> stats
(** A consistent snapshot of the server-wide counters (also exported
    through {!Obs.Metrics} under the [server.*] names). *)

val pause : t -> unit
(** Stops workers from dequeuing; queued and newly-admitted requests
    wait. With the queue full, further requests shed deterministically
    — this is how the overload tests pin down shedding behaviour. *)

val resume : t -> unit
(** Undoes {!pause} and wakes the workers. *)

val stop : t -> unit
(** Shuts down: closes the listener, shuts down every session socket,
    wakes and joins all threads. Queued-but-unprocessed requests are
    dropped. Idempotent. *)

val wait : t -> unit
(** Blocks until {!stop} has completed (from another thread). *)
