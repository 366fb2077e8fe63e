(* obda-server: the concurrent OBDA endpoint.

   Loads a knowledge base the same way obda-cli does (generated LUBMe,
   --data file, --rdf graph or an mmap --store), then serves the
   newline-delimited JSON protocol of lib/server until SIGINT/SIGTERM.
   See DESIGN.md §13 for the protocol and README "Running the server"
   for a walkthrough. *)

open Cmdliner

let facts_arg =
  Arg.(value & opt int 20_000 & info [ "facts"; "n" ] ~docv:"N" ~doc:"Number of facts to generate.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let data_arg =
  Arg.(value & opt (some string) None
       & info [ "data" ] ~docv:"FILE" ~doc:"Load the ABox from $(docv) instead of generating it.")

let rdf_arg =
  Arg.(value & opt (some string) None
       & info [ "rdf" ] ~docv:"FILE"
           ~doc:"Load both TBox and ABox from an RDF (Turtle subset) graph; overrides --tbox/--data.")

let store_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"FILE"
           ~doc:"Open the ABox from a binary column store (mmap; implies the simple layout). \
                 Overrides --data/--facts/--rdf.")

let tbox_arg =
  Arg.(value & opt (some string) None
       & info [ "tbox" ] ~docv:"FILE"
           ~doc:"Load the TBox from $(docv) instead of the built-in LUBMe ontology.")

let engine_arg =
  let kinds = [ "pglite", `Pglite; "db2lite", `Db2lite ] in
  Arg.(value & opt (enum kinds) `Pglite
       & info [ "engine" ] ~docv:"ENGINE" ~doc:"Engine profile: $(b,pglite) or $(b,db2lite).")

let layout_arg =
  let layouts = [ "simple", `Simple; "rdf", `Rdf ] in
  Arg.(value & opt (enum layouts) `Simple
       & info [ "layout" ] ~docv:"LAYOUT" ~doc:"Storage layout: $(b,simple) or $(b,rdf).")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")

let port_arg =
  Arg.(value & opt int 7777 & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Listen port ($(b,0) = ephemeral).")

let workers_arg =
  Arg.(value & opt int 2
       & info [ "workers" ] ~docv:"N" ~doc:"Worker threads draining the request queue.")

let queue_depth_arg =
  Arg.(value & opt int 64
       & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Bound on queued requests; beyond it requests are shed with OVERLOADED.")

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Default per-request deadline; requests still queued past it get TIMEOUT.")

let max_rows_arg =
  Arg.(value & opt int 1000
       & info [ "max-rows" ] ~docv:"N" ~doc:"Cap on answer rows returned per ANSWER reply.")

let strategy_arg =
  Arg.(value & opt string "gdl-ext"
       & info [ "strategy"; "s" ] ~docv:"STRATEGY"
           ~doc:"Default reformulation strategy for requests that name none: ucq, uscq, \
                 croot, gdl-rdbms, gdl-ext, gdl20ms-ext or edl-ext.")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Evaluate plans with $(docv) domains ($(b,1) = sequential, $(b,0) = all cores).")

let plan_cache_arg =
  Arg.(value & opt int Obda.default_plan_cache_capacity
       & info [ "plan-cache" ] ~docv:"N" ~doc:"Plan-cache capacity in entries ($(b,0) disables it).")

let reform_cache_arg =
  Arg.(value & opt int Reform.Perfectref.default_cache_capacity
       & info [ "reform-cache" ] ~docv:"N"
           ~doc:"Reformulation-cache capacity in entries ($(b,0) disables it).")

let tbox_of tbox_file =
  match tbox_file with
  | Some file -> Syntax.Tbox_text.load file
  | None -> Lubm.Ontology.tbox

let load_kb rdf tbox_file data facts seed =
  match rdf with
  | Some file ->
    let kb = Rdf.Rdfs.load_kb file in
    Dllite.Kb.tbox kb, Dllite.Kb.abox kb
  | None ->
    let tbox = tbox_of tbox_file in
    let abox =
      match data with
      | Some file -> (
        match Dllite.Abox.load file with
        | Ok abox -> abox
        | Error e ->
          Fmt.epr "obda-server: %s: %a@." file Dllite.Abox.pp_parse_error e;
          exit 1)
      | None -> Lubm.Generator.generate ~seed ~target_facts:facts ()
    in
    tbox, abox

let serve_cmd =
  let run facts seed data rdf store tbox_file engine_kind layout host port workers
      queue_depth deadline_ms max_rows strategy jobs plan_cap reform_cap =
    Parallel.set_default_jobs (if jobs <= 0 then Parallel.recommended_jobs () else jobs);
    Obda.set_plan_cache_capacity plan_cap;
    Reform.Perfectref.set_cache_capacity reform_cap;
    let default_strategy =
      match Server.Protocol.strategy_of_name strategy with
      | Some s -> s
      | None ->
        Fmt.epr "obda-server: unknown strategy %s (one of %s)@." strategy
          (String.concat ", " (List.map fst Obda.strategies));
        exit 1
    in
    let tbox, engine =
      match store with
      | Some file -> (
        match Rdbms.Storage.load file with
        | Ok s ->
          ( tbox_of tbox_file,
            Obda.make_engine_of_layout engine_kind (Rdbms.Layout.of_storage s) )
        | Error msg ->
          Fmt.epr "obda-server: %s@." msg;
          exit 1)
      | None ->
        let tbox, abox = load_kb rdf tbox_file data facts seed in
        tbox, Obda.make_engine engine_kind layout abox
    in
    let config =
      { Server.Core.host;
        port;
        workers;
        queue_depth;
        default_strategy;
        default_deadline_ms = deadline_ms;
        max_answer_rows = max_rows }
    in
    let t = Server.Core.start ~config ~engine ~tbox () in
    Fmt.pr "obda-server: %s listening on %s:%d (workers %d, queue %d, strategy %s)@."
      (Obda.engine_name engine) host (Server.Core.port t) workers queue_depth strategy;
    let stop_requested = ref false in
    let request_stop _ = stop_requested := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    while not !stop_requested do
      Thread.delay 0.25
    done;
    Fmt.pr "obda-server: shutting down@.";
    Server.Core.stop t;
    let st = Server.Core.stats t in
    Fmt.pr
      "obda-server: served %d sessions, %d requests (%d ok, %d shed, %d timeouts, %d errors)@."
      st.Server.Core.accepted_sessions st.Server.Core.completed st.Server.Core.ok
      st.Server.Core.shed st.Server.Core.timeouts st.Server.Core.protocol_errors
  in
  Cmd.v
    (Cmd.info "obda-server" ~version:"%%VERSION%%"
       ~doc:"Serve OBDA query answering over a line-delimited JSON TCP protocol.")
    Term.(const run $ facts_arg $ seed_arg $ data_arg $ rdf_arg $ store_arg $ tbox_arg
          $ engine_arg $ layout_arg $ host_arg $ port_arg $ workers_arg $ queue_depth_arg
          $ deadline_arg $ max_rows_arg $ strategy_arg $ jobs_arg $ plan_cache_arg
          $ reform_cache_arg)

let () = exit (Cmd.eval serve_cmd)
