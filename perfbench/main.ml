(* perfbench: the OBDA engine's trajectory benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1 [--corrupt-reference]

   (from the repository root: bash perfbench/run.sh ..., which builds
   first). --workload all runs the four workloads one after the other,
   each in a process of its own, each printing its own result line.

   Workloads (all on the LUBM∃ ontology, pglite engine, simple layout,
   strategies ucq / croot / gdl-ext, default job count):
     adhoc-5k     one closed-loop caller; Q1-Q13 with the first head
                  variable bound to a constant from the whole individual
                  pool, so the plan cache misses and search dominates
     repeat-5k    one closed-loop caller; Zipf stream over Q1-Q13, every
                  plan primed, so per-request compile stages dominate
     repeat-100k  the same stream at 100k facts, where execution dominates
     serve-rw-5k  obda_server as its own process, two closed-loop TCP
                  clients, Zipf reads of full rows; one request in 15 is
                  instead a single-fact UPDATE between fresh individuals

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 a first half runs untraced (registry deltas, minor
   words, the tracing baseline) and a second half traced, replaying
   every reformulation stage by stage, and the line carries the
   per-layer metrics. Every answer is checked against [Reference], a
   chase-based oracle that shares no code with the engine's query path;
   --corrupt-reference plants one wrong reference row to show the check
   fires. *)

let usage =
  "perfbench --workload adhoc-5k|repeat-5k|repeat-100k|serve-rw-5k|all --seed N --seconds S \
   --trace 0|1 [--corrupt-reference]"

type kind =
  | Adhoc
  | Repeat
  | Serve

type workload = {
  name : string;
  facts : int;
  kind : kind;
}

let workloads =
  [ { name = "adhoc-5k"; facts = 5_000; kind = Adhoc };
    { name = "repeat-5k"; facts = 5_000; kind = Repeat };
    { name = "repeat-100k"; facts = 100_000; kind = Repeat };
    { name = "serve-rw-5k"; facts = 5_000; kind = Serve } ]

let tbox = Lubm.Ontology.tbox

let queries = Array.of_list Lubm.Workload.queries

let strategies = [| "ucq", Obda.Ucq; "croot", Obda.Croot; "gdl-ext", Obda.Gdl Obda.Ext_cost |]

(* Set-up is repeated and its median reported, so that work moved into
   set-up shows without one slow round deciding the number. *)
let setup_rounds = 3

(* Single-fact inserts timed at the end of traced in-process runs: an
   insert flushes the generation-keyed plans, so none may run inside
   the read window of a repeat workload. *)
let inprocess_updates = 5_000

(* End-to-end times are CPU times scaled to a reference host speed:
   CPU per request, and set-up as the CPU time of the processes doing
   it, each times [reference_pass_ms] over the median CPU time of a
   calibration pass timed alongside the run. On a shared VM the
   hypervisor runs other guests on the benchmark's vCPUs (steal).
   Stolen time is not charged to a process, but it stretches
   wall-clock intervals, by more than its share at the default job
   count, where each parallel operator waits for a worker woken on the
   other vCPU: runs with 2-30% steal on a 2-vCPU VM lost up to 45% of
   their wall-clock throughput. CPU time is not stolen, but it follows
   the host's speed, which moved by up to 1.7x within minutes on the
   same VM; the calibration pass follows it too. Wall-clock latency and
   throughput, and the unscaled CPU times, are printed as notes. *)

(* Peak RSS is read once this many requests have completed, so that it
   measures a fixed amount of work: on adhoc-5k it grows with the
   requests served (about 46 MB after 200, 90 MB after 800), and a run
   slowed by the host would otherwise report a smaller peak. *)
let rss_requests = 200

(* A fixed computation in the style of the engine's own (string
   hashing, allocation, list sorting), which no engine change moves. *)
let calibration_pass () =
  let h = Hashtbl.create 4096 in
  for i = 0 to 19_999 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 100_003)) i
  done;
  let acc = ref 0 in
  for i = 0 to 19_999 do
    acc := !acc + Option.value ~default:0 (Hashtbl.find_opt h (string_of_int i))
  done;
  let sorted = List.sort compare (List.init 20_000 (fun i -> i * 7919 mod 100_003)) in
  ignore (Sys.opaque_identity (sorted, !acc))

let calibration_gap_s = 0.2

(* CPU ms of a calibration pass on the host the figures are scaled to *)
let reference_pass_ms = 15.

(* Probe passes over all 39 primed plans that record the executor's
   scan/build request totals per pass: a racing cache miss makes them
   depend on scheduling at jobs > 1, and the spread shows it. *)
let probe_passes = 3

let work_dir = ".perfbench"

(* Each workload's data set is one fixed LUBM∃ instance at its scale;
   --seed draws the traffic over it (order, constants, writes). A
   data set per seed would put the spread between generated instances
   into every number. *)
let data_seed = 42

(* ---- requests ---------------------------------------------------- *)

type request = {
  qi : int;  (* index into [queries] *)
  si : int;  (* index into [strategies] *)
  bound : string option;  (* constant for the first head variable *)
}

(* Streams are drawn in shuffled blocks with fixed quotas rather than
   independently, so that every run sees the same mix and a percentile
   does not move with which queries a seed happened to draw. *)
let blocks rng (block : 'a array) =
  let pos = ref (Array.length block) in
  fun () ->
    if !pos = Array.length block then begin
      for i = Array.length block - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = block.(i) in
        block.(i) <- block.(j);
        block.(j) <- t
      done;
      pos := 0
    end;
    incr pos;
    block.(!pos - 1)

(* Zipf (weight 1/rank) over Q1-Q13 as whole quotas, round (24 / rank),
   each with all three strategies: blocks of 228 requests. *)
let zipf_stream rng =
  let block =
    List.init (Array.length queries) (fun qi ->
        let quota = Float.to_int (Float.round (24. /. float_of_int (qi + 1))) in
        List.init (quota * Array.length strategies) (fun k ->
            { qi; si = k mod Array.length strategies; bound = None }))
    |> List.concat |> Array.of_list
  in
  blocks rng block

(* Every (query, strategy) pair once per block of 39, each bound to a
   constant drawn from the whole individual pool. *)
let adhoc_stream rng individuals =
  let block = Array.length queries * Array.length strategies in
  let next =
    blocks rng
      (Array.init block (fun i ->
           { qi = i / Array.length strategies; si = i mod Array.length strategies; bound = None }))
  in
  fun () ->
    { (next ()) with bound = Some individuals.(Random.State.int rng (Array.length individuals)) }

let all_plans =
  List.concat_map
    (fun qi -> List.init (Array.length strategies) (fun si -> { qi; si; bound = None }))
    (List.init (Array.length queries) Fun.id)

let bind_first_head (q : Query.Cq.t) c =
  match q.Query.Cq.head with
  | Query.Term.Var _ as x :: _ ->
    let sub t = if Query.Term.equal t x then Query.Term.Cst c else t in
    let atom = function
      | Query.Atom.Ca (p, t) -> Query.Atom.Ca (p, sub t)
      | Query.Atom.Ra (p, t1, t2) -> Query.Atom.Ra (p, sub t1, sub t2)
    in
    Query.Cq.make ~name:q.Query.Cq.name ~head:(List.map sub q.Query.Cq.head)
      ~body:(List.map atom q.Query.Cq.body) ()
  | _ -> q

let cq_of r =
  let q = queries.(r.qi).Lubm.Workload.query in
  match r.bound with None -> q | Some c -> bind_first_head q c

(* The answers of q[x:=c] are the rows of q whose x column is c. *)
let expected reference r =
  let rows = reference.(r.qi) in
  match r.bound with None -> rows | Some c -> List.filter (fun row -> List.hd row = c) rows

(* ---- writes -------------------------------------------------------- *)

(* Each write adds one role fact between two fresh individuals, over
   roles the reads scan. Role inserts only, so that the update latency
   is one population rather than a mixture of concept and role inserts
   with the median on the step between them. Before timing, the run
   checks that the whole sequence leaves the certain answers of every
   read unchanged; since certain answers only grow, equal at both ends
   means equal throughout, so one reference checks every reply. *)
type fact = {
  role : string;
  subj : string;
  obj : string;
}

let write_fact ~tag i =
  let fresh k = Printf.sprintf "pbw%s_%d_%s" tag i k in
  { role = (if i mod 2 = 0 then "takesCourse" else "teacherOf"); subj = fresh "s"; obj = fresh "c" }

let serve_clients = 2

(* Each run half may use half of these: enough for a 60-second run at
   several times the throughput measured on a 2-core host. *)
let writes_per_client = 4_000

(* One request in [write_every] is an UPDATE, at a seeded position. *)
let write_every = 15

let client_tag ~seed k = Printf.sprintf "%d_%d" seed k

(* ---- reference ------------------------------------------------------ *)

type reference = {
  rows : string list list array;  (* certain answers of Q1..Q13 *)
  cross_checked : bool option;  (* agrees with Dllite.Chase (5k only) *)
  writes_neutral : bool option;  (* serve: the writes change no answer *)
  server_bytes_per_fact : float;  (* serve: the server's column store *)
}

let bytes_per_fact storage =
  float_of_int (Rdbms.Storage.column_bytes storage)
  /. float_of_int (max 1 (Rdbms.Storage.total_facts storage))

let compute_reference w ~seed =
  let abox = Lubm.Generator.generate ~seed:data_seed ~target_facts:w.facts () in
  let qs = Array.to_list (Array.map (fun e -> e.Lubm.Workload.query) queries) in
  let facts = Reference.facts_of_abox abox in
  let rows = Reference.certain_answers tbox facts qs in
  let cross_checked =
    if w.facts <= 10_000 then Some (Reference.agrees tbox abox qs rows) else None
  in
  let writes_neutral, server_bytes_per_fact =
    match w.kind with
    | Serve ->
      let writes =
        List.concat_map
          (fun k ->
            List.init writes_per_client (fun i ->
                let f = write_fact ~tag:(client_tag ~seed k) i in
                f.role, [ f.subj; f.obj ]))
          (List.init serve_clients Fun.id)
      in
      ( Some (Reference.certain_answers tbox (facts @ writes) qs = rows),
        bytes_per_fact (Rdbms.Storage.of_abox abox) )
    | Adhoc | Repeat -> None, 0.
  in
  { rows = Array.of_list rows; cross_checked; writes_neutral; server_bytes_per_fact }

(* The reference runs in a child process, so that its memory does not
   count in the peak RSS of the process that runs the engine. It must
   run before any domain or thread exists. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    let v : ('a, string) result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc v [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let v : ('a, string) result =
      try Marshal.from_channel ic with End_of_file -> Error "reference process died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match v with Ok v -> v | Error e -> failwith ("reference: " ^ e))

(* ---- run header ------------------------------------------------------ *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Some s

(* The commit, read from .git without running git; "none" in a
   checkout that is not a repository. *)
let commit () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head -> (
    let head = String.trim head in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> (
      match read_file (Filename.concat ".git" r) with
      | Some c -> String.trim c
      | None -> (
        match read_file ".git/packed-refs" with
        | None -> "unknown"
        | Some packed ->
          String.split_on_char '\n' packed
          |> List.find_map (fun l ->
                 match String.split_on_char ' ' l with
                 | [ c; r' ] when r' = r -> Some c
                 | _ -> None)
          |> Option.value ~default:"unknown"))
    | _ -> head)

(* Lines of lib/**/*.ml, the size the design aim tracks. *)
let lib_ml_lines () =
  let rec walk dir =
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then acc + walk path
        else if Filename.check_suffix entry ".ml" then
          match read_file path with
          | Some s -> acc + List.length (String.split_on_char '\n' s) - 1
          | None -> acc
        else acc)
      0
      (try Sys.readdir dir with Sys_error _ -> [||])
  in
  walk "lib"

let header w ~seed ~seconds ~trace =
  Printf.printf
    "# header {\"workload\":%S,\"seed\":%d,\"seconds\":%d,\"trace\":%b,\"host_cores\":%d,\
     \"ocaml\":%S,\"default_jobs\":%d,\"commit\":%S,\"lib_ml_lines\":%d,\"facts\":%d}\n%!"
    w.name seed seconds trace (Domain.recommended_domain_count ()) Sys.ocaml_version
    (Parallel.default_jobs ()) (commit ()) (lib_ml_lines ()) w.facts

(* ---- spans ------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;  (* 0 for a request span *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

let spans = ref []

let spans_lock = Mutex.create ()

let next_span = Atomic.make 1

let record ~parent name start_ns stop_ns =
  let id = Atomic.fetch_and_add next_span 1 in
  Mutex.protect spans_lock (fun () -> spans := { id; parent; name; start_ns; stop_ns } :: !spans);
  id

let span_ms s = Stats.ms_of_ns (Int64.sub s.stop_ns s.start_ns)

let write_spans (w : workload) ~seed =
  let path = Filename.concat work_dir (Printf.sprintf "spans-%s-%d.jsonl" w.name seed) in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.parent s.name s.start_ns s.stop_ns)
    (List.rev !spans);
  close_out oc

(* total ms per span name, over every span recorded *)
let span_totals () =
  let t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Hashtbl.replace t s.name (span_ms s +. Option.value ~default:0. (Hashtbl.find_opt t s.name)))
    !spans;
  fun name -> Option.value ~default:0. (Hashtbl.find_opt t name)

(* ---- per-operator EXPLAIN ANALYZE totals ---------------------------- *)

let op_names =
  [ "scan"; "hash_join"; "merge_join"; "index_join"; "project"; "distinct"; "union";
    "materialize"; "sip" ]

let op_name = function
  | Rdbms.Plan.Scan _ -> "scan"
  | Rdbms.Plan.Hash_join _ -> "hash_join"
  | Rdbms.Plan.Merge_join _ -> "merge_join"
  | Rdbms.Plan.Index_join _ -> "index_join"
  | Rdbms.Plan.Project _ -> "project"
  | Rdbms.Plan.Distinct _ -> "distinct"
  | Rdbms.Plan.Union _ -> "union"
  | Rdbms.Plan.Materialize _ -> "materialize"
  | Rdbms.Plan.Sip _ -> "sip"

type op_totals = {
  self_ms : (string, float) Hashtbl.t;
  out_rows : (string, float) Hashtbl.t;
}

let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* Self time is a node's time minus its children's, floored at zero:
   parallel union arms can together outlast their parent. *)
let rec add_stats ops (s : Rdbms.Exec.node_stats) =
  let children_ns =
    List.fold_left (fun acc c -> Int64.add acc c.Rdbms.Exec.elapsed_ns) 0L s.Rdbms.Exec.children
  in
  let op = op_name s.Rdbms.Exec.plan in
  add ops.self_ms op (Float.max 0. (Stats.ms_of_ns (Int64.sub s.Rdbms.Exec.elapsed_ns children_ns)));
  add ops.out_rows op (float_of_int s.Rdbms.Exec.actual_rows);
  List.iter (add_stats ops) s.Rdbms.Exec.children

(* ---- results ---------------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let tally = { attempted = 0; failed = 0; notes = [] }

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      tally.failed <- tally.failed + 1;
      if List.length tally.notes < 5 then tally.notes <- msg :: tally.notes)
    fmt

let metrics : (string * float * string) list ref = ref []

let metric name unit value =
  metrics := (name, (if Float.is_finite value then value else 0.), unit) :: !metrics

let note fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

let describe_latency label xs =
  let n = List.length xs in
  let p q = Stats.percentile q xs in
  note "%s: n=%d p25=%.4f p50=%.4f p75=%.4f p95=%.4f ms (%d beyond) p99=%.4f ms (%d beyond)%s"
    label n (p 0.25) (p 0.5) (p 0.75) (p 0.95) (Stats.beyond 0.95 xs) (p 0.99)
    (Stats.beyond 0.99 xs)
    (if Stats.beyond 0.95 xs < 10 then " -- fewer than ten samples beyond p95" else "")

(* ---- in-process workloads -------------------------------------------- *)

type inproc = {
  engine : Obda.engine;
  storage : Rdbms.Storage.t;
}

let answer ip r = Obda.answer ip.engine tbox (snd strategies.(r.si)) (cq_of r)

let setup_inprocess (w : workload) =
  Obda.clear_plan_cache ();
  Reform.Perfectref.clear_cache ();
  let b = Rdbms.Storage.Builder.create () in
  ignore
    (Lubm.Generator.generate_into ~seed:data_seed ~target_facts:w.facts
       ~add_concept:(Rdbms.Storage.Builder.add_concept b)
       ~add_role:(Rdbms.Storage.Builder.add_role b) ());
  let storage = Rdbms.Storage.Builder.finish b in
  let ip = { engine = Obda.make_engine_of_layout `Pglite (Rdbms.Layout.of_storage storage); storage } in
  List.iter (fun r -> ignore (answer ip r)) all_plans;
  ip

let check_outcome reference r (o : Obda.outcome) =
  match o.Obda.answers with
  | Error e -> fail "%s/%s: engine error %s" queries.(r.qi).Lubm.Workload.name (fst strategies.(r.si)) e
  | Ok rows ->
    if rows <> expected reference r then
      fail "%s/%s%s: %d rows, reference has %d" queries.(r.qi).Lubm.Workload.name
        (fst strategies.(r.si))
        (match r.bound with Some c -> "[" ^ c ^ "]" | None -> "")
        (List.length rows) (List.length (expected reference r))

(* What a run keeps of each request; outcomes themselves are dropped
   once checked, so the benchmark's own memory stays out of the peak
   RSS. *)
type sample = {
  ms : float;
  cpu_ms : float;  (* CPU time of this process, all domains *)
  cached : bool;
  search_ms : float;
  eval_ms : float;
  sql_bytes : int;
  rows : int;
}

(* One closed-loop caller until [stop busy_ms] holds; checking the
   answers runs between requests and is not counted as busy time. *)
let closed_loop ip reference next ~stop ~on_request =
  let busy = ref 0. and samples = ref [] in
  while not (stop !busy) do
    let r = next () in
    let c0 = Stats.cpu_s () in
    let t0 = Obs.Mclock.now_ns () in
    let o = answer ip r in
    let t1 = Obs.Mclock.now_ns () in
    let cpu_ms = (Stats.cpu_s () -. c0) *. 1000. in
    let ms = Stats.ms_of_ns (Int64.sub t1 t0) in
    busy := !busy +. ms;
    tally.attempted <- tally.attempted + 1;
    check_outcome reference r o;
    on_request r o t0 t1;
    samples :=
      { ms; cpu_ms; cached = o.Obda.plan_cached; search_ms = o.Obda.search_time *. 1000.;
        eval_ms = o.Obda.eval_time *. 1000.; sql_bytes = o.Obda.sql_bytes;
        rows = (match o.Obda.answers with Ok r -> List.length r | Error _ -> 0) }
      :: !samples
  done;
  List.rev !samples

let plan_hit_share samples =
  Stats.ratio
    (float_of_int (List.length (List.filter (fun s -> s.cached) samples)))
    (float_of_int (List.length samples))

(* The calibrator: this executable with --calibrate, at the lowest
   priority, timing a calibration pass every [calibration_gap_s] while
   the run sets up and measures, so that it sees the host's speed when
   the engine does. *)
type calibrator = {
  pid : int;
  out : Unix.file_descr;
  mutable passes : float list option;  (* [Some] once stopped *)
}

let calibrate_forever () =
  let parent = Unix.getppid () in
  ignore (Unix.nice 19);
  (* a calibrator whose run was killed stops with it *)
  while Unix.getppid () = parent do
    let c0 = Stats.cpu_s () in
    calibration_pass ();
    Printf.printf "%.17g\n%!" ((Stats.cpu_s () -. c0) *. 1000.);
    Unix.sleepf calibration_gap_s
  done

let stop_calibrator c =
  match c.passes with
  | Some passes -> passes
  | None ->
    (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] c.pid);
    let ic = Unix.in_channel_of_descr c.out in
    let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> acc in
    let passes = List.filter_map float_of_string_opt (read []) in
    close_in ic;
    c.passes <- Some passes;
    passes

let start_calibrator () =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name [| Sys.executable_name; "--calibrate" |] Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let c = { pid; out = r; passes = None } in
  at_exit (fun () -> ignore (stop_calibrator c));
  c

(* The factor to the reference host: stops the calibrator. *)
let host_scale calibrator =
  let passes = stop_calibrator calibrator in
  describe_latency "calibration pass CPU" passes;
  if passes = [] then failwith "the calibrator timed no pass";
  reference_pass_ms /. Stats.median passes

let e2e_inprocess ip reference next ~seconds ~setup_s ~calibrator =
  let count = ref 0 and rss = ref nan in
  let samples =
    closed_loop ip reference next ~stop:(fun busy -> busy >= seconds *. 1000.)
      ~on_request:(fun _ _ _ _ ->
        incr count;
        if !count = rss_requests then rss := Stats.vm_hwm_mb "self")
  in
  if Float.is_nan !rss then rss := Stats.vm_hwm_mb "self";
  let lat = List.map (fun s -> s.ms) samples and cpu = List.map (fun s -> s.cpu_ms) samples in
  describe_latency "read latency" lat;
  describe_latency "engine CPU per read" cpu;
  note "plan-cache hit share %.4f" (plan_hit_share samples);
  note "overall throughput %.2f/s" (float_of_int (List.length samples) /. (Stats.sum lat /. 1000.));
  note "unscaled: %.4f ms of CPU per request, set-up %.4f s of CPU" (Stats.mean cpu) setup_s;
  let scale = host_scale calibrator in
  metric "cpu_ms_per_request" "ms" (scale *. Stats.mean cpu);
  metric "setup_s" "s" (scale *. setup_s);
  metric "peak_rss_mb" "MB" !rss;
  metric "store_bytes_per_fact" "bytes" (bytes_per_fact ip.storage)

let insert_latency ip ~seed =
  let updates =
    List.init inprocess_updates (fun i ->
        let f = write_fact ~tag:(Printf.sprintf "%d_local" seed) i in
        let t0 = Obs.Mclock.now_ns () in
        let fresh = Obda.insert_role ip.engine ~role:f.role ~subj:f.subj ~obj:f.obj in
        let ms = Stats.ms_since t0 in
        tally.attempted <- tally.attempted + 1;
        if not fresh then fail "insert of a fresh fact reported a duplicate";
        ms)
  in
  describe_latency "single-fact insert latency" updates;
  Stats.median updates

(* The traced request: the Obda.answer call is the request span; its
   reformulation is then replayed stage by stage, one child span per
   call, and the replayed answers must equal the outcome's. *)
let traced_request ip ops r (o : Obda.outcome) t0 t1 =
  let req = record ~parent:0 "request" t0 t1 in
  let search_ns = Int64.of_float (o.Obda.search_time *. 1e9) in
  ignore (record ~parent:req "obda.search" t0 (Int64.add t0 search_ns));
  match o.Obda.answers with
  | Error _ -> ()
  | Ok rows ->
    let layout = Obda.layout ip.engine in
    let stage name f =
      let s = Obs.Mclock.now_ns () in
      let v = f () in
      ignore (record ~parent:req name s (Obs.Mclock.now_ns ()));
      v
    in
    let fol = o.Obda.reformulation in
    let sql =
      stage "sql" (fun () -> Sql.Sql_ast.to_string (Sql.Sql_gen.of_fol layout fol))
    in
    if String.length sql <> o.Obda.sql_bytes then fail "replayed SQL length differs";
    let plan = stage "rdbms.planner" (fun () -> Rdbms.Planner.of_fol layout fol) in
    let plan =
      stage "cost.sip" (fun () ->
          if Obda.sip_enabled ip.engine then
            Cost.Sip_pass.annotate ~model:(Cost.Cost_model.calibrated `Pglite)
              ?feedback:(Obda.feedback_store ip.engine) layout plan
          else plan)
    in
    let rel, stats =
      stage "rdbms.exec" (fun () ->
          Rdbms.Exec.run_analyzed ~config:(Obda.profile ip.engine).Rdbms.Explain.exec_config
            layout plan)
    in
    let replayed =
      stage "rdbms.decode" (fun () -> Rdbms.Exec.decode_rows layout (Rdbms.Relation.distinct rel))
    in
    add_stats ops stats;
    if replayed <> rows then fail "%s: replayed answers differ" queries.(r.qi).Lubm.Workload.name

let probe_counts run_pass snapshot =
  let counts =
    List.init probe_passes (fun _ ->
        let before = snapshot () in
        run_pass ();
        let after = snapshot () in
        ( Stats.counter_delta ~before ~after "exec.scan.requests",
          Stats.counter_delta ~before ~after "exec.build.requests" ))
  in
  let report label xs =
    note "%s per pass over the %d plans: %s" label (List.length all_plans)
      (String.concat " " (List.map (Printf.sprintf "%.0f") xs));
    metric ("rdbms.exec." ^ label ^ "_per_pass") "count" (Stats.median xs);
    metric ("rdbms.exec." ^ label ^ "_spread") "count"
      (List.fold_left Float.max neg_infinity xs -. List.fold_left Float.min infinity xs)
  in
  report "scan_requests" (List.map fst counts);
  report "build_requests" (List.map snd counts)

let layer_inprocess ip reference next ~seed ~seconds =
  (* untraced half: registry deltas, allocation, tracing baseline *)
  let before = Stats.local_snapshot () and words0 = (Gc.quick_stat ()).Gc.minor_words in
  let base =
    closed_loop ip reference next ~stop:(fun busy -> busy >= seconds *. 500.)
      ~on_request:(fun _ _ _ _ -> ())
  in
  let words1 = (Gc.quick_stat ()).Gc.minor_words and after = Stats.local_snapshot () in
  let n = float_of_int (List.length base) in
  let per_request name = Stats.counter_delta ~before ~after name /. n in
  (* traced half *)
  let ops = { self_ms = Hashtbl.create 16; out_rows = Hashtbl.create 16 } in
  let deadline = Int64.add (Obs.Mclock.now_ns ()) (Int64.of_float (seconds /. 2. *. 1e9)) in
  let traced =
    closed_loop ip reference next
      ~stop:(fun _ -> Obs.Mclock.now_ns () >= deadline)
      ~on_request:(traced_request ip ops)
  in
  let nt = float_of_int (List.length traced) in
  let total = span_totals () in
  let per_traced x = x /. nt in
  let search = per_traced (List.fold_left (fun a s -> a +. s.search_ms) 0. traced) in
  let eval = per_traced (List.fold_left (fun a s -> a +. s.eval_ms) 0. traced) in
  let request = per_traced (total "request") in
  let sql_ms = per_traced (total "sql") and planner_ms = per_traced (total "rdbms.planner")
  and sip_ms = per_traced (total "cost.sip") and exec_ms = per_traced (total "rdbms.exec")
  and decode_ms = per_traced (total "rdbms.decode") in
  let stage_sum = search +. sql_ms +. planner_ms +. sip_ms +. exec_ms +. decode_ms in
  note "traced: %d requests, request span %.4f ms, search + replayed stages %.4f ms (%.3f of it)"
    (List.length traced) request stage_sum (Stats.ratio stage_sum request);
  metric "obda.search_ms" "ms" search;
  metric "obda.sql_ms" "ms" (request -. search -. eval);
  metric "obda.eval_ms" "ms" eval;
  metric "cache.plan.hit_share" "share" (plan_hit_share (base @ traced));
  metric "reform.cq_generated" "count" (per_request "reform.cq.generated");
  metric "reform.containment_checks" "count" (per_request "reform.containment.checks");
  metric "reform.dedup_hits" "count" (per_request "reform.dedup_hits");
  metric "covers.fragments_reformulated" "count" (per_request "cover.fragments.reformulated");
  metric "optimizer.gdl_covers_scored" "count" (per_request "gdl.covers.scored");
  metric "sql.ms" "ms" sql_ms;
  metric "sql.bytes" "bytes" (per_traced (List.fold_left (fun a s -> a +. float_of_int s.sql_bytes) 0. traced));
  metric "rdbms.planner.ms" "ms" planner_ms;
  metric "cost.sip.annotate_ms" "ms" sip_ms;
  metric "cost.sip.rows_pruned" "count" (per_request "sip.rows_pruned");
  metric "cost.sip.arms_elided" "count" (per_request "sip.arms_elided");
  metric "rdbms.exec.ms" "ms" exec_ms;
  let hottest = ref ("none", neg_infinity) in
  List.iter
    (fun op ->
      let ms = Option.value ~default:0. (Hashtbl.find_opt ops.self_ms op) in
      if ms > snd !hottest then hottest := op, ms;
      metric (Printf.sprintf "rdbms.exec.%s.self_ms" op) "ms" (per_traced ms);
      metric (Printf.sprintf "rdbms.exec.%s.rows" op) "count"
        (per_traced (Option.value ~default:0. (Hashtbl.find_opt ops.out_rows op))))
    op_names;
  note "hottest operator: %s (%.4f ms self time per request)" (fst !hottest) (per_traced (snd !hottest));
  let answer_rows = List.fold_left (fun a s -> a +. float_of_int s.rows) 0. traced in
  let op_rows = Hashtbl.fold (fun _ v a -> a +. v) ops.out_rows 0. in
  metric "rdbms.exec.rows_per_answer" "count" (Stats.ratio op_rows answer_rows);
  let share hits requests =
    Stats.ratio (Stats.counter_delta ~before ~after hits) (Stats.counter_delta ~before ~after requests)
  in
  metric "rdbms.exec.scan_cache_hit_share" "share" (share "exec.scan.cache_hits" "exec.scan.requests");
  metric "rdbms.exec.build_cache_hit_share" "share" (share "exec.build.cache_hits" "exec.build.requests");
  metric "rdbms.decode.ms" "ms" decode_ms;
  let skipped = Stats.counter_delta ~before ~after "storage.segments_skipped" in
  metric "rdbms.storage.segment_skip_share" "share"
    (Stats.ratio skipped (skipped +. Stats.counter_delta ~before ~after "storage.segments_scanned"));
  List.iter (fun m -> metric m "ms" 0.)
    [ "server.rtt_ms"; "server.handler_ms"; "server.wire_ms"; "server.wait_ms";
      "server.queue_wait_ms"; "server.update.lock_ms" ];
  metric "gc.minor_words_per_request" "words" ((words1 -. words0) /. n);
  metric "trace.overhead_share" "share"
    (Stats.ratio request (Stats.mean (List.map (fun s -> s.ms) base)) -. 1.);
  metric "trace.stage_sum_share" "share" (Stats.ratio stage_sum request);
  probe_counts (fun () -> List.iter (fun r -> ignore (answer ip r)) all_plans) Stats.local_snapshot;
  metric "obda.insert_p50_ms" "ms" (insert_latency ip ~seed);
  metric "server.update_rtt_p50_ms" "ms" 0.

(* ---- the server workload --------------------------------------------- *)

let answer_line ~id ~limit r =
  Printf.sprintf {|{"op":"ANSWER","id":%d,"query":%S,"strategy":%S,"limit":%d}|} id
    queries.(r.qi).Lubm.Workload.name (fst strategies.(r.si)) limit

let update_line ~id f =
  Printf.sprintf {|{"op":"UPDATE","id":%d,"insert":[{"role":%S,"subj":%S,"obj":%S}]}|} id f.role
    f.subj f.obj

let full_rows = 1_000_000

type served = {
  server : Client.server;
  control : Client.conn;
}

let setup_server (w : workload) =
  let abox = Lubm.Generator.generate ~seed:data_seed ~target_facts:w.facts () in
  let path = Filename.concat work_dir (Printf.sprintf "abox-%s.txt" w.name) in
  Dllite.Abox.save abox path;
  let server =
    Client.start
      [ "--data"; path; "--engine"; "pglite"; "--layout"; "simple"; "--jobs"; "0";
        "--max-rows"; string_of_int full_rows ]
  in
  let control = Client.connect server in
  List.iteri
    (fun id r ->
      let reply = Client.parse (Client.call control (answer_line ~id ~limit:0 r)) in
      if Client.str "status" reply <> Some "OK" then failwith "priming request failed")
    all_plans;
  { server; control }

type exchange = {
  req : request option;  (* [None] for an UPDATE *)
  reply : string;
  sent_ns : int64;
  rtt_ms : float;
}

(* Two closed-loop clients for [seconds] of wall time; replies are
   parsed and checked after the window. *)
let serve_window sv ~seed ~phase ~seconds =
  let deadline = Int64.add (Obs.Mclock.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let results = Array.make serve_clients [] in
  let client k =
    let conn = Client.connect sv.server in
    let rng = Random.State.make [| seed; k; phase |] in
    let next_read = zipf_stream rng in
    let writes = ref (phase * writes_per_client / 2) and last = (phase + 1) * writes_per_client / 2 in
    let id = ref 0 and log = ref [] and write_at = ref 0 in
    while Obs.Mclock.now_ns () < deadline do
      if !id mod write_every = 0 then write_at := !id + Random.State.int rng write_every;
      let write = !writes < last && !id = !write_at in
      incr id;
      let req, line =
        if write then begin
          let f = write_fact ~tag:(client_tag ~seed k) !writes in
          incr writes;
          None, update_line ~id:!id f
        end
        else
          let r = next_read () in
          Some r, answer_line ~id:!id ~limit:full_rows r
      in
      let t0 = Obs.Mclock.now_ns () in
      let reply = Client.call conn line in
      log := { req; reply; sent_ns = t0; rtt_ms = Stats.ms_since t0 } :: !log
    done;
    Client.close conn;
    results.(k) <- List.rev !log
  in
  let threads = List.init serve_clients (Thread.create client) in
  List.iter Thread.join threads;
  List.concat (Array.to_list results)

type read_reply = {
  rtt : float;
  handler : float;
  search : float;
  eval : float;
  cached : bool;
  x : exchange;
}

(* Checks every reply; returns the reads and the write round trips. *)
let check_exchanges reference xs =
  let reads = ref [] and writes = ref [] in
  List.iter
    (fun x ->
      tally.attempted <- tally.attempted + 1;
      match Client.parse x.reply with
      | exception Failure e -> fail "%s" e
      | j -> (
        match Client.str "status" j, x.req with
        | Some "OK", None ->
          if Client.num "accepted" j <> Some 1. then fail "UPDATE of a fresh fact not accepted";
          writes := x.rtt_ms :: !writes
        | Some "OK", Some req ->
          let rows =
            match Option.bind (Client.field "answers" j) Server.Wire.to_list_opt with
            | None -> None
            | Some rs ->
              Some
                (List.map
                   (fun r ->
                     List.map
                       (fun v -> Option.value ~default:"" (Server.Wire.to_string_opt v))
                       (Option.value ~default:[] (Server.Wire.to_list_opt r)))
                   rs)
          in
          if rows <> Some (expected reference req) then
            fail "%s/%s over TCP: answers differ from the reference"
              queries.(req.qi).Lubm.Workload.name (fst strategies.(req.si));
          let f k = Option.value ~default:0. (Client.num k j) in
          reads :=
            { rtt = x.rtt_ms; handler = f "latency_ms"; search = f "search_ms"; eval = f "eval_ms";
              cached = Client.field "plan_cached" j = Some (Server.Wire.Bool true); x }
            :: !reads
        | status, _ ->
          fail "%s reply %s" (if x.req = None then "UPDATE" else "ANSWER")
            (Option.value ~default:"without status" status)))
    xs;
  List.rev !reads, List.rev !writes

let stop_served sv =
  Client.close sv.control;
  Client.stop sv.server

let e2e_served sv reference ~seed ~seconds ~setup_s ~calibrator ~store_bytes_per_fact =
  let t0 = Obs.Mclock.now_ns () and cpu0 = Stats.proc_cpu_s sv.server.Client.pid in
  let xs = serve_window sv ~seed ~phase:0 ~seconds in
  let wall = Stats.ms_since t0 /. 1000. and cpu1 = Stats.proc_cpu_s sv.server.Client.pid in
  let rss = Stats.vm_hwm_mb (string_of_int sv.server.Client.pid) in
  stop_served sv;
  let reads, writes = check_exchanges reference xs in
  let lat = List.map (fun r -> r.rtt) reads in
  describe_latency "read round trip" lat;
  describe_latency "UPDATE round trip" writes;
  note "plan-cache hit share %.4f"
    (Stats.ratio (float_of_int (List.length (List.filter (fun r -> r.cached) reads)))
       (float_of_int (List.length reads)));
  note "overall throughput %.2f/s" (float_of_int (List.length xs) /. wall);
  (* the server's CPU time over every exchange, UPDATEs included *)
  let cpu = (cpu1 -. cpu0) *. 1000. /. float_of_int (List.length xs) in
  note "unscaled: %.4f ms of CPU per request, set-up %.4f s of CPU" cpu setup_s;
  let scale = host_scale calibrator in
  metric "cpu_ms_per_request" "ms" (scale *. cpu);
  metric "setup_s" "s" (scale *. setup_s);
  metric "peak_rss_mb" "MB" rss;
  metric "store_bytes_per_fact" "bytes" store_bytes_per_fact

let layer_served sv reference ~seed ~seconds =
  let before = Client.registry sv.control and words0 = (Gc.quick_stat ()).Gc.minor_words in
  let base = serve_window sv ~seed ~phase:0 ~seconds:(seconds /. 2.) in
  let words1 = (Gc.quick_stat ()).Gc.minor_words in
  let traced = serve_window sv ~seed ~phase:1 ~seconds:(seconds /. 2.) in
  let after = Client.registry sv.control in
  let base_reads, base_writes = check_exchanges reference base in
  let reads, writes = check_exchanges reference traced in
  (* client-side spans of the traced half: the round trip, and the
     handler time the server reported, placed at its end *)
  List.iter
    (fun r ->
      let stop = Int64.add r.x.sent_ns (Int64.of_float (r.rtt *. 1e6)) in
      let req = record ~parent:0 "request" r.x.sent_ns stop in
      ignore (record ~parent:req "server.handler" (Int64.sub stop (Int64.of_float (r.handler *. 1e6))) stop))
    reads;
  let all = base_reads @ reads in
  let n_all = float_of_int (List.length (base @ traced)) in
  let per_request name = Stats.counter_delta ~before ~after name /. n_all in
  let avg f = Stats.mean (List.map f reads) in
  let hist = Stats.histogram_mean_delta ~before ~after in
  let search = hist "obda.search_ms" and eval = hist "obda.eval_ms" in
  metric "obda.search_ms" "ms" search;
  metric "obda.sql_ms" "ms" (hist "obda.total_ms" -. search -. eval);
  metric "obda.eval_ms" "ms" eval;
  metric "cache.plan.hit_share" "share"
    (Stats.ratio (float_of_int (List.length (List.filter (fun r -> r.cached) all)))
       (float_of_int (List.length all)));
  metric "reform.cq_generated" "count" (per_request "reform.cq.generated");
  metric "reform.containment_checks" "count" (per_request "reform.containment.checks");
  metric "reform.dedup_hits" "count" (per_request "reform.dedup_hits");
  metric "covers.fragments_reformulated" "count" (per_request "cover.fragments.reformulated");
  metric "optimizer.gdl_covers_scored" "count" (per_request "gdl.covers.scored");
  List.iter (fun (m, u) -> metric m u 0.)
    [ "sql.ms", "ms"; "sql.bytes", "bytes"; "rdbms.planner.ms", "ms"; "cost.sip.annotate_ms", "ms" ];
  metric "cost.sip.rows_pruned" "count" (per_request "sip.rows_pruned");
  metric "cost.sip.arms_elided" "count" (per_request "sip.arms_elided");
  metric "rdbms.exec.ms" "ms" 0.;
  List.iter
    (fun op ->
      metric (Printf.sprintf "rdbms.exec.%s.self_ms" op) "ms" 0.;
      metric (Printf.sprintf "rdbms.exec.%s.rows" op) "count" 0.)
    op_names;
  metric "rdbms.exec.rows_per_answer" "count" 0.;
  let share hits requests =
    Stats.ratio (Stats.counter_delta ~before ~after hits) (Stats.counter_delta ~before ~after requests)
  in
  metric "rdbms.exec.scan_cache_hit_share" "share" (share "exec.scan.cache_hits" "exec.scan.requests");
  metric "rdbms.exec.build_cache_hit_share" "share" (share "exec.build.cache_hits" "exec.build.requests");
  metric "rdbms.decode.ms" "ms" 0.;
  let skipped = Stats.counter_delta ~before ~after "storage.segments_skipped" in
  metric "rdbms.storage.segment_skip_share" "share"
    (Stats.ratio skipped (skipped +. Stats.counter_delta ~before ~after "storage.segments_scanned"));
  let rtt = avg (fun r -> r.rtt) and handler = avg (fun r -> r.handler) in
  metric "server.rtt_ms" "ms" rtt;
  metric "server.handler_ms" "ms" handler;
  metric "server.wire_ms" "ms" (rtt -. handler);
  metric "server.wait_ms" "ms" (avg (fun r -> r.handler -. r.search -. r.eval));
  metric "server.queue_wait_ms" "ms" (hist "server.queue.wait_ms");
  metric "server.update.lock_ms" "ms" (hist "server.update.lock_ms");
  metric "gc.minor_words_per_request" "words"
    ((words1 -. words0) /. float_of_int (max 1 (List.length base)));
  metric "trace.overhead_share" "share" (Stats.ratio rtt (Stats.mean (List.map (fun r -> r.rtt) base_reads)) -. 1.);
  metric "trace.stage_sum_share" "share" (Stats.ratio handler rtt);
  metric "obda.insert_p50_ms" "ms" 0.;
  let updates = base_writes @ writes in
  describe_latency "UPDATE round trip" updates;
  metric "server.update_rtt_p50_ms" "ms" (Stats.median updates);
  let id = ref 0 in
  probe_counts
    (fun () ->
      List.iter
        (fun r ->
          incr id;
          ignore (Client.call sv.control (answer_line ~id:!id ~limit:0 r)))
        all_plans)
    (fun () -> Client.registry sv.control);
  stop_served sv

(* ---- entry point --------------------------------------------------------- *)

(* Runs set-up [setup_rounds] times; keeps the last result. A round
   takes the CPU time it cost this process plus [started v], the CPU
   time of the processes it started. *)
let repeated_setup ~discard ~started f =
  let rec go i times prev =
    Option.iter discard prev;
    Gc.full_major ();
    let c0 = Stats.cpu_s () in
    let v = f () in
    let s = Stats.cpu_s () -. c0 +. started v in
    if i = setup_rounds then v, Stats.median (s :: times) else go (i + 1) (s :: times) (Some v)
  in
  go 1 [] None

let corrupt reference r =
  let arity = List.length queries.(r.qi).Lubm.Workload.query.Query.Cq.head in
  let row = List.init arity (fun i -> if i = 0 then Option.value ~default:"corrupted" r.bound else "corrupted") in
  reference.(r.qi) <- row :: reference.(r.qi)

let print_result () =
  let ok = tally.failed = 0 in
  note "attempted %d, failed %d, failed_share %.6f%s" tally.attempted tally.failed
    (Stats.ratio (float_of_int tally.failed) (float_of_int tally.attempted))
    (String.concat "" (List.map (fun n -> "; " ^ n) (List.rev tally.notes)));
  let body =
    List.rev !metrics
    |> List.map (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
    |> String.concat ", "
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" ok
    (max 1 tally.attempted) tally.failed body

let run (w : workload) ~seed ~seconds ~trace ~corrupt_reference =
  let reference = in_child (fun () -> compute_reference w ~seed) in
  header w ~seed ~seconds ~trace;
  (match reference.cross_checked with
   | Some false -> fail "reference oracle disagrees with Dllite.Chase"
   | Some true -> note "reference oracle agrees with Dllite.Chase on Q1-Q13"
   | None -> ());
  (match reference.writes_neutral with
   | Some false -> fail "the write sequence changes certain answers"
   | Some true -> note "the write sequence leaves every read's certain answers unchanged"
   | None -> ());
  let rows = reference.rows in
  let rng = Random.State.make [| seed; Hashtbl.hash w.name |] in
  let seconds = float_of_int seconds in
  let calibrator = if trace then None else Some (start_calibrator ()) in
  (match w.kind with
   | Adhoc | Repeat ->
     let ip, setup_s = repeated_setup ~discard:ignore ~started:(fun _ -> 0.) (fun () -> setup_inprocess w) in
     let stream =
       match w.kind with
       | Adhoc ->
         let dict = Rdbms.Storage.dict ip.storage in
         adhoc_stream rng (Array.init (Dllite.Dict.size dict) (Dllite.Dict.decode dict))
       | _ -> zipf_stream rng
     in
     let stream =
       if corrupt_reference then begin
         let first = stream () in
         corrupt rows first;
         let pending = ref (Some first) in
         fun () -> match !pending with Some r -> pending := None; r | None -> stream ()
       end
       else stream
     in
     if trace then layer_inprocess ip rows stream ~seed ~seconds
     else e2e_inprocess ip rows stream ~seconds ~setup_s ~calibrator:(Option.get calibrator)
   | Serve ->
     if not (Sys.file_exists Client.server_exe) then failwith (Client.server_exe ^ " is not built");
     let sv, setup_s =
       repeated_setup ~discard:stop_served
         ~started:(fun sv -> Stats.proc_cpu_s sv.server.Client.pid)
         (fun () -> setup_server w)
     in
     (* Q1 ranks first in the Zipf stream *)
     if corrupt_reference then corrupt rows { qi = 0; si = 0; bound = None };
     if trace then layer_served sv rows ~seed ~seconds
     else
       e2e_served sv rows ~seed ~seconds ~setup_s ~calibrator:(Option.get calibrator)
         ~store_bytes_per_fact:reference.server_bytes_per_fact);
  if trace then write_spans w ~seed;
  print_result ()

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1)
  and corrupt_reference = ref false and calibrate_only = ref false in
  Arg.parse
    [ "--workload", Arg.Set_string workload, "NAME workload to run";
      "--seed", Arg.Set_int seed, "N input seed";
      "--seconds", Arg.Set_int seconds, "S measured seconds";
      "--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics";
      "--corrupt-reference", Arg.Set corrupt_reference, " plant one wrong reference row";
      "--calibrate", Arg.Set calibrate_only, " time calibration passes until the parent exits" ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !calibrate_only then begin
    calibrate_forever ();
    exit 0
  end;
  let valid = !seed >= 0 && !seconds >= 1 && (!trace = 0 || !trace = 1) in
  match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
  | Some w when valid ->
    if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755;
    run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~corrupt_reference:!corrupt_reference
  | None when valid && !workload = "all" ->
    (* every workload in a process of its own, one after the other *)
    let ok (w : workload) =
      let args =
        [ "--workload"; w.name; "--seed"; string_of_int !seed; "--seconds"; string_of_int !seconds;
          "--trace"; string_of_int !trace ]
        @ if !corrupt_reference then [ "--corrupt-reference" ] else []
      in
      let pid =
        Unix.create_process Sys.executable_name
          (Array.of_list (Sys.executable_name :: args))
          Unix.stdin Unix.stdout Unix.stderr
      in
      snd (Unix.waitpid [] pid) = Unix.WEXITED 0
    in
    exit (if List.for_all ok workloads then 0 else 1)
  | _ ->
    prerr_endline usage;
    exit 2
