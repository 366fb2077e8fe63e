type verdict =
  | Candidate
  | Accepted
  | Rejected
  | Chosen

type event = {
  seq : int;
  source : string;
  step : int;
  verdict : verdict;
  cost : float;
  label : string;
}

(* The sink is read on every emission attempt, so it lives in an
   Atomic; emissions from pool workers may call it concurrently and
   each sink synchronises internally. *)
let sink : (event -> unit) option Atomic.t = Atomic.make None

let seq_counter = Atomic.make 0

let enabled () = Atomic.get sink <> None

let emit ~source ~step ~verdict ?(cost = nan) label =
  match Atomic.get sink with
  | None -> ()
  | Some f ->
    let seq = Atomic.fetch_and_add seq_counter 1 in
    f { seq; source; step; verdict; cost; label }

let with_sink s f =
  let previous = Atomic.get sink in
  Atomic.set sink (Some s);
  let restore () = Atomic.set sink previous in
  match f () with
  | v ->
    restore ();
    v
  | exception e ->
    restore ();
    raise e

let record f =
  let events = ref [] in
  let lock = Mutex.create () in
  let collect e =
    Mutex.lock lock;
    events := e :: !events;
    Mutex.unlock lock
  in
  let v = with_sink collect f in
  v, List.sort (fun a b -> compare a.seq b.seq) !events

let verdict_name = function
  | Candidate -> "candidate"
  | Accepted -> "accepted"
  | Rejected -> "rejected"
  | Chosen -> "chosen"

let pp_event ppf e =
  Fmt.pf ppf "#%-4d %s/%d %-9s %s  %s" e.seq e.source e.step
    (verdict_name e.verdict)
    (if Float.is_nan e.cost then "-" else Printf.sprintf "cost=%.0f" e.cost)
    e.label

let event_to_json e =
  Json.Obj
    [ "seq", Json.Int e.seq;
      "source", Json.String e.source;
      "step", Json.Int e.step;
      "verdict", Json.String (verdict_name e.verdict);
      "cost", Json.Float e.cost;
      "label", Json.String e.label ]
