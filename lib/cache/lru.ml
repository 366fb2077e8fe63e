(* Hash table + intrusive doubly-linked recency list; every operation
   holds the per-cache mutex, so the structure is consistent under the
   Parallel domain pool. Nodes are unlinked in O(1); the table maps a
   key to its node. *)

type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  cost : int;
  mutable prev : ('k, 'v) node option;  (* towards most-recent *)
  mutable next : ('k, 'v) node option;  (* towards least-recent *)
}

type ('k, 'v) t = {
  name : string;
  cost_of : 'v -> int;
  max_cost : int option;
  mutable capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
  mutable total_cost : int;
  mutable version : int;
  lock : Mutex.t;
  pending : ('k, bool) Hashtbl.t;
      (* keys being computed by {!find_or_compute} -> whether the
         computing caller runs on a {!Parallel} pool worker *)
  settled : Condition.t;  (* broadcast whenever a pending key settles *)
  (* private per-instance totals; the registry counters below may be
     shared between instances created with the same name *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  invalidations : int Atomic.t;
  m_hits : Obs.Metrics.counter;
  m_misses : Obs.Metrics.counter;
  m_evictions : Obs.Metrics.counter;
  m_invalidations : Obs.Metrics.counter;
}

type stats = {
  name : string;
  entries : int;
  cost : int;
  capacity : int;
  max_cost : int option;
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  version : int;
}

let create ?max_cost ?(cost_of = fun _ -> 0) ~name ~capacity () =
  let metric aspect help =
    Obs.Metrics.counter ~help (Printf.sprintf "cache.%s.%s" name aspect)
  in
  {
    name;
    cost_of;
    max_cost;
    capacity;
    (* [capacity] is an eviction bound, not a size hint: start small
       and let the table grow — short-lived caches (per-run scan/build
       stores) would otherwise pay a full-capacity bucket array each. *)
    table = Hashtbl.create 16;
    head = None;
    tail = None;
    total_cost = 0;
    version = 0;
    lock = Mutex.create ();
    pending = Hashtbl.create 1;
    settled = Condition.create ();
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    invalidations = Atomic.make 0;
    m_hits = metric "hits" ("hits in the " ^ name ^ " cache");
    m_misses = metric "misses" ("misses in the " ^ name ^ " cache");
    m_evictions = metric "evictions" ("LRU evictions from the " ^ name ^ " cache");
    m_invalidations =
      metric "invalidations" ("version-change flushes of the " ^ name ^ " cache");
  }

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

(* {2 List surgery (call with the lock held)} *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let drop_node t n =
  unlink t n;
  Hashtbl.remove t.table n.key;
  t.total_cost <- t.total_cost - n.cost

let evict_tail t =
  match t.tail with
  | None -> ()
  | Some n ->
    drop_node t n;
    Atomic.incr t.evictions;
    Obs.Metrics.incr t.m_evictions

let over_bounds t =
  Hashtbl.length t.table > max 0 t.capacity
  || (match t.max_cost with
     | Some b -> t.total_cost > b && Hashtbl.length t.table > 1
     | None -> false)

let shrink_to_bounds t = while over_bounds t && t.tail <> None do evict_tail t done

let drop_all t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.total_cost <- 0

(* {2 Public operations} *)

let name (t : (_, _) t) = t.name

let capacity (t : (_, _) t) = t.capacity

let length t = locked t (fun () -> Hashtbl.length t.table)

let set_capacity t c =
  locked t (fun () ->
      t.capacity <- c;
      if c <= 0 then drop_all t else shrink_to_bounds t)

let count_hit (t : (_, _) t) =
  Atomic.incr t.hits;
  Obs.Metrics.incr t.m_hits

let count_miss (t : (_, _) t) =
  Atomic.incr t.misses;
  Obs.Metrics.incr t.m_misses

let touch t n =
  unlink t n;
  push_front t n;
  n.value

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some n ->
        count_hit t;
        Some (touch t n)
      | None ->
        count_miss t;
        None)

(* Insert [k -> v] as most-recent. A value costlier than the whole
   byte budget is not admitted: caching it would evict everything else
   for a single entry that can never be kept alongside any other. *)
let insert t k v =
  (match Hashtbl.find_opt t.table k with Some old -> drop_node t old | None -> ());
  let cost = t.cost_of v in
  let admissible = match t.max_cost with Some b -> cost <= b | None -> true in
  if admissible then begin
    let n = { key = k; value = v; cost; prev = None; next = None } in
    Hashtbl.replace t.table k n;
    t.total_cost <- t.total_cost + cost;
    push_front t n;
    shrink_to_bounds t
  end

let add t k v = locked t (fun () -> if t.capacity > 0 then insert t k v)

(* Single flight: the first caller to miss on [k] registers it as
   pending and computes outside the lock; a concurrent caller on the
   same key waits for that result instead of computing it again. One
   exception keeps the pool deadlock-free: a pool worker never waits
   on a caller outside the pool, whose computation may itself be
   queued behind that worker ({!Parallel.map} from a non-worker
   enqueues its chunks) — it computes alongside and publishes
   first-writer-wins. A computation that raises settles its key
   unpublished, and its waiters retry. *)
let find_or_compute t k compute =
  Mutex.lock t.lock;
  let rec claim () =
    match Hashtbl.find_opt t.table k with
    | Some n -> `Hit (touch t n)
    | None -> (
      match Hashtbl.find_opt t.pending k with
      | Some owner_in_pool when owner_in_pool || not (Parallel.in_worker ()) ->
        Condition.wait t.settled t.lock;
        claim ()
      | Some _ -> `Compute false
      | None ->
        let own = t.capacity > 0 in
        if own then Hashtbl.replace t.pending k (Parallel.in_worker ());
        `Compute own)
  in
  match claim () with
  | `Hit v ->
    count_hit t;
    Mutex.unlock t.lock;
    v, true
  | `Compute own ->
    count_miss t;
    Mutex.unlock t.lock;
    let settle () =
      if own then begin
        Hashtbl.remove t.pending k;
        Condition.broadcast t.settled
      end
    in
    (match compute () with
    | v ->
      ( locked t (fun () ->
            settle ();
            match Hashtbl.find_opt t.table k with
            | Some n -> touch t n
            | None ->
              if t.capacity > 0 then insert t k v;
              v),
        false )
    | exception e ->
      locked t settle;
      raise e)

let mem t k = locked t (fun () -> Hashtbl.mem t.table k)

let clear t = locked t (fun () -> drop_all t)

let invalidate_if t pred =
  locked t (fun () ->
      let doomed =
        Hashtbl.fold (fun k n acc -> if pred k then n :: acc else acc) t.table []
      in
      if doomed <> [] then begin
        List.iter (drop_node t) doomed;
        Atomic.incr t.invalidations;
        Obs.Metrics.incr t.m_invalidations
      end;
      List.length doomed)

let set_version t v =
  locked t (fun () ->
      if v <> t.version then begin
        t.version <- v;
        if Hashtbl.length t.table > 0 then begin
          drop_all t;
          Atomic.incr t.invalidations;
          Obs.Metrics.incr t.m_invalidations
        end
      end)

let version t = locked t (fun () -> t.version)

let stats t =
  locked t (fun () ->
      {
        name = t.name;
        entries = Hashtbl.length t.table;
        cost = t.total_cost;
        capacity = t.capacity;
        max_cost = t.max_cost;
        hits = Atomic.get t.hits;
        misses = Atomic.get t.misses;
        evictions = Atomic.get t.evictions;
        invalidations = Atomic.get t.invalidations;
        version = t.version;
      })

let pp_stats ppf s =
  let requests = s.hits + s.misses in
  let rate = if requests = 0 then 0. else 100. *. float s.hits /. float requests in
  Fmt.pf ppf "%-12s %5d/%-5d entries %8d bytes  %6d hits / %6d reqs (%5.1f%%)  %5d evicted  %3d invalidated  v%d"
    s.name s.entries s.capacity s.cost s.hits requests rate s.evictions
    s.invalidations s.version
