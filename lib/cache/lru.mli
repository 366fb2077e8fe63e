(** A generic, thread-safe, bounded LRU cache.

    Every long-lived memoisation table in the engine (the PerfectRef
    reformulation cache, the executor's scan / build-table / view
    stores, the OBDA plan cache) is an instance of this module, so
    that a long-running process serving repeated-query traffic has a
    bounded memory footprint and a uniform invalidation story.

    Bounds: a {e capacity} by entry count, and optionally a {e budget}
    by approximate byte cost (a per-value [cost_of] estimate). When
    either bound is exceeded the least-recently-used entries are
    evicted. A value whose own cost exceeds the byte budget is not
    cached at all (admission control — it would only thrash the rest).

    Invalidation: a cache carries an integer {e version} (a KB
    generation stamp). {!set_version} with a new stamp drops every
    entry, so a cache revalidated against the current KB generation on
    each use can never serve an answer computed against older data.

    Observability: each cache registers four counters in the
    {!Obs.Metrics} registry — [cache.<name>.hits], [.misses],
    [.evictions] and [.invalidations] — and additionally keeps
    private per-instance totals readable via {!stats} (two instances
    may share a metric [name]; their {!stats} stay distinct).

    All operations take the cache's mutex and are safe to call from
    the {!Parallel} domain pool. Lookups and insertions are O(1)
    (hash table + intrusive doubly-linked recency list). *)

type ('k, 'v) t

type stats = {
  name : string;
  entries : int;
  cost : int;  (** summed [cost_of] of the live entries *)
  capacity : int;
  max_cost : int option;
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;  (** version-change flushes *)
  version : int;
}

val create :
  ?max_cost:int ->
  ?cost_of:('v -> int) ->
  name:string ->
  capacity:int ->
  unit ->
  ('k, 'v) t
(** [create ~name ~capacity ()] makes an empty cache holding at most
    [capacity] entries ([capacity <= 0] disables the cache: every
    lookup misses and insertions are dropped). [cost_of] estimates a
    value's byte footprint (default [fun _ -> 0]); when [max_cost] is
    given, entries are also evicted until the summed cost fits.
    Registers the [cache.<name>.*] metrics. *)

val name : ('k, 'v) t -> string

val capacity : ('k, 'v) t -> int

val set_capacity : ('k, 'v) t -> int -> unit
(** Changes the entry bound, evicting LRU entries as needed. Setting
    [<= 0] empties and disables the cache. *)

val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Looks a key up, refreshing its recency on a hit. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts (or replaces) a binding as most-recently used, then
    evicts from the LRU end while over either bound. *)

val add_if_absent : ('k, 'v) t -> 'k -> 'v -> 'v
(** Like {!add}, but an existing binding wins: returns the stored
    value (refreshed), or stores and returns [v]. This is the
    first-writer-wins publication step for racing computations of the
    same key on the domain pool. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * bool
(** [find_or_compute t k compute] returns the value bound to [k],
    computing and storing it on a miss; the flag is [true] on a hit.
    Single flight: while one caller computes [k], a concurrent lookup
    of [k] waits for that result and counts as a hit, so [compute]
    runs once per key however many pool domains miss on it together
    (a pool worker never waits on a caller outside the pool: it
    computes alongside instead, and the first stored value wins).
    [compute] runs without the lock held and may use other caches.
    With capacity [<= 0] every call computes. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership without touching recency or the hit/miss counters. *)

val clear : ('k, 'v) t -> unit
(** Drops every entry (counted neither as eviction nor invalidation). *)

val invalidate_if : ('k, 'v) t -> ('k -> bool) -> int
(** Drops every entry whose key satisfies the predicate and returns
    how many were dropped (counted as one {e invalidation} when any
    were). The predicate runs with the cache lock held: it must be
    pure and cheap, and must not reenter the cache. *)

val set_version : ('k, 'v) t -> int -> unit
(** [set_version t v] compares [v] with the cache's current version
    stamp; when different, every entry is dropped (one {e
    invalidation}) and the stamp becomes [v]. Idempotent for equal
    stamps. Fresh caches start at version [0]. *)

val version : ('k, 'v) t -> int

val stats : ('k, 'v) t -> stats

val pp_stats : Format.formatter -> stats -> unit
(** One line: name, entries/capacity, cost, hit rate, evictions,
    invalidations, version. *)
