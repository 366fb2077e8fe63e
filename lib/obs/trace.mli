(** Structured trace events for the cover-search optimizers.

    EDL/GDL emit one event per candidate cover considered — its pretty
    printed form, its ε cost estimate, and the verdict the search
    passed on it — so a search can be replayed and audited offline.

    Tracing is off by default and free when off: emitters must guard
    event construction with {!enabled}, and {!emit} is a no-op without
    an installed sink. Sinks may be invoked concurrently from the
    {!Parallel} pool (candidate scoring fans out); the {!record}
    collector is mutex-guarded and orders events by their global
    sequence number. *)

type verdict =
  | Candidate  (** a cover was cost-estimated *)
  | Accepted  (** the search moved to this cover *)
  | Rejected  (** the best remaining move did not improve the cost *)
  | Chosen  (** the final cover of the search *)

type event = {
  seq : int;  (** global emission order *)
  source : string;  (** ["gdl"] or ["edl"] *)
  step : int;  (** search step (GDL move number; 0 for EDL) *)
  verdict : verdict;
  cost : float;  (** the ε estimate ([nan] when not applicable) *)
  label : string;  (** the cover, pretty-printed *)
}

val enabled : unit -> bool
(** [true] while a sink is installed. Emitters should check this
    before building the (possibly expensive) event label. *)

val emit :
  source:string -> step:int -> verdict:verdict -> ?cost:float -> string -> unit
(** Sends an event to the installed sink, if any. *)

val with_sink : (event -> unit) -> (unit -> 'a) -> 'a
(** [with_sink sink f] runs [f] with [sink] installed, restoring the
    previous sink afterwards (also on exception). *)

val record : (unit -> 'a) -> 'a * event list
(** [record f] collects every event emitted during [f ()], in sequence
    order. *)

val verdict_name : verdict -> string
(** ["candidate"], ["accepted"], ["rejected"] or ["chosen"]. *)

val pp_event : Format.formatter -> event -> unit
(** One line: [#seq source/step verdict cost label]. *)

val event_to_json : event -> Json.t
(** One flat JSON object with the six fields ([cost] is [null] when
    not applicable). *)
