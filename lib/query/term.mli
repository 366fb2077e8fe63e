(** Terms of first-order queries: variables and constants. *)

type t =
  | Var of string  (** a query variable, e.g. [x] *)
  | Cst of string  (** an individual constant, e.g. [Damian] *)

val compare : t -> t -> int
(** Total order on terms (variables before constants, then by name). *)

val equal : t -> t -> bool

val is_var : t -> bool

val is_cst : t -> bool

val var_name : t -> string option
(** [var_name t] is [Some v] when [t] is the variable [v]. *)

val pp : Format.formatter -> t -> unit
(** Variables print as their name, constants as their name too; use
    {!add_key} to identify a term. *)

val to_string : t -> string

(** {1 Identity}

    The one key encoding of query values: every cache and duplicate
    table of the engine keys a term, an atom or a CQ through these
    encoders ({!Atom.add_key}, {!Cq.key}), never through a printer. *)

val add_string : Buffer.t -> string -> unit
(** [add_string buf s] writes [s] length-prefixed ([<length>:<bytes>]),
    so that any byte may occur in [s] and the end of [s] is known
    without a separator. *)

val add_key : Buffer.t -> t -> unit
(** Writes the term's key: the tag [V] or [K], then the name through
    {!add_string}. Injective and prefix-free: distinct terms — a
    variable and a constant of the same name among them — write
    distinct keys, and no key is a proper prefix of another. *)

module Set : Set.S with type elt = t

module Map : Map.S with type key = t
