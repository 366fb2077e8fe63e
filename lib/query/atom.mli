(** Query atoms: [A(t)] over a concept name or [R(t,t')] over a role
    name. Inverse roles never appear in atoms; [R⁻(t,t')] is normalised
    to [R(t',t)] by the construction functions of the formalism layer. *)

type t =
  | Ca of string * Term.t  (** concept atom [A(t)] *)
  | Ra of string * Term.t * Term.t  (** role atom [R(t,t')] *)

val pred_name : t -> string
(** The concept or role name of the atom. *)

val is_role : t -> bool

val terms : t -> Term.t list

val vars : t -> Term.Set.t

val arity : t -> int

val substitute : Subst.t -> t -> t

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val add_key : Buffer.t -> t -> unit
(** Writes the atom's key: the tag [C] or [R], the predicate name
    through {!Term.add_string}, then each term's {!Term.add_key}.
    Injective and prefix-free, like the term keys. *)

val unify : t -> t -> Subst.t option
(** [unify a1 a2] is a most general unifier of the two atoms, or [None]
    when they do not unify (different predicates or clashing
    constants). *)

val shares_var : t -> t -> bool
(** Whether the two atoms have a variable in common (i.e. join). *)
