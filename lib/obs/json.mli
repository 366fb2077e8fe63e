(** The one JSON codec of the tree: a value type, a printer and a
    parser (RFC 8259), with a few accessors.

    Every JSON the system emits is a {!t} printed by {!to_string}:
    the server's replies (ANSWER, EXPLAIN, METRICS, ...), the EXPLAIN
    and EXPLAIN ANALYZE trees ({!Rdbms.Explain}), the metrics registry
    ({!Metrics.registry}), optimizer trace events ({!Trace.event_to_json}),
    [obda_cli explain --format json] and the bench records. No caller
    splices JSON text by hand, so escaping is decided in one place.

    The printer emits a single line (no literal newlines, control
    characters are escaped), which is what makes the server's
    newline-delimited framing sound: one {!to_string} result is always
    exactly one frame. Only the stdlib is used. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields in printing order *)

val to_string : t -> string
(** Renders on one line. Strings are escaped per RFC 8259 (quote,
    backslash, [n], [r], [t], [b], [f], and [uXXXX] for other control
    characters); every other byte, including non-ASCII UTF-8, is
    copied unchanged. Floats print with the shortest of [%.12g] and
    [%.17g] that reads back as the same double, so an integral float
    may print without a fraction (and reparse as an {!Int});
    non-finite floats render as [null] (JSON has no representation
    for them). *)

val of_string : string -> (t, string) result
(** Parses one JSON value (surrounding whitespace allowed; trailing
    garbage is an error). Numbers without [.], [e] or [E] parse as
    {!Int}, all others as {!Float}; [uXXXX] escapes decode to UTF-8
    (surrogate pairs included). Arrays and objects nest at most
    10,000 deep. Never raises: every defect, raw control characters
    in strings and deeper nesting included, is an [Error] naming the
    byte offset where parsing stopped. *)

val member : string -> t -> t option
(** [member k j] is the value of field [k] when [j] is an object that
    has one, [None] otherwise (including on non-objects). *)

val to_string_opt : t -> string option
(** The payload of a {!String}, [None] on any other constructor. *)

val to_int_opt : t -> int option
(** The payload of an {!Int} (or of an integral {!Float}), [None]
    otherwise. *)

val to_float_opt : t -> float option
(** The payload of an {!Int} or {!Float} as a float, [None]
    otherwise. *)

val to_bool_opt : t -> bool option
(** The payload of a {!Bool}, [None] otherwise. *)

val to_list_opt : t -> t list option
(** The payload of a {!List}, [None] otherwise. *)
