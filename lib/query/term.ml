type t =
  | Var of string
  | Cst of string

let compare t1 t2 =
  match t1, t2 with
  | Var v1, Var v2 -> String.compare v1 v2
  | Cst c1, Cst c2 -> String.compare c1 c2
  | Var _, Cst _ -> -1
  | Cst _, Var _ -> 1

let equal t1 t2 = compare t1 t2 = 0

let is_var = function Var _ -> true | Cst _ -> false

let is_cst = function Cst _ -> true | Var _ -> false

let var_name = function Var v -> Some v | Cst _ -> None

let to_string = function Var v -> v | Cst c -> c

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* A printer writes [Var "x"] and [Cst "x"] alike and lets a name
   containing a separator pass for two, so it must never key a cache:
   two distinct queries would share an entry and one would be answered
   with the other's plan. Keys are written instead as a prefix code —
   a tag per term and a length before every name — in which distinct
   values always differ. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_string buf s =
  add_digits buf (String.length s);
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let add_key buf = function
  | Var v ->
    Buffer.add_char buf 'V';
    add_string buf v
  | Cst c ->
    Buffer.add_char buf 'K';
    add_string buf c

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
