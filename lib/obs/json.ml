type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* {1 Printing} *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then
      (* shortest representation that still round-trips *)
      let s = Printf.sprintf "%.17g" f in
      let shorter = Printf.sprintf "%.12g" f in
      Buffer.add_string buf (if float_of_string shorter = f then shorter else s)
    else Buffer.add_string buf "null"
  | String s -> add_escaped buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_escaped buf k;
        Buffer.add_char buf ':';
        emit buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  emit buf j;
  Buffer.contents buf

(* {1 Parsing: a recursive-descent parser over a string} *)

exception Fail of int * string

let fail pos msg = raise (Fail (pos, msg))

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> fail c.pos (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos (Printf.sprintf "expected %s" word)

let hex_digit pos ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail pos "bad \\u escape"

let parse_hex4 c =
  if c.pos + 4 > String.length c.s then fail c.pos "truncated \\u escape";
  let v =
    hex_digit c.pos c.s.[c.pos] * 4096
    + (hex_digit c.pos c.s.[c.pos + 1] * 256)
    + (hex_digit c.pos c.s.[c.pos + 2] * 16)
    + hex_digit c.pos c.s.[c.pos + 3]
  in
  c.pos <- c.pos + 4;
  v

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.s then fail c.pos "unterminated string";
    let ch = c.s.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents buf
    | '\\' -> (
      if c.pos >= String.length c.s then fail c.pos "unterminated escape";
      let e = c.s.[c.pos] in
      c.pos <- c.pos + 1;
      match e with
      | '"' -> Buffer.add_char buf '"'; go ()
      | '\\' -> Buffer.add_char buf '\\'; go ()
      | '/' -> Buffer.add_char buf '/'; go ()
      | 'n' -> Buffer.add_char buf '\n'; go ()
      | 'r' -> Buffer.add_char buf '\r'; go ()
      | 't' -> Buffer.add_char buf '\t'; go ()
      | 'b' -> Buffer.add_char buf '\b'; go ()
      | 'f' -> Buffer.add_char buf '\012'; go ()
      | 'u' ->
        let hi = parse_hex4 c in
        let code =
          if hi >= 0xD800 && hi <= 0xDBFF then begin
            (* surrogate pair *)
            if
              c.pos + 2 <= String.length c.s
              && c.s.[c.pos] = '\\'
              && c.s.[c.pos + 1] = 'u'
            then begin
              c.pos <- c.pos + 2;
              let lo = parse_hex4 c in
              if lo < 0xDC00 || lo > 0xDFFF then fail c.pos "bad low surrogate";
              0x10000 + ((hi - 0xD800) * 0x400) + (lo - 0xDC00)
            end
            else fail c.pos "lone high surrogate"
          end
          else hi
        in
        (match Uchar.of_int code with
        | u -> Buffer.add_utf_8_uchar buf u
        | exception Invalid_argument _ -> fail c.pos "bad code point");
        go ()
      | _ -> fail (c.pos - 1) "bad escape")
    | ch when Char.code ch < 0x20 -> fail (c.pos - 1) "raw control character in string"
    | ch -> Buffer.add_char buf ch; go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let advance () = c.pos <- c.pos + 1 in
  if peek c = Some '-' then advance ();
  while (match peek c with Some '0' .. '9' -> true | _ -> false) do advance () done;
  if peek c = Some '.' then begin
    is_float := true;
    advance ();
    while (match peek c with Some '0' .. '9' -> true | _ -> false) do advance () done
  end;
  (match peek c with
  | Some ('e' | 'E') ->
    is_float := true;
    advance ();
    (match peek c with Some ('+' | '-') -> advance () | _ -> ());
    while (match peek c with Some '0' .. '9' -> true | _ -> false) do advance () done
  | _ -> ());
  let text = String.sub c.s start (c.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail start "bad number"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      (* out of int range: fall back to float *)
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail start "bad number")

(* Nesting is bounded so that a hostile line cannot grow the stack
   without limit. *)
let max_depth = 10_000

let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some ('{' | '[') when depth >= max_depth -> fail c.pos "nesting too deep"
  | Some '{' ->
    expect c '{';
    skip_ws c;
    if peek c = Some '}' then begin
      expect c '}';
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c (depth + 1) in
        skip_ws c;
        match peek c with
        | Some ',' ->
          expect c ',';
          fields ((k, v) :: acc)
        | Some '}' ->
          expect c '}';
          List.rev ((k, v) :: acc)
        | _ -> fail c.pos "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some '[' ->
    expect c '[';
    skip_ws c;
    if peek c = Some ']' then begin
      expect c ']';
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value c (depth + 1) in
        skip_ws c;
        match peek c with
        | Some ',' ->
          expect c ',';
          items (v :: acc)
        | Some ']' ->
          expect c ']';
          List.rev (v :: acc)
        | _ -> fail c.pos "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c.pos (Printf.sprintf "unexpected character '%c'" ch)

let of_string s =
  let c = { s; pos = 0 } in
  match parse_value c 0 with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
    else Ok v
  | exception Fail (pos, msg) ->
    Error (Printf.sprintf "%s at offset %d" msg pos)

(* {1 Accessors} *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f <= 1e15 -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None

let to_list_opt = function List xs -> Some xs | _ -> None
