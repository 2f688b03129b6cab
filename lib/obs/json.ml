type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- serialization ----------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_nan f then Buffer.add_string buf "\"nan\""
    else if f = Float.infinity then Buffer.add_string buf "\"inf\""
    else if f = Float.neg_infinity then Buffer.add_string buf "\"-inf\""
    else Buffer.add_string buf (float_to_string f)
  | String s -> escape_to buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* --- parsing ----------------------------------------------------------- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail cur fmt =
  Printf.ksprintf (fun s -> raise (Parse_error (Printf.sprintf "at %d: %s" cur.pos s))) fmt

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  while
    cur.pos < String.length cur.src
    && (match cur.src.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    advance cur
  done

let expect cur c =
  match peek cur with
  | Some d when d = c -> advance cur
  | Some d -> fail cur "expected %c, got %c" c d
  | None -> fail cur "expected %c, got end of input" c

let keyword cur kw v =
  let n = String.length kw in
  if cur.pos + n <= String.length cur.src && String.sub cur.src cur.pos n = kw then begin
    cur.pos <- cur.pos + n;
    v
  end
  else fail cur "bad literal (expected %s)" kw

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur; Buffer.contents buf
    | Some '\\' ->
      advance cur;
      (match peek cur with
       | Some '"' -> Buffer.add_char buf '"'; advance cur
       | Some '\\' -> Buffer.add_char buf '\\'; advance cur
       | Some '/' -> Buffer.add_char buf '/'; advance cur
       | Some 'n' -> Buffer.add_char buf '\n'; advance cur
       | Some 'r' -> Buffer.add_char buf '\r'; advance cur
       | Some 't' -> Buffer.add_char buf '\t'; advance cur
       | Some 'b' -> Buffer.add_char buf '\b'; advance cur
       | Some 'f' -> Buffer.add_char buf '\012'; advance cur
       | Some 'u' ->
         advance cur;
         if cur.pos + 4 > String.length cur.src then fail cur "bad \\u escape";
         let hex = String.sub cur.src cur.pos 4 in
         let code =
           match int_of_string_opt ("0x" ^ hex) with
           | Some c -> c
           | None -> fail cur "bad \\u escape %s" hex
         in
         cur.pos <- cur.pos + 4;
         (* Traces only ever escape control characters; encode the BMP
            code point as UTF-8 for generality. *)
         if code < 0x80 then Buffer.add_char buf (Char.chr code)
         else if code < 0x800 then begin
           Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
         else begin
           Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
           Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
       | _ -> fail cur "bad escape");
      go ()
    | Some c -> Buffer.add_char buf c; advance cur; go ()
  in
  go ()

let parse_number cur =
  let start = cur.pos in
  let is_float = ref false in
  let rec go () =
    match peek cur with
    | Some ('0' .. '9' | '-' | '+') -> advance cur; go ()
    | Some ('.' | 'e' | 'E') -> is_float := true; advance cur; go ()
    | _ -> ()
  in
  go ();
  let text = String.sub cur.src start (cur.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail cur "bad number %s" text
  else
    (* An integer is an [Int] only in the form [string_of_int] prints
       (no leading zero, no "-0"), so that it prints back as it was
       written; "-0" and "007" are read as floats. *)
    let first_digit = if text.[0] = '-' then 1 else 0 in
    match int_of_string_opt text with
    | Some i when text.[first_digit] <> '0' || String.equal text "0" -> Int i
    | _ -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail cur "bad number %s" text)

(* Arrays and objects nest at most this deep. The parser recurses once
   per level, so without a bound a request of a million ['['] bytes
   costs a million stack frames; the deepest JSON this repository
   writes is about 7 levels (a [stats] reply). *)
let max_depth = 64

(* Steps past the opening bracket of an array or object that [depth]
   arrays and objects enclose. *)
let enter cur ~depth =
  if depth >= max_depth then fail cur "nesting deeper than %d" max_depth;
  advance cur;
  skip_ws cur

let rec parse_value cur ~depth =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '{' ->
    enter cur ~depth;
    if peek cur = Some '}' then (advance cur; Obj [])
    else begin
      let rec fields acc =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur ~depth:(depth + 1) in
        skip_ws cur;
        match peek cur with
        | Some ',' -> advance cur; fields ((k, v) :: acc)
        | Some '}' -> advance cur; Obj (List.rev ((k, v) :: acc))
        | _ -> fail cur "expected , or } in object"
      in
      fields []
    end
  | Some '[' ->
    enter cur ~depth;
    if peek cur = Some ']' then (advance cur; List [])
    else begin
      let rec items acc =
        let v = parse_value cur ~depth:(depth + 1) in
        skip_ws cur;
        match peek cur with
        | Some ',' -> advance cur; items (v :: acc)
        | Some ']' -> advance cur; List (List.rev (v :: acc))
        | _ -> fail cur "expected , or ] in array"
      in
      items []
    end
  | Some '"' -> String (parse_string cur)
  | Some 't' -> keyword cur "true" (Bool true)
  | Some 'f' -> keyword cur "false" (Bool false)
  | Some 'n' -> keyword cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur "unexpected character %c" c

let of_string s =
  let cur = { src = s; pos = 0 } in
  let v = parse_value cur ~depth:0 in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

(* --- accessors --------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | String "nan" -> Some Float.nan
  | String "inf" -> Some Float.infinity
  | String "-inf" -> Some Float.neg_infinity
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_str = function String s -> Some s | _ -> None
