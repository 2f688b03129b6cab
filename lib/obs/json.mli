(** Minimal JSON values for the trace sink and its reader.

    The repository has no JSON dependency, and the trace schema
    (DESIGN.md, "Observability") only needs flat objects of scalars plus
    one nesting level for span metadata — but this module implements the
    full value grammar anyway so traces survive being post-processed by
    external tools and read back verbatim.

    Serialization is canonical enough for round-tripping: object key
    order is preserved, floats print with up to 17 significant digits
    (lossless for IEEE doubles), and non-finite floats serialize as the
    strings ["nan"], ["inf"], ["-inf"] (JSON has no literal for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** key order preserved *)

val to_string : t -> string
(** One-line rendering (no newlines — required by the JSONL framing). *)

exception Parse_error of string
(** Raised by {!of_string} with a position-annotated message. *)

val of_string : string -> t
(** Parse one JSON value; trailing garbage is a {!Parse_error}, and so
    are arrays and objects nested more than 64 deep (the parser recurses
    once per level; the deepest JSON this repository writes is about 7
    levels). A number parses as {!Int} when it is written exactly as
    [string_of_int] prints an OCaml [int] (no [.], [e], [E], leading
    zero or [-0], and within the 63-bit range), so an {!Int} prints back
    as it was written; every other number parses as {!Float}. *)

val member : string -> t -> t option
(** [member key (Obj ...)] looks a field up; [None] for missing keys
    {e and} for non-object values. *)

val to_float : t -> float option
(** Numeric coercion: accepts {!Int}, {!Float}, and the non-finite
    string encodings produced by {!to_string}. *)

val to_int : t -> int option
val to_bool : t -> bool option
val to_str : t -> string option
