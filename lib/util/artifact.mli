(** Crash-safe persistence for tuning artifacts.

    The paper's economics (§5–§6) hinge on the offline phase's outputs —
    trained profiles, and the benchmark reports that vouch for them —
    being paid for once and reused forever, so every artifact this repo
    writes goes through this module rather than a bare [open_out]:

    - {!write} is atomic: the bytes go to a temp file in the same
      directory, are fsynced, and are [rename]d over the destination.
      A crash at any point leaves the previous version readable; at
      worst a [*.tmp.<pid>] file is left behind.
    - Every file starts with a one-line header
      [isaac-artifact v1 <kind> <version> <bytes> <fnv64>] carrying the
      artifact kind, the writer's schema version, the payload length and
      an FNV-1a checksum.
    - {!read} validates all four and returns a [result]; a torn or
      corrupted artifact is always detected and reported, never
      partially loaded.

    Every write fsyncs the file and its containing directory, so a
    completed write survives a power loss as well as a crash.

    {!Faultsim} hooks: [io_crash] kills a write after half the payload,
    [io_corrupt] flips a payload byte after checksumming. *)

type error =
  | Io of string                 (** open/read failure (incl. missing file) *)
  | Bad_header of string         (** no artifact header: wrong or legacy file *)
  | Kind_mismatch of { expected : string; found : string }
  | Version_newer of { supported : int; found : int }
      (** written by a newer schema than this binary understands *)
  | Truncated of { expected_bytes : int; got_bytes : int }
      (** payload length disagrees with the header (torn write) *)
  | Checksum_mismatch of { expected : string; found : string }

val error_to_string : path:string -> error -> string

val checksum : string -> string
(** FNV-1a 64-bit checksum, 16 lowercase hex digits. *)

val write : path:string -> kind:string -> version:int -> string -> unit
(** [write ~path ~kind ~version payload] atomically replaces [path].
    [kind] is a space-free tag such as ["isaac-profile"]; [version >= 1]
    is the writer's schema version for that kind. Raises [Sys_error] on
    I/O failure and {!Faultsim.Injected} under fault injection; in both
    cases the previous content of [path] is untouched. *)

val read : path:string -> kind:string -> max_version:int -> (int * string, error) result
(** [read ~path ~kind ~max_version] returns [(version, payload)] after
    validating the header's kind, version ([<= max_version]), payload
    length and checksum. Never raises. *)

(** {2 Change watching}

    A resident process serving artifacts from disk (the plan-serving
    daemon) needs to notice when an artifact is atomically replaced
    under it. {!fingerprint} captures the observable identity of the
    file — mtime, size, and the FNV-1a checksum of the {e raw file
    bytes} (header included) — and {!fingerprint_changed} answers "did
    it really change?" with a stat-only fast path: when mtime and size
    are untouched the file is not re-read, so polling every second is
    cheap even for large profiles. mtime granularity is
    filesystem-dependent (can be whole seconds), which is why the
    checksum, not the timestamp, is the authority whenever the stat
    fields move. *)

type fingerprint = {
  fp_mtime : float;    (** stat mtime at capture *)
  fp_size : int;       (** file size in bytes *)
  fp_checksum : string; (** {!checksum} of the raw file bytes *)
}

val fingerprint : path:string -> (fingerprint, error) result
(** Read and checksum the whole file. [Error (Io _)] if it cannot be
    opened or statted. *)

val fingerprint_changed :
  path:string ->
  fingerprint ->
  ([ `Unchanged of fingerprint | `Changed of fingerprint ], error) result
(** [fingerprint_changed ~path last] compares the file against a
    previously captured fingerprint. [`Unchanged fp] means the content
    checksum is the same — store the returned [fp], whose refreshed
    stat fields keep the next poll on the stat-only fast path.
    [`Changed fp] means the bytes differ; [fp] describes the new
    content. *)
