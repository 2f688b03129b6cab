let magic = "isaac-artifact"

type error =
  | Io of string
  | Bad_header of string
  | Kind_mismatch of { expected : string; found : string }
  | Version_newer of { supported : int; found : int }
  | Truncated of { expected_bytes : int; got_bytes : int }
  | Checksum_mismatch of { expected : string; found : string }

let error_to_string ~path = function
  | Io msg -> Printf.sprintf "%s: %s" path msg
  | Bad_header what -> Printf.sprintf "%s: not an artifact (%s)" path what
  | Kind_mismatch { expected; found } ->
    Printf.sprintf "%s: artifact kind %S, expected %S" path found expected
  | Version_newer { supported; found } ->
    Printf.sprintf "%s: artifact version %d is newer than supported %d" path
      found supported
  | Truncated { expected_bytes; got_bytes } ->
    Printf.sprintf "%s: payload is %d bytes, header promises %d (truncated?)"
      path got_bytes expected_bytes
  | Checksum_mismatch { expected; found } ->
    Printf.sprintf "%s: checksum %s does not match header %s (corrupt)" path
      found expected

(* FNV-1a, 64-bit: tiny, dependency-free, and plenty for detecting torn
   writes and bit rot — this is an integrity check, not a MAC. *)
let checksum s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let fsync_channel oc =
  try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

(* Make the rename itself durable. Some filesystems refuse to fsync a
   directory fd; crash-safety degrades gracefully there. *)
let fsync_dir dir =
  let dir = if dir = "" then Filename.current_dir_name else dir in
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let corrupt payload =
  let b = Bytes.of_string payload in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
  Bytes.to_string b

let write ~path ~kind ~version payload =
  if kind = "" || String.contains kind ' ' then
    invalid_arg ("Artifact.write: bad kind " ^ kind);
  if version < 1 then invalid_arg "Artifact.write: version must be >= 1";
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  let keep_tmp = ref false in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      if not !keep_tmp then ( try Sys.remove tmp with Sys_error _ -> ()))
    (fun () ->
      Printf.fprintf oc "%s v1 %s %d %d %s\n" magic kind version
        (String.length payload) (checksum payload);
      if Faultsim.fire "io_crash" then begin
        (* Simulate the process dying mid-write: half the payload reaches
           the temp file, which is left behind like real crash debris; the
           destination is never replaced. *)
        output_string oc (String.sub payload 0 (String.length payload / 2));
        flush oc;
        keep_tmp := true;
        raise (Faultsim.Injected ("io_crash while writing " ^ path))
      end;
      let payload =
        if Faultsim.fire "io_corrupt" && String.length payload > 0 then
          corrupt payload
        else payload
      in
      output_string oc payload;
      flush oc;
      fsync_channel oc;
      keep_tmp := true);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

let read ~path ~kind ~max_version =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Io msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let file_len = in_channel_length ic in
        match input_line ic with
        | exception End_of_file -> Error (Bad_header "empty file")
        | header -> (
          match String.split_on_char ' ' header with
          | [ m; "v1"; k; version; bytes; sum ] when m = magic -> (
            match (int_of_string_opt version, int_of_string_opt bytes) with
            | Some version, Some bytes ->
              if k <> kind then
                Error (Kind_mismatch { expected = kind; found = k })
              else if version > max_version then
                Error (Version_newer { supported = max_version; found = version })
              else begin
                let got = file_len - pos_in ic in
                if got <> bytes then
                  Error (Truncated { expected_bytes = bytes; got_bytes = got })
                else
                  let payload = really_input_string ic bytes in
                  let found = checksum payload in
                  if found <> sum then
                    Error (Checksum_mismatch { expected = sum; found })
                  else Ok (version, payload)
              end
            | _ -> Error (Bad_header "non-numeric version/length"))
          | _ ->
            let shown =
              if String.length header > 40 then String.sub header 0 40 ^ "…"
              else header
            in
            Error (Bad_header ("first line " ^ String.escaped shown))))

(* --- change watching ---------------------------------------------------- *)

type fingerprint = {
  fp_mtime : float;
  fp_size : int;
  fp_checksum : string;
}

(* The checksum covers the raw file bytes (header included), so it
   changes whenever the artifact is rewritten with different content —
   even if the writer reused the same kind/version and the payload
   length happens to match. *)
let checksum_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Io msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        Ok (checksum (really_input_string ic len), len))

let fingerprint ~path =
  match Unix.stat path with
  | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
  | st -> (
    match checksum_file path with
    | Error e -> Error e
    | Ok (sum, len) ->
      (* Re-stat after reading: if the file was replaced mid-read, the
         stale mtime forces the next poll to re-checksum. *)
      let mtime =
        match Unix.stat path with
        | st2 when st2.Unix.st_size = len -> st2.Unix.st_mtime
        | _ | (exception Unix.Unix_error _) -> st.Unix.st_mtime
      in
      Ok { fp_mtime = mtime; fp_size = len; fp_checksum = sum })

let fingerprint_changed ~path last =
  match Unix.stat path with
  | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
  | st ->
    if st.Unix.st_mtime = last.fp_mtime && st.Unix.st_size = last.fp_size then
      (* Cheap path: nothing the filesystem can see has moved. *)
      Ok (`Unchanged last)
    else (
      match fingerprint ~path with
      | Error e -> Error e
      | Ok fp ->
        if fp.fp_checksum = last.fp_checksum then
          (* Touched but identical (e.g. an idempotent re-save): adopt
             the new stat fields so the next poll stays cheap. *)
          Ok (`Unchanged fp)
        else Ok (`Changed fp))
