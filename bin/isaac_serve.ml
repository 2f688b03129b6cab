(* isaac_serve: resident plan-serving daemon — ROADMAP item 1.

   Clients speak one JSON object per line (see Serve and DESIGN.md
   "Plan serving"). Two transports:

     # stdin JSONL (default) — one client, e.g. scripted cold/warm probes:
     printf '%s\n' '{"op":"gemm","m":2560,"n":16,"k":2560,"id":1}' \
       | isaac_serve -p p100-gemm.profile

     # Unix socket — many concurrent clients, [--workers] accept domains:
     isaac_serve -p p100-gemm.profile --socket /tmp/isaac.sock --workers 4

   Run under ISAAC_TRACE=path, with ISAAC_TRACE_MAX_MB=N to bound a
   long-running daemon's trace, to record serve.* metrics: the stats
   reply then carries the live telemetry snapshot, and the trace closes
   with the final one. *)

open Cmdliner

(* One accepted connection: serve request lines until EOF or shutdown.
   A shutdown request flips [stop] and shuts the listener down
   (shutdown(2), not close(2) — closing an fd does not wake siblings
   already blocked in accept, shutdown makes their accept fail). *)
let serve_connection srv ~stop ~listener fd =
  (try
     match
       Serve.serve_lines srv (Unix.in_channel_of_descr fd)
         (Unix.out_channel_of_descr fd)
     with
     | `Eof -> ()
     | `Stop ->
       Atomic.set stop true;
       (try Unix.shutdown listener Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
   with Sys_error _ | Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let worker_loop srv ~stop ~listener =
  let rec loop () =
    if not (Atomic.get stop) then
      match Unix.accept listener with
      | fd, _ ->
        serve_connection srv ~stop ~listener fd;
        loop ()
      | exception Unix.Unix_error _ -> ()  (* listener closed: shutting down *)
  in
  loop ()

let serve_socket srv path workers =
  if Sys.file_exists path then Unix.unlink path;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 64;
  let stop = Atomic.make false in
  Printf.eprintf "isaac_serve: listening on %s (%d worker%s, device %s)\n%!"
    path workers
    (if workers = 1 then "" else "s")
    (Serve.device srv).name;
  let domains =
    List.init (max 0 (workers - 1)) (fun _ ->
        Domain.spawn (fun () -> worker_loop srv ~stop ~listener))
  in
  worker_loop srv ~stop ~listener;
  List.iter Domain.join domains;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  if Sys.file_exists path then try Unix.unlink path with Sys_error _ -> ()

let run gemm_profile conv_profile socket workers cache_entries reload_interval =
  (* A client vanishing mid-response must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  match
    Serve.create ?cache_entries ~reload_interval ?gemm_profile ?conv_profile ()
  with
  | Error msg ->
    prerr_endline ("isaac_serve: " ^ msg);
    exit 2
  | Ok srv -> (
    match socket with
    | Some path -> serve_socket srv path (max 1 workers)
    | None -> ignore (Serve.serve_lines srv stdin stdout))

let cmd =
  let gemm_profile =
    Arg.(value & opt (some string) None
         & info [ "p"; "profile" ] ~doc:"GEMM profile path.")
  in
  let conv_profile =
    Arg.(value & opt (some string) None
         & info [ "conv-profile" ] ~doc:"CONV profile path.")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ]
             ~doc:"Serve a Unix domain socket at $(docv) instead of \
                   stdin/stdout JSONL." ~docv:"PATH")
  in
  let workers =
    Arg.(value & opt int 4
         & info [ "workers" ]
             ~doc:"Accept-loop domains in --socket mode (plan lookups are \
                   lock-free; concurrent misses on one input coalesce onto \
                   a single planning run).")
  in
  let cache_entries =
    Arg.(value & opt (some int) None
         & info [ "cache-entries" ]
             ~doc:"Max resident plans per op cache (LRU eviction beyond; \
                   unbounded by default).")
  in
  let reload_interval =
    Arg.(value & opt float 2.0
         & info [ "reload-interval" ]
             ~doc:"Seconds between profile hot-reload fingerprint checks \
                   (the $(b,reload) request forces one immediately).")
  in
  Cmd.v
    (Cmd.info "isaac_serve"
       ~doc:"Resident plan-serving daemon over a sharded coalescing cache")
    Term.(const run $ gemm_profile $ conv_profile $ socket $ workers
          $ cache_entries $ reload_interval)

let () = exit (Cmd.eval cmd)
