(* iglrd — the incremental-analysis parse-service daemon.

   Speaks newline-delimited JSON-RPC (iglr-analysis/1 envelopes) over
   stdio by default, or over a Unix-domain socket with [--socket].
   Methods: open, edit, parse, errors, ambig, stats, telemetry, close —
   see README.md "Running the daemon".  [--log FILE] appends a
   structured JSON access log; SIGUSR1 dumps the health snapshot and
   slow-request flight recorder to stderr; SIGTERM/SIGINT drain
   gracefully: admission closes (new requests answer -32008), in-flight
   work finishes under the [--drain-ms] hard deadline (overdue parses
   cancel through the degradation ladder and still answer, degraded),
   the access log is flushed, and the process exits 0.

   All I/O runs through the EINTR-restartable [Server.Rio] loops: a
   signal landing mid-read never kills the stream, and a request line
   exceeding [--max-payload] is discarded in chunks (never
   materialised), answered with -32005, and the stream resynchronises
   at the next newline.

   One engine per process: the session pool, the shared language tables
   and the worker domains are common to every connection, so a socket
   server's clients share compiled tables exactly like documents on one
   stdio session do.  Socket connections are served one at a time (the
   protocol is stateful per connection only in its document ids; the
   pool persists across connections). *)

open Cmdliner

(* Signal handlers only set flags; everything interesting runs on the
   dispatcher thread between requests (engine introspection and
   shutdown are not async-safe). *)
let dump_requested = ref false
let shutdown_requested = ref false

let dump_telemetry engine =
  dump_requested := false;
  let j =
    Metrics.Json.Obj
      [
        ("health", Server.Engine.health engine);
        ("flight", Server.Engine.flight engine);
      ]
  in
  prerr_endline (Metrics.Json.to_line j)

let should_stop () = !shutdown_requested

let serve_fd ~drain_ms engine fd_in fd_out =
  Server.Engine.set_emit engine (fun line -> Server.Rio.write_all fd_out (line ^ "\n"));
  let r =
    Server.Rio.reader ~max_line:(Server.Engine.max_payload engine) fd_in
  in
  (* Service SIGUSR1 while blocked in read: without this, a dump
     requested on an idle daemon would wait for the next request line. *)
  let on_intr () = if !dump_requested then dump_telemetry engine in
  let rec loop () =
    if !shutdown_requested then ()
    else begin
      match Server.Rio.read_line ~should_stop ~on_intr r with
      | `Line line ->
          Server.Engine.handle_line engine line;
          if !dump_requested then dump_telemetry engine;
          loop ()
      | `Oversized bytes ->
          Server.Engine.reject_oversized engine ~bytes;
          loop ()
      | `Eof -> ()
      | `Stopped -> ()
    end
  in
  loop ();
  (* EOF and SIGTERM/SIGINT both end the read loop here, so this is the
     drain [--drain-ms] bounds; the shutdown drain after it finds
     nothing left in flight. *)
  Server.Engine.drain ~deadline_ms:drain_ms engine;
  if !dump_requested then dump_telemetry engine

let serve_socket ~drain_ms engine path =
  (* A stale socket file from a previous run would make [bind] fail. *)
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  Fun.protect
    ~finally:(fun () ->
      Unix.close sock;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let on_intr () = if !dump_requested then dump_telemetry engine in
      let rec loop () =
        match Server.Rio.accept ~should_stop ~on_intr sock with
        | None -> ()
        | Some (fd, _) ->
            (try serve_fd ~drain_ms engine fd fd
             with Unix.Unix_error _ | Sys_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ());
            if !shutdown_requested then () else loop ()
      in
      loop ())

let install_signal s f =
  try ignore (Sys.signal s (Sys.Signal_handle f))
  with Invalid_argument _ | Sys_error _ -> ()

let run serial jobs socket max_payload log_file fault_plan drain_ms
    max_doc_queue max_inflight =
  (match fault_plan with
  | None -> ()
  | Some p -> (
      match Fault.plan_of_string p with
      | Ok plan -> Fault.install plan
      | Error e ->
          prerr_endline ("iglrd: invalid --fault-plan: " ^ e);
          exit 2));
  let jobs = if serial then Some 0 else jobs in
  let log_oc =
    Option.map
      (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
      log_file
  in
  let log =
    Option.map
      (fun oc line ->
        output_string oc line;
        output_char oc '\n';
        flush oc)
      log_oc
  in
  let engine =
    Server.Engine.create ?jobs ?max_payload ?max_doc_queue ?max_inflight ?log
      ~emit:(fun _ -> ())
      ()
  in
  install_signal Sys.sigusr1 (fun _ -> dump_requested := true);
  install_signal Sys.sigterm (fun _ -> shutdown_requested := true);
  install_signal Sys.sigint (fun _ -> shutdown_requested := true);
  Fun.protect
    ~finally:(fun () ->
      (* Graceful drain: close admission, finish in-flight work under
         the hard deadline, then stop the domains and flush the log.
         Reached on EOF and on SIGTERM/SIGINT alike; exit code 0. *)
      Server.Engine.shutdown ~deadline_ms:drain_ms engine;
      Option.iter close_out log_oc)
    (fun () ->
      if !shutdown_requested then Server.Engine.begin_shutdown engine;
      match socket with
      | None -> serve_fd ~drain_ms engine Unix.stdin Unix.stdout
      | Some path -> serve_socket ~drain_ms engine path)

let serial_arg =
  Arg.(
    value & flag
    & info [ "serial" ]
        ~doc:
          "Run without worker domains: requests execute inline on the \
           dispatcher thread, in order.  Deterministic; used by the smoke \
           tests.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel reparses (default: recommended \
           domain count minus one).  Requests for one document always \
           execute in submission order regardless of $(docv).")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Listen on a Unix-domain socket at $(docv) instead of serving \
           stdio.  Connections are accepted one at a time; the session \
           pool persists across connections.")

let max_payload_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-payload" ] ~docv:"BYTES"
        ~doc:
          "Reject request lines longer than $(docv) bytes with a \
           structured error (default 8 MiB).  Oversized lines are \
           discarded without being read into memory and the stream \
           resynchronises at the next newline.")

let log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Append one structured JSON access-log line per response to \
           $(docv): request id, client id, method, doc, ok/error status \
           and end-to-end latency, in response order.")

let fault_plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Install a deterministic fault-injection plan (chaos testing): \
           semicolon-separated clauses like \
           $(b,seed=7;kill.mid@3;stall%0.05).  Sites: worker.raise, \
           kill.pre, kill.mid, stall, sink.fail, clock.skew.")

let drain_ms_arg =
  Arg.(
    value & opt float 2000.
    & info [ "drain-ms" ] ~docv:"MS"
        ~doc:
          "Hard deadline for the graceful drain on SIGTERM/SIGINT or \
           EOF: in-flight parses still running after $(docv) \
           milliseconds are cancelled through the degradation ladder \
           (they answer, degraded) so the process always exits.")

let max_doc_queue_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-doc-queue" ] ~docv:"N"
        ~doc:
          "Shed requests (error -32007) for a document that already has \
           $(docv) requests queued or running (default: unbounded).  \
           $(b,close) is always admitted.")

let max_inflight_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:
          "Global backpressure: past $(docv) accepted-but-unanswered \
           requests, shed the oldest queued parse (error -32007) to \
           make room — or the incoming request when nothing is \
           sheddable (default: unbounded).")

let () =
  let info =
    Cmd.info "iglrd"
      ~doc:"Incremental GLR parse-service daemon (newline-delimited JSON-RPC)"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const run $ serial_arg $ jobs_arg $ socket_arg $ max_payload_arg
            $ log_arg $ fault_plan_arg $ drain_ms_arg $ max_doc_queue_arg
            $ max_inflight_arg)))
