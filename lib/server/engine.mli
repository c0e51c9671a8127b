(** The daemon's request engine: decode → admit → dispatch → respond.

    One engine holds the session pool, the domain scheduler and the
    response writer.  {!handle_line} is the single entry point for a
    request line and MUST be called from one thread per engine (the
    dispatcher — [iglrd]'s read loop); it validates the request, answers
    protocol-level failures immediately, and enqueues document work on
    the scheduler keyed by document id, so requests for one document
    execute in submission order while documents parse in parallel.

    Responses are handed to [emit] strictly in request order (a reorder
    buffer holds out-of-order completions), so a serial client reading
    line-by-line sees classic RPC behaviour even over a parallel
    engine.  [emit] is called with the writer lock held, possibly from a
    worker domain: keep it cheap (write + flush).  An [emit] that throws
    is counted ([server.sink_errors]) and its line dropped — it never
    wedges the writer.

    {b Exactly one response per accepted request}, whatever fails:
    handler exceptions fold into [e_internal] envelopes (quarantining
    the document when the handler mutates it), a crashed worker domain
    answers [e_worker] through the scheduler's supervisor (after one
    silent retry when the job had not started), a request shed by
    admission control answers [e_overloaded], and requests arriving
    after {!begin_shutdown} answer [e_shutting_down].  The engine never
    raises from {!handle_line}.

    {b Deadline cancellation.}  A parse whose request carries
    [budget.deadline_ms] is cancelled — through the same degradation
    ladder as an in-parse deadline, answering [degraded:true] — once
    that many milliseconds have passed since the request was ACCEPTED,
    queueing time included.  The parse compares the clock with that
    accept-relative instant at each of its budget checks, so
    cancellation needs neither a timer nor concurrent traffic.  A
    {!drain} that overruns its hard deadline cancels every running
    parse the same way. *)

type t

val create :
  ?jobs:int ->
  ?max_payload:int ->
  ?max_doc_queue:int ->
  ?max_inflight:int ->
  ?log:(string -> unit) ->
  emit:(string -> unit) ->
  unit ->
  t
(** [jobs] worker domains (default
    [Domain.recommended_domain_count () - 1], clamped ≥ 1; [0] = inline
    deterministic execution).  [max_payload] caps the accepted request
    line length in bytes (default 8 MiB); longer lines are answered with
    [e_payload] without being parsed.

    [max_doc_queue] (default 0 = unbounded) caps one document's queued +
    running jobs: a request for a document at its cap is shed with
    [e_overloaded] ([close] is always admitted).  [max_inflight]
    (default 0 = unbounded) caps the requests in flight — accepted
    but not yet answered: a request counts from its acceptance until
    its handler (or the shedder, or the supervisor) hands the response
    to the writer, with or without [log].  Past the cap, the OLDEST
    queued parse is shed to make room, or the incoming request itself
    when no parse is sheddable.

    The slow-request flight recorder keeps the 32 most recent and the
    32 slowest parses with latency, subtree-reuse percentage, degraded
    bit and reuse-reject counts ([telemetry view:"flight"], or the
    daemon's SIGUSR1 dump).  Quarantine incidents are recorded there
    too, marked by an ["incident"] reject entry.

    [log] receives one structured JSON access-log line per response —
    request id, client id, method, doc, ok/error status and end-to-end
    latency — in response (= request) order.  Called under the writer
    lock, possibly from a worker domain: keep it cheap, like [emit]. *)

val set_emit : t -> (string -> unit) -> unit
(** Replace the response sink.  Call only when the engine is drained (no
    in-flight jobs) — the socket server swaps sinks between connections,
    never mid-request. *)

val handle_line : t -> string -> unit
(** Process one request line (without its terminating newline).
    Whitespace-only lines are ignored. *)

val reject_oversized : t -> bytes:int -> unit
(** Answer [e_payload] for a [bytes]-long request line the daemon's
    reader discarded without materialising.  Dispatcher thread only
    (assigns a sequence number, like {!handle_line}). *)

val begin_shutdown : t -> unit
(** Close admission: every subsequent {!handle_line} answers
    [e_shutting_down].  In-flight work is unaffected — follow with
    {!drain} or {!shutdown}. *)

val stopping : t -> bool

val drain : ?deadline_ms:float -> t -> unit
(** Block until every in-flight document job has completed and its
    response has been emitted.  With [deadline_ms], a watchdog raises
    one engine-wide overrun flag once the deadline passes; every parse
    polls it at its budget checks, aborts through the degradation
    ladder and still answers (degraded), so the drain completes without
    dropping a response.  The flag lowers when [drain] returns. *)

val shutdown : ?deadline_ms:float -> t -> unit
(** {!begin_shutdown}, {!drain} (under [deadline_ms] if given), then
    stop and join the worker domains.  Idempotent. *)

(** {1 Introspection} — for tests, the bench harness and the daemon's
    health surface. *)

val pool : t -> Pool.t

val requests : t -> int
(** Requests accepted so far (each answered exactly once). *)

val jobs : t -> int

val max_payload : t -> int
(** The request-line cap in bytes: the daemon sizes its line reader
    with it, so reader and engine agree on what is oversized. *)

val health : t -> Metrics.Json.t
(** Live-service snapshot: open docs, worker/busy counts, per-doc queue
    depths, reorder-buffer depth, in-flight requests, flight-recorder
    depth, trace ring counters, and the hardening counters — [shed],
    [retried], [cancelled], [supervised_restarts], [sink_errors],
    [quarantined] (doc list) and [stopping].  [cancelled] counts the
    parses whose cancel hook fired — an accept-relative deadline that
    expired, or an overrunning drain — once per request.  The same
    object the [telemetry] method's ["health"] view returns; also the
    daemon's SIGUSR1 dump.  Call from the dispatcher thread. *)

val flight : t -> Metrics.Json.t
(** The flight recorder as JSON ([telemetry view:"flight"]): capacity,
    total parses recorded, the most recent entries and the slowest
    entries since startup. *)
