module Json = Metrics.Json
module Glr = Iglr.Glr
module Session = Iglr.Session
module Language = Languages.Language
module Registry = Languages.Registry
module P = Protocol

(* Server-side observability: request traffic, scheduling shape and the
   hardening counters (shed / retried / cancelled / sink failures). *)
let m_requests = Metrics.counter "server.requests"
let m_errors = Metrics.counter "server.rpc_errors"
let m_opens = Metrics.counter "server.opens"
let m_parses = Metrics.counter "server.parses"
let m_diags = Metrics.counter "server.diags"
let m_shed = Metrics.counter "server.shed"
let m_retried = Metrics.counter "server.retried"
let m_cancelled = Metrics.counter "server.cancelled"
let m_sink_errors = Metrics.counter "server.sink_errors"

(* The deadline clock: wall time plus whatever skew the fault plan's
   [clock.skew] site injects.  Only deadline/latency arithmetic reads
   it — a skewed clock must never corrupt anything but timing. *)
let now_ms () = Metrics.now_ms () +. Fault.skew_ms ()

(* ------------------------------------------------------------------ *)
(* Ordered response writer: completions arrive from any worker domain
   in any order; [emit] sees them strictly in request order.  Each
   completion may carry an [after] thunk (the access-log emission) that
   runs right after its line is emitted — so the log shares the
   response stream's ordering guarantee.

   A sink that throws (broken pipe, injected [sink.fail]) must not take
   the writer down with it: the mutex would stay locked and every later
   response would deadlock behind the corpse.  Failed emissions are
   counted and dropped; ordering progress continues.                   *)

module Writer = struct
  type t = {
    m : Mutex.t;
    mutable next : int;
    buffered : (int, string * (unit -> unit) option) Hashtbl.t;
    mutable emit : string -> unit;
    sink_errors : int Atomic.t;
  }

  let create emit =
    { m = Mutex.create (); next = 0; buffered = Hashtbl.create 16; emit;
      sink_errors = Atomic.make 0 }

  let depth t =
    Mutex.lock t.m;
    let d = Hashtbl.length t.buffered in
    Mutex.unlock t.m;
    d

  let complete ?after t seq line =
    Mutex.lock t.m;
    Hashtbl.replace t.buffered seq (line, after);
    while Hashtbl.mem t.buffered t.next do
      let line, after = Hashtbl.find t.buffered t.next in
      (try
         Fault.point Fault.Sink_fail;
         t.emit line
       with _ ->
         Atomic.incr t.sink_errors;
         Metrics.incr m_sink_errors);
      (match after with Some f -> ( try f () with _ -> ()) | None -> ());
      Hashtbl.remove t.buffered t.next;
      t.next <- t.next + 1
    done;
    Mutex.unlock t.m
end

(* Dispatcher-side view of which documents are open, shared with the
   open job (which must roll its id back if session creation fails):
   mutations are rare, a single mutex suffices. *)
module Live = struct
  type t = { m : Mutex.t; tbl : (string, unit) Hashtbl.t }

  let create () = { m = Mutex.create (); tbl = Hashtbl.create 16 }

  let mem t k =
    Mutex.lock t.m;
    let r = Hashtbl.mem t.tbl k in
    Mutex.unlock t.m;
    r

  let add t k =
    Mutex.lock t.m;
    Hashtbl.replace t.tbl k ();
    Mutex.unlock t.m

  let remove t k =
    Mutex.lock t.m;
    Hashtbl.remove t.tbl k;
    Mutex.unlock t.m
end

(* ------------------------------------------------------------------ *)
(* Slow-request flight recorder: the last [cap] parses plus the [cap]
   slowest since startup, each with its end-to-end latency and reuse
   shape.  Quarantine incidents land here too, flagged by an
   ["incident"] reject entry.  Written by worker domains, read by the
   dispatcher's telemetry handler and the SIGUSR1 dump — one mutex.    *)

module Flight = struct
  type entry = {
    f_req : int;
    f_doc : string;
    f_ms : float;  (* end-to-end: accept → response built *)
    f_reuse_pct : float;  (* subtree shifts as a share of all shifts *)
    f_degraded : bool;
    f_rejects : (string * int) list;  (* reuse-reject counts by reason *)
  }

  let cap = 32

  type t = {
    m : Mutex.t;
    recent : entry Queue.t;
    mutable slowest : entry list;  (* sorted by f_ms descending *)
    mutable seen : int;
  }

  let create () =
    { m = Mutex.create (); recent = Queue.create (); slowest = []; seen = 0 }

  let record t e =
    Mutex.lock t.m;
    t.seen <- t.seen + 1;
    Queue.push e t.recent;
    if Queue.length t.recent > cap then ignore (Queue.pop t.recent);
    let rec insert = function
      | [] -> [ e ]
      | x :: _ as l when e.f_ms >= x.f_ms -> e :: l
      | x :: rest -> x :: insert rest
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    t.slowest <- take cap (insert t.slowest);
    Mutex.unlock t.m

  let depth t =
    Mutex.lock t.m;
    let d = Queue.length t.recent in
    Mutex.unlock t.m;
    d

  let entry_to_json e =
    Json.Obj
      [
        ("req", Json.Int e.f_req);
        ("doc", Json.String e.f_doc);
        ("ms", Json.Float e.f_ms);
        ("reuse_pct", Json.Float e.f_reuse_pct);
        ("degraded", Json.Bool e.f_degraded);
        ( "rejects",
          Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) e.f_rejects) );
      ]

  let to_json t =
    Mutex.lock t.m;
    let recent = List.of_seq (Queue.to_seq t.recent) in
    let slowest = t.slowest in
    let seen = t.seen in
    Mutex.unlock t.m;
    Json.Obj
      [
        ("capacity", Json.Int cap);
        ("recorded", Json.Int seen);
        ("recent", Json.List (List.map entry_to_json recent));
        ("slowest", Json.List (List.map entry_to_json slowest));
      ]
end

(* ------------------------------------------------------------------ *)
(* The request record: [accept] builds it and it travels with the
   request — through admission, the shed queue, the scheduled handler,
   quarantine and [respond] to the access-log line.  It is the only
   per-request state the engine keeps. *)
type req = {
  seq : int;  (* dispatcher-assigned: the response order *)
  id : Json.t;  (* the client's id, echoed in the response *)
  meth : string;  (* ["?"] when the line did not decode *)
  doc : string option;
  t0 : float;  (* accept instant: deadlines and latencies count from here *)
  slot : int Atomic.t;
}

(* Response-slot state for a submitted job: exactly one of the normal
   path (worker claims Pending→Running, runs, responds), the shed path
   (dispatcher claims Pending→Shed, responds [-32007]) and the crash
   path (supervisor claims, responds [-32006]) wins the slot, so every
   accepted request yields exactly one response no matter which faults
   fire. *)
let slot_pending = 0
let slot_running = 1
let slot_shed = 2

type t = {
  pool : Pool.t;
  sched : Scheduler.t;
  writer : Writer.t;
  live : Live.t;
  flight : Flight.t;
  log : (string -> unit) option;
  max_payload : int;
  max_doc_queue : int;  (* 0 = unbounded *)
  max_inflight : int;  (* 0 = unbounded *)
  stopping : bool Atomic.t;
  overrun : bool Atomic.t;  (* a deadline drain overran: cancel every parse *)
  inflight : int Atomic.t;  (* accepted, not yet responded *)
  shed : int Atomic.t;
  retried : int Atomic.t;
  cancelled : int Atomic.t;
  mutable accepted : int;  (* dispatcher-only: the next sequence number *)
  mutable loaded : string list;  (* dispatcher-only: languages forced *)
  pending : req Queue.t;
      (* dispatcher-only: queued parse requests in accept order, for
         oldest-first shedding under global pressure *)
  ambig_m : Mutex.t;
  ambig_cache : (string * int, Json.t) Hashtbl.t;
}

let pool t = t.pool
let requests t = t.accepted
let jobs t = Scheduler.jobs t.sched
let stopping t = Atomic.get t.stopping
let max_payload t = t.max_payload

let create ?jobs ?(max_payload = 8 * 1024 * 1024) ?(max_doc_queue = 0)
    ?(max_inflight = 0) ?log ~emit () =
  let jobs =
    match jobs with
    | Some j -> j
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  {
    pool = Pool.create ();
    sched = Scheduler.create ~jobs;
    writer = Writer.create emit;
    live = Live.create ();
    flight = Flight.create ();
    log;
    max_payload;
    max_doc_queue;
    max_inflight;
    stopping = Atomic.make false;
    overrun = Atomic.make false;
    inflight = Atomic.make 0;
    shed = Atomic.make 0;
    retried = Atomic.make 0;
    cancelled = Atomic.make 0;
    accepted = 0;
    loaded = [];
    pending = Queue.create ();
    ambig_m = Mutex.create ();
    ambig_cache = Hashtbl.create 8;
  }

let begin_shutdown t = Atomic.set t.stopping true

let drain ?deadline_ms t =
  match deadline_ms with
  | None -> Scheduler.drain t.sched
  | Some ms ->
      (* Watchdog: if the drain overruns the hard deadline, raise the
         overrun flag every parse's cancel hook reads — parses abort
         through the degradation ladder and still produce (degraded)
         responses, so the drain completes without dropping anything.
         The flag lowers again once the drain is over. *)
      let stop = Atomic.make false in
      let wd =
        Domain.spawn (fun () ->
            let t_end = Unix.gettimeofday () +. (ms /. 1000.) in
            while (not (Atomic.get stop)) && Unix.gettimeofday () < t_end do
              Unix.sleepf 0.002
            done;
            if not (Atomic.get stop) then Atomic.set t.overrun true)
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Domain.join wd;
          Atomic.set t.overrun false)
        (fun () -> Scheduler.drain t.sched)

let shutdown ?deadline_ms t =
  begin_shutdown t;
  drain ?deadline_ms t;
  Scheduler.shutdown t.sched

let set_emit t emit =
  Mutex.lock t.writer.Writer.m;
  t.writer.Writer.emit <- emit;
  Mutex.unlock t.writer.Writer.m

(* One structured access-log line per response, emitted in response
   order by the writer's [after] hook.  The line re-parses the response
   envelope to classify ok/error — cheap, and only when logging. *)
let log_line r line =
  let status =
    match Json.of_string line with
    | Json.Obj _ as j -> (
        match Json.member "error" j with Some _ -> "error" | None -> "ok")
    | _ | (exception _) -> "ok"
  in
  Json.to_line
    (Json.Obj
       ([
          ("req", Json.Int r.seq); ("id", r.id); ("method", Json.String r.meth);
        ]
       @ (match r.doc with Some d -> [ ("doc", Json.String d) ] | None -> [])
       @ [
           ("status", Json.String status);
           ("ms", Json.Float (Metrics.now_ms () -. r.t0));
         ]))

let respond t r line =
  Atomic.decr t.inflight;
  let after = Option.map (fun log () -> log (log_line r line)) t.log in
  Writer.complete ?after t.writer r.seq line

let ok r result = P.ok ~req:r.seq ~id:r.id result
let err r e = P.err ~req:r.seq ~id:r.id e

let respond_err t r e =
  Metrics.incr m_errors;
  respond t r (err r e)

(* The document of a document-keyed request (accepted with it). *)
let doc_id r = Option.get r.doc

(* Quarantine: the session let an exception escape a mutating entry
   point, so the document can no longer be trusted.  Mark it (the next
   request that touches it rebuilds from the last committed text) and
   log the incident on the flight recorder. *)
let quarantine t r =
  Pool.poison t.pool (doc_id r);
  Flight.record t.flight
    {
      Flight.f_req = r.seq;
      f_doc = doc_id r;
      f_ms = Metrics.now_ms () -. r.t0;
      f_reuse_pct = 0.;
      f_degraded = true;
      f_rejects = [ ("incident", 1) ];
    }

(* ------------------------------------------------------------------ *)
(* Document handlers — run on worker domains under per-doc ordering.   *)

let unknown_doc r =
  err r { P.code = P.e_unknown_doc; message = "unknown doc " ^ doc_id r }

let with_entry t r f =
  match Pool.find t.pool (doc_id r) with
  | None -> unknown_doc r
  | Some e ->
      (* Heal-on-touch: a quarantined session is rebuilt from its last
         committed text before the request runs.  We are under the
         scheduler's per-document ordering here, so the rebuild cannot
         race another request for the same document. *)
      if e.Pool.poisoned then Pool.heal e;
      f e

let do_open t r ~lang_name lang ~text ~budget () =
  let doc = doc_id r in
  match
    Session.create ?budget ~table:(Language.table lang)
      ~lexer:(Language.lexer lang) text
  with
  | session, outcome ->
      Pool.add t.pool
        {
          Pool.doc;
          lang_name;
          lang;
          session;
          committed_text = text;
          poisoned = false;
          analysis = None;
        };
      Metrics.incr m_opens;
      ok r
        (Json.Obj
           [
             ("doc", Json.String doc);
             ("lang", Json.String lang_name);
             ("outcome", P.outcome_to_json outcome);
           ])
  | exception Lexgen.Scanner.Lex_error e ->
      (* The document never existed: roll back the dispatcher's
         optimistic registration so the id can be reused. *)
      Live.remove t.live doc;
      err r
        {
          P.code = P.e_lex;
          message =
            Printf.sprintf "text is not scannable at byte %d"
              e.Lexgen.Scanner.error_pos;
        }

let do_edit t r edits () =
  with_entry t r @@ fun e ->
  let applied = ref 0 in
  match
    List.iter
      (fun (op : P.edit_op) ->
        Session.edit e.Pool.session ~pos:op.P.pos ~del:op.P.del
          ~insert:op.P.insert;
        incr applied)
      edits
  with
  | () ->
      (* All edits landed: this text is the new rebuild point. *)
      Pool.commit_text e (Session.text e.Pool.session);
      ok r
        (Json.Obj
           [ ("doc", Json.String e.Pool.doc); ("applied", Json.Int !applied) ])
  | exception Lexgen.Scanner.Lex_error le ->
      (* Edits before the offender stay applied (each is atomic); the
         offender itself was rejected with the document unchanged.  The
         rebuild point is NOT advanced — a later quarantine rolls the
         partial batch back too. *)
      err r
        {
          P.code = P.e_lex;
          message =
            Printf.sprintf
              "edit %d of %d rejected: unscannable at byte %d (%d edit(s) \
               remain applied)"
              (!applied + 1) (List.length edits)
              le.Lexgen.Scanner.error_pos !applied;
        }
  | exception Invalid_argument msg ->
      err r
        {
          P.code = P.e_params;
          message =
            Printf.sprintf "edit %d of %d rejected: %s (%d edit(s) remain \
                            applied)"
              (!applied + 1) (List.length edits) msg !applied;
        }

let do_parse t r ~budget ~timing ~metrics () =
  with_entry t r @@ fun e ->
  Metrics.incr m_parses;
  let s = e.Pool.session in
  let saved = Session.budget s in
  Option.iter (Session.set_budget s) budget;
  (* The request's budget never outlives it — not even when the parse
     raises, so a quarantine rebuild keeps the document's own budget. *)
  Fun.protect ~finally:(fun () -> Session.set_budget s saved) @@ fun () ->
  Fault.point Fault.Kill_mid;
  Fault.point Fault.Worker_raise;
  (* Deadline cancellation: the deadline counts from ACCEPT, not parse
     start — a request that sat in the queue past its deadline aborts
     (degraded, through the recovery ladder) on its first budget check.
     A drain that overran its hard deadline cancels every parse the same
     way.  A cancelled request counts once in [cancelled]. *)
  let dl = (Session.budget s).Glr.deadline_ms in
  let counted = ref false in
  let cancel () =
    let c =
      Atomic.get t.overrun || (dl < infinity && now_ms () > r.t0 +. dl)
    in
    if c && not !counted then begin
      counted := true;
      Atomic.incr t.cancelled;
      Metrics.incr m_cancelled
    end;
    c
  in
  let t0 = Metrics.now_ms () in
  (* [Session.measure] reads only this domain's metric shard, so [d] is
     exactly this request's activity even while sibling domains parse. *)
  let outcome, d = Session.measure (fun () -> Session.reparse ~cancel s) in
  let ms = Metrics.now_ms () -. t0 in
  let degraded =
    match outcome with
    | Session.Parsed st -> st.Glr.degraded
    | Session.Recovered { degraded; _ } -> degraded
  in
  Flight.record t.flight
    {
      Flight.f_req = r.seq;
      f_doc = e.Pool.doc;
      f_ms = Metrics.now_ms () -. r.t0;
      f_reuse_pct =
        Metrics.share d "glr.shifted_subtrees" "glr.shifted_terminals";
      f_degraded = degraded;
      f_rejects =
        [
          ("state-mismatch", Metrics.count d "glr.lookahead_state_miss");
          ("no-state", Metrics.count d "glr.lookahead_nostate");
          ("breakdown", Metrics.count d "glr.breakdowns");
        ];
    };
  ok r
    (Json.Obj
       ([
          ("doc", Json.String e.Pool.doc);
          ("outcome", P.outcome_to_json outcome);
        ]
       @ (if timing then [ ("ms", Json.Float ms) ] else [])
       @ if metrics then [ ("metrics", Metrics.to_json d) ] else []))

let do_errors t r () =
  with_entry t r @@ fun e ->
  ok r
    (Json.Obj
       [
         ("doc", Json.String e.Pool.doc);
         ("regions", P.regions_to_json (Session.error_regions e.Pool.session));
       ])

(* Semantic diagnostics: the analyzer lives on the pool entry and stays
   commit-subscribed to its session, so consecutive diag requests after
   small edits validate cached query cells (typedef decisions included)
   instead of re-analysing the whole document.  Runs under the scheduler's per-document ordering
   (it mutates the dag's choice selections and the query store). *)
let do_diag t r ~metrics () =
  with_entry t r @@ fun e ->
  Metrics.incr m_diags;
  let s = e.Pool.session in
  let grammar = e.Pool.lang.Language.grammar in
  if not (Semantics.Diag.supported grammar) then
    err r
      {
        P.code = P.e_unsupported;
        message =
          Printf.sprintf "language %s has no semantic analysis"
            e.Pool.lang_name;
      }
  else begin
    let analysis =
      match e.Pool.analysis with
      | Some a -> a
      | None ->
          let d = Semantics.Diag.create grammar in
          Session.on_commit s (fun ~watermark root ->
              Semantics.Diag.commit d ~watermark root);
          e.Pool.analysis <- Some d;
          d
    in
    (* [Session.measure] scopes the delta to this domain: the query.*
       counters in it are exactly this request's compute/hit/backdate
       activity. *)
    let res, d =
      Session.measure (fun () -> Semantics.Diag.run analysis (Session.root s))
    in
    let loc tok =
      let l = Session.location_of_token s tok in
      (l.Session.line, l.Session.col)
    in
    let engine = Semantics.Diag.engine analysis in
    let qs = Query.stats engine in
    ok r
      (Json.Obj
         ((("doc", Json.String e.Pool.doc)
          :: Semantics.Diag.json_fields ~loc res)
         @ [
             ( "query",
               Json.Obj
                 [
                   ("cells", Json.Int (Query.cells engine));
                   ("computes", Json.Int qs.Query.computes);
                   ("hits", Json.Int qs.Query.hits);
                   ("backdated", Json.Int qs.Query.backdated);
                 ] );
           ]
         @ if metrics then [ ("metrics", Metrics.to_json d) ] else []))
  end

(* Ambiguity reports are a property of the language, not of the
   document's current text: computed once per (language, K) and shared
   by every document of that language. *)
let ambig_report t lang_name lang max_len =
  let key = (lang_name, max_len) in
  Mutex.lock t.ambig_m;
  let cached = Hashtbl.find_opt t.ambig_cache key in
  Mutex.unlock t.ambig_m;
  match cached with
  | Some j -> j
  | None ->
      let j =
        Analyze.Ambig.to_json ~language:lang_name
          (Analyze.Ambig.analyze (Analyze.Of_language.ambig ~max_len lang))
      in
      Mutex.lock t.ambig_m;
      Hashtbl.replace t.ambig_cache key j;
      Mutex.unlock t.ambig_m;
      j

let do_ambig t r ~max_len () =
  with_entry t r @@ fun e ->
  ok r
    (Json.Obj
       [
         ("doc", Json.String e.Pool.doc);
         ("report", ambig_report t e.Pool.lang_name e.Pool.lang max_len);
       ])

let do_doc_stats t r () =
  with_entry t r @@ fun e ->
  let s = e.Pool.session in
  ok r
    (Json.Obj
       [
         ("doc", Json.String e.Pool.doc);
         ("lang", Json.String e.Pool.lang_name);
         ("tokens", Json.Int (Parsedag.Node.token_count (Session.root s)));
         ("has_errors", Json.Bool (Session.has_errors s));
       ])

(* Close skips heal-on-touch deliberately: rebuilding a session only to
   discard it would waste a full parse. *)
let do_close t r () =
  match Pool.find t.pool (doc_id r) with
  | None -> unknown_doc r
  | Some e ->
      Pool.remove t.pool e.Pool.doc;
      ok r
        (Json.Obj
           [ ("doc", Json.String e.Pool.doc); ("closed", Json.Bool true) ])

(* ------------------------------------------------------------------ *)
(* Server-scoped introspection — runs inline on the dispatcher.        *)

let health t =
  Json.Obj
    [
      ("docs", Json.List (List.map (fun d -> Json.String d) (Pool.ids t.pool)));
      ("requests", Json.Int t.accepted);
      ("jobs", Json.Int (jobs t));
      ("busy", Json.Int (Scheduler.busy t.sched));
      ("executed", Json.Int (Scheduler.executed t.sched));
      ( "queues",
        Json.Obj
          (List.map
             (fun (k, n) -> (k, Json.Int n))
             (Scheduler.depths t.sched)) );
      ("reorder_depth", Json.Int (Writer.depth t.writer));
      ("inflight", Json.Int (Atomic.get t.inflight));
      ("flight_depth", Json.Int (Flight.depth t.flight));
      ("stopping", Json.Bool (Atomic.get t.stopping));
      ("shed", Json.Int (Atomic.get t.shed));
      ("retried", Json.Int (Atomic.get t.retried));
      ("cancelled", Json.Int (Atomic.get t.cancelled));
      ("supervised_restarts", Json.Int (Scheduler.restarts t.sched));
      ("sink_errors", Json.Int (Atomic.get t.writer.Writer.sink_errors));
      ( "quarantined",
        Json.List
          (List.map (fun d -> Json.String d) (Pool.poisoned t.pool)) );
      ( "trace",
        Json.Obj
          [
            ("enabled", Json.Bool (Trace.enabled ()));
            ("recorded", Json.Int (Trace.recorded ()));
            ("dropped", Json.Int (Trace.dropped ()));
          ] );
    ]

let flight t = Flight.to_json t.flight

let telemetry t r ~view =
  ok r
    (match view with
    | "metrics" ->
        Json.Obj
          [
            ( "openmetrics",
              Json.String
                (Metrics.Openmetrics.render (Metrics.snapshot ())) );
          ]
    | "flight" -> flight t
    | _ -> health t)

let server_stats t r ~metrics =
  ok r
    (Json.Obj
       ([
          ("docs", Json.List (List.map (fun d -> Json.String d) (Pool.ids t.pool)));
          ("requests", Json.Int t.accepted);
          ( "languages",
            Json.List
              (List.map (fun l -> Json.String l) (List.sort compare t.loaded))
          );
          ("jobs", Json.Int (jobs t));
        ]
       @
       if metrics then [ ("metrics", Metrics.to_json (Metrics.snapshot ())) ]
       else []))

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                           *)

(* A handler must ALWAYS complete its sequence slot, or the ordered
   writer stalls every later response: uncaught exceptions become
   [e_internal] envelopes (quarantining the document when the handler
   mutates it), a crashed worker domain becomes [e_worker] through the
   supervisor's [on_crash], a shed request becomes [e_overloaded] from
   the dispatcher.  The response slot's CAS discipline guarantees
   exactly one of those wins.  The scheduled job runs under the
   request's correlation id, so every trace event it emits carries
   [rid]. *)
let submit ?(sheddable = false) ?(mutates = false) t r handler =
  if sheddable then Queue.push r t.pending;
  let on_crash ~started ~attempt =
    if (not started) && attempt = 0 then begin
      (* The job never began: nothing observable happened, so one
         retry is safe.  It goes back at the FRONT of its document's
         queue — per-document response order is preserved. *)
      Atomic.incr t.retried;
      Metrics.incr m_retried;
      `Retry
    end
    else begin
      if started && mutates then quarantine t r;
      let claimed =
        Atomic.compare_and_set r.slot slot_pending slot_running
        || Atomic.get r.slot = slot_running
      in
      if claimed then
        respond_err t r
          {
            P.code = P.e_worker;
            message =
              (if started then
                 "worker domain crashed while executing the request"
               else "worker domain crashed twice before the request started");
          };
      `Give_up
    end
  in
  Scheduler.submit t.sched ~key:(doc_id r) ~on_crash (fun () ->
      if Atomic.compare_and_set r.slot slot_pending slot_running then begin
        let line =
          Trace.with_request (string_of_int r.seq) (fun () ->
              try handler () with
              | Fault.Domain_killed as e ->
                  (* Not ours to absorb: the scheduler's supervisor
                     must see the domain die. *)
                  raise e
              | exn ->
                  Metrics.incr m_errors;
                  if mutates then quarantine t r;
                  err r { P.code = P.e_internal; message = Printexc.to_string exn })
        in
        respond t r line
      end)

let meth_name = function
  | P.Open _ -> "open"
  | P.Edit _ -> "edit"
  | P.Parse _ -> "parse"
  | P.Errors _ -> "errors"
  | P.Diag _ -> "diag"
  | P.Ambig _ -> "ambig"
  | P.Stats _ -> "stats"
  | P.Telemetry _ -> "telemetry"
  | P.Close _ -> "close"

(* Overload shedding (dispatcher-only).  Under global pressure the
   OLDEST queued parse is shed first: it has waited longest, is most
   likely stale (its client may have moved on to a newer revision) and
   freeing it helps every request behind it in its document's queue. *)

let shed_response t r message =
  Atomic.incr t.shed;
  Metrics.incr m_shed;
  respond_err t r { P.code = P.e_overloaded; message }

(* Entries whose slot already settled (ran or shed) are dead weight;
   dropping them from the front keeps the queue bounded by the number
   of genuinely pending parses. *)
let rec prune_pending t =
  match Queue.peek_opt t.pending with
  | Some r when Atomic.get r.slot <> slot_pending ->
      ignore (Queue.pop t.pending);
      prune_pending t
  | _ -> ()

let rec try_shed_oldest t =
  match Queue.take_opt t.pending with
  | None -> false
  | Some r ->
      if Atomic.compare_and_set r.slot slot_pending slot_shed then begin
        shed_response t r "shed under overload (oldest queued parse)";
        true
      end
      else try_shed_oldest t  (* already running or settled: stale entry *)

(* Admission control for a document-keyed request.  [Close] is always
   admitted — under overload a client must still be able to release
   documents.  Returns [true] when the request may be enqueued. *)
let admit t r req =
  match req with
  | P.Close _ -> true
  | _ ->
      let doc = doc_id r in
      if
        t.max_doc_queue > 0
        && Scheduler.depth t.sched ~key:doc >= t.max_doc_queue
      then begin
        shed_response t r
          (Printf.sprintf "queue full for doc %s (cap %d)" doc t.max_doc_queue);
        false
      end
      else if
        t.max_inflight > 0
        && Atomic.get t.inflight > t.max_inflight
        && not (try_shed_oldest t)
      then begin
        shed_response t r
          (Printf.sprintf "server overloaded (%d requests in flight)"
             (Atomic.get t.inflight));
        false
      end
      else true

(* Accept one request: assign its sequence slot and build its record.
   Every accepted request MUST eventually reach [respond]. *)
let accept t ?(meth = "?") ?doc ?(id = Json.Null) () =
  let r =
    {
      seq = t.accepted;
      id;
      meth;
      doc;
      t0 = now_ms ();
      slot = Atomic.make slot_pending;
    }
  in
  t.accepted <- t.accepted + 1;
  Atomic.incr t.inflight;
  Metrics.incr m_requests;
  r

(* The daemon's line reader discards oversized lines without
   materialising them; it reports them here so the client still gets
   its [-32005] and the access log its entry. *)
let reject_oversized t ~bytes =
  respond_err t (accept t ())
    {
      P.code = P.e_payload;
      message =
        Printf.sprintf "request of %d bytes exceeds the %d-byte cap" bytes
          t.max_payload;
    }

let handle_line t line =
  if String.trim line <> "" then begin
    prune_pending t;
    if Atomic.get t.stopping then begin
      (* Draining: admission is closed.  Decode just enough to echo the
         client's id (skipping oversized lines). *)
      let id =
        if String.length line > t.max_payload then Json.Null
        else
          match P.decode line with Ok (id, _) | Error (id, _) -> id
      in
      respond_err t (accept t ~id ())
        { P.code = P.e_shutting_down; message = "server is shutting down" }
    end
    else if String.length line > t.max_payload then
      reject_oversized t ~bytes:(String.length line)
    else
      match P.decode line with
      | Error (id, e) -> respond_err t (accept t ~id ()) e
      | Ok (id, req) -> (
          let r = accept t ~meth:(meth_name req) ?doc:(P.doc_of req) ~id () in
          let reject code message = respond_err t r { P.code = code; message } in
          match req with
          | P.Stats { doc = None; metrics } ->
              respond t r (server_stats t r ~metrics)
          | P.Telemetry { view } -> respond t r (telemetry t r ~view)
          | P.Open { doc; lang; text; budget } -> (
              if Live.mem t.live doc then
                reject P.e_doc_exists ("doc already open: " ^ doc)
              else
                match Registry.find lang with
                | None -> reject P.e_unknown_lang ("unknown language " ^ lang)
                | Some l ->
                    if admit t r req then begin
                      (* Force the shared lazies HERE, on the single
                         dispatcher thread: Lazy.force is not safe
                         against concurrent forcing from worker domains,
                         and this is also what guarantees one table
                         build per language per process. *)
                      Trace.with_request (string_of_int r.seq) (fun () ->
                          Registry.force l);
                      if not (List.mem lang t.loaded) then
                        t.loaded <- lang :: t.loaded;
                      Live.add t.live doc;
                      submit ~mutates:true t r
                        (do_open t r ~lang_name:lang l ~text ~budget)
                    end)
          | _ -> (
              let doc = doc_id r in
              if not (Live.mem t.live doc) then
                reject P.e_unknown_doc ("unknown doc " ^ doc)
              else if admit t r req then begin
                (match req with
                | P.Close _ ->
                    (* Unregister synchronously: a request sent after the
                       close is answered [unknown doc] even though the
                       session teardown itself runs later, in order. *)
                    Live.remove t.live doc
                | _ -> ());
                match req with
                | P.Edit { edits; _ } ->
                    submit ~mutates:true t r (do_edit t r edits)
                | P.Parse { budget; timing; metrics; _ } ->
                    submit ~sheddable:true ~mutates:true t r
                      (do_parse t r ~budget ~timing ~metrics)
                | P.Errors _ -> submit t r (do_errors t r)
                | P.Diag { metrics; _ } ->
                    submit ~mutates:true t r (do_diag t r ~metrics)
                | P.Ambig { max_len; _ } -> submit t r (do_ambig t r ~max_len)
                | P.Stats _ -> submit t r (do_doc_stats t r)
                | P.Close _ -> submit t r (do_close t r)
                | P.Open _ | P.Telemetry _ -> assert false
              end))
  end
