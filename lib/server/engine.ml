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

  type t = {
    m : Mutex.t;
    cap : int;
    recent : entry Queue.t;
    mutable slowest : entry list;  (* sorted by f_ms descending *)
    mutable seen : int;
  }

  let create cap =
    { m = Mutex.create (); cap = max 1 cap; recent = Queue.create ();
      slowest = []; seen = 0 }

  let record t e =
    Mutex.lock t.m;
    t.seen <- t.seen + 1;
    Queue.push e t.recent;
    if Queue.length t.recent > t.cap then ignore (Queue.pop t.recent);
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
    t.slowest <- take t.cap (insert t.slowest);
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
        ("capacity", Json.Int t.cap);
        ("recorded", Json.Int seen);
        ("recent", Json.List (List.map entry_to_json recent));
        ("slowest", Json.List (List.map entry_to_json slowest));
      ]
end

(* ------------------------------------------------------------------ *)
(* Cancellation wheel: one slot per in-flight parse, holding its cancel
   flag and (when the request carries a deadline) the accept-relative
   instant after which it is overdue.  The dispatcher [tick]s the wheel
   on every accepted line; graceful drain [fire_all]s it so in-flight
   parses fall back to the degradation ladder instead of holding the
   process open.  The flags are plain [Atomic.t]s — a parse polls its
   own flag from inside the GLR budget check without taking the wheel
   mutex.                                                              *)

module Wheel = struct
  type entry = { w_deadline : float option; w_flag : bool Atomic.t }
  type t = { m : Mutex.t; tbl : (int, entry) Hashtbl.t }

  let create () = { m = Mutex.create (); tbl = Hashtbl.create 16 }

  let register t seq ~deadline flag =
    Mutex.lock t.m;
    Hashtbl.replace t.tbl seq { w_deadline = deadline; w_flag = flag };
    Mutex.unlock t.m

  let unregister t seq =
    Mutex.lock t.m;
    Hashtbl.remove t.tbl seq;
    Mutex.unlock t.m

  (* Mark overdue entries; returns how many were newly marked. *)
  let tick t ~now =
    Mutex.lock t.m;
    let fired = ref 0 in
    Hashtbl.iter
      (fun _ e ->
        match e.w_deadline with
        | Some d when d < now && not (Atomic.get e.w_flag) ->
            Atomic.set e.w_flag true;
            incr fired
        | _ -> ())
      t.tbl;
    Mutex.unlock t.m;
    !fired

  let fire_all t =
    Mutex.lock t.m;
    let fired = ref 0 in
    Hashtbl.iter
      (fun _ e ->
        if not (Atomic.get e.w_flag) then begin
          Atomic.set e.w_flag true;
          incr fired
        end)
      t.tbl;
    Mutex.unlock t.m;
    !fired
end

(* Per-request bookkeeping for correlation: method, doc and accept
   timestamp, keyed by the dispatcher-assigned sequence number.  The
   dispatcher writes it before submitting; the parse handler reads the
   accept time for end-to-end latency; the access-log thunk consumes
   (and removes) the record when the response line is emitted. *)
type meta = {
  m_meth : string;
  m_doc : string option;
  m_id : Json.t;
  m_t0 : float;
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
  wheel : Wheel.t;
  log : (string -> unit) option;
  meta_m : Mutex.t;
  meta : (int, meta) Hashtbl.t;
  max_payload : int;
  max_doc_queue : int;  (* 0 = unbounded *)
  max_inflight : int;  (* 0 = unbounded *)
  stopping : bool Atomic.t;
  shed : int Atomic.t;
  retried : int Atomic.t;
  cancelled : int Atomic.t;
  mutable seq : int;  (* dispatcher-only *)
  mutable served : int;  (* dispatcher-only: requests accepted *)
  mutable loaded : string list;  (* dispatcher-only: languages forced *)
  pending : (int * Json.t * int Atomic.t) Queue.t;
      (* dispatcher-only: queued parse requests in accept order, for
         oldest-first shedding under global pressure *)
  ambig_m : Mutex.t;
  ambig_cache : (string * int, Json.t) Hashtbl.t;
}

let pool t = t.pool
let requests t = t.served
let jobs t = Scheduler.jobs t.sched
let stopping t = Atomic.get t.stopping

let create ?jobs ?(max_payload = 8 * 1024 * 1024) ?(flight_cap = 32)
    ?(max_doc_queue = 0) ?(max_inflight = 0) ?log ~emit () =
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
    flight = Flight.create flight_cap;
    wheel = Wheel.create ();
    log;
    meta_m = Mutex.create ();
    meta = Hashtbl.create 64;
    max_payload;
    max_doc_queue;
    max_inflight;
    stopping = Atomic.make false;
    shed = Atomic.make 0;
    retried = Atomic.make 0;
    cancelled = Atomic.make 0;
    seq = 0;
    served = 0;
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
      (* Watchdog: if the drain overruns the hard deadline, fire every
         in-flight cancel flag — parses abort through the degradation
         ladder and still produce (degraded) responses, so the drain
         completes without dropping anything. *)
      let stop = Atomic.make false in
      let wd =
        Domain.spawn (fun () ->
            let t_end = Unix.gettimeofday () +. (ms /. 1000.) in
            while (not (Atomic.get stop)) && Unix.gettimeofday () < t_end do
              Unix.sleepf 0.002
            done;
            if not (Atomic.get stop) then begin
              let n = Wheel.fire_all t.wheel in
              if n > 0 then begin
                Atomic.fetch_and_add t.cancelled n |> ignore;
                for _ = 1 to n do Metrics.incr m_cancelled done
              end
            end)
      in
      Scheduler.drain t.sched;
      Atomic.set stop true;
      Domain.join wd

let shutdown ?deadline_ms t =
  begin_shutdown t;
  drain ?deadline_ms t;
  Scheduler.shutdown t.sched

let set_emit t emit =
  Mutex.lock t.writer.Writer.m;
  t.writer.Writer.emit <- emit;
  Mutex.unlock t.writer.Writer.m

let put_meta t seq m =
  Mutex.lock t.meta_m;
  Hashtbl.replace t.meta seq m;
  Mutex.unlock t.meta_m

let find_meta t seq =
  Mutex.lock t.meta_m;
  let m = Hashtbl.find_opt t.meta seq in
  Mutex.unlock t.meta_m;
  m

let take_meta t seq =
  Mutex.lock t.meta_m;
  let m = Hashtbl.find_opt t.meta seq in
  Hashtbl.remove t.meta seq;
  Mutex.unlock t.meta_m;
  m

let inflight t =
  Mutex.lock t.meta_m;
  let n = Hashtbl.length t.meta in
  Mutex.unlock t.meta_m;
  n

(* One structured access-log line per response, emitted in response
   order by the writer's [after] hook.  The line re-parses the response
   envelope to classify ok/error — cheap, and only when logging. *)
let log_line seq line meta =
  let status =
    match Json.of_string line with
    | Json.Obj _ as j -> (
        match Json.member "error" j with Some _ -> "error" | None -> "ok")
    | _ | (exception _) -> "ok"
  in
  let base =
    match meta with
    | Some m ->
        [
          ("req", Json.Int seq);
          ("id", m.m_id);
          ("method", Json.String m.m_meth);
        ]
        @ (match m.m_doc with
          | Some d -> [ ("doc", Json.String d) ]
          | None -> [])
        @ [
            ("status", Json.String status);
            ("ms", Json.Float (Metrics.now_ms () -. m.m_t0));
          ]
    | None -> [ ("req", Json.Int seq); ("status", Json.String status) ]
  in
  Json.to_line (Json.Obj base)

let respond t seq line =
  match t.log with
  | None ->
      ignore (take_meta t seq);
      Writer.complete t.writer seq line
  | Some log ->
      let after () =
        let meta = take_meta t seq in
        log (log_line seq line meta)
      in
      Writer.complete ~after t.writer seq line

let respond_err t seq ~id e =
  Metrics.incr m_errors;
  respond t seq (P.err ~req:seq ~id e)

(* Quarantine: the session let an exception escape a mutating entry
   point, so the document can no longer be trusted.  Mark it (the next
   request that touches it rebuilds from the last committed text) and
   log the incident on the flight recorder. *)
let quarantine t ~req ~doc =
  Pool.poison t.pool doc;
  let t0 = match find_meta t req with Some m -> m.m_t0 | None -> now_ms () in
  Flight.record t.flight
    {
      Flight.f_req = req;
      f_doc = doc;
      f_ms = Metrics.now_ms () -. t0;
      f_reuse_pct = 0.;
      f_degraded = true;
      f_rejects = [ ("incident", 1) ];
    }

(* ------------------------------------------------------------------ *)
(* Document handlers — run on worker domains under per-doc ordering.   *)

let with_entry t ~req ~id doc f =
  match Pool.find t.pool doc with
  | None ->
      P.err ~req ~id { P.code = P.e_unknown_doc; message = "unknown doc " ^ doc }
  | Some e ->
      (* Heal-on-touch: a quarantined session is rebuilt from its last
         committed text before the request runs.  We are under the
         scheduler's per-document ordering here, so the rebuild cannot
         race another request for the same document. *)
      if e.Pool.poisoned then Pool.heal e;
      f e

let do_open t ~req ~id ~doc ~lang_name lang ~text ~budget () =
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
      P.ok ~req ~id
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
      P.err ~req ~id
        {
          P.code = P.e_lex;
          message =
            Printf.sprintf "text is not scannable at byte %d"
              e.Lexgen.Scanner.error_pos;
        }

let do_edit t ~req ~id ~doc edits () =
  with_entry t ~req ~id doc @@ fun e ->
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
      P.ok ~req ~id
        (Json.Obj
           [ ("doc", Json.String doc); ("applied", Json.Int !applied) ])
  | exception Lexgen.Scanner.Lex_error le ->
      (* Edits before the offender stay applied (each is atomic); the
         offender itself was rejected with the document unchanged.  The
         rebuild point is NOT advanced — a later quarantine rolls the
         partial batch back too. *)
      P.err ~req ~id
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
      P.err ~req ~id
        {
          P.code = P.e_params;
          message =
            Printf.sprintf "edit %d of %d rejected: %s (%d edit(s) remain \
                            applied)"
              (!applied + 1) (List.length edits) msg !applied;
        }

let do_parse ~req ~id ~doc ~budget ~timing ~metrics t () =
  with_entry t ~req ~id doc @@ fun e ->
  Metrics.incr m_parses;
  Fault.point Fault.Kill_mid;
  Fault.point Fault.Worker_raise;
  let s = e.Pool.session in
  let saved = Session.budget s in
  (match budget with Some b -> Session.set_budget s b | None -> ());
  (* Deadline cancellation: the deadline counts from ACCEPT, not parse
     start — a request that sat in the queue past its deadline aborts
     (degraded, through the recovery ladder) on its first budget check.
     The wheel flag covers the same request from the dispatcher side
     (tick on traffic, fire_all on drain); the local clock comparison
     makes cancellation work even when the dispatcher is idle. *)
  let accept_t0 =
    match find_meta t req with Some m -> m.m_t0 | None -> now_ms ()
  in
  let dl = (Option.value budget ~default:saved).Glr.deadline_ms in
  let flag = Atomic.make false in
  Wheel.register t.wheel req
    ~deadline:(if dl < infinity then Some (accept_t0 +. dl) else None)
    flag;
  let cancel () =
    Atomic.get flag || (dl < infinity && now_ms () > accept_t0 +. dl)
  in
  Fun.protect ~finally:(fun () -> Wheel.unregister t.wheel req) @@ fun () ->
  let t0 = Metrics.now_ms () in
  (* [Session.measure] reads only this domain's metric shard, so [d] is
     exactly this request's activity even while sibling domains parse. *)
  let outcome, d = Session.measure (fun () -> Session.reparse ~cancel s) in
  let ms = Metrics.now_ms () -. t0 in
  (match budget with Some _ -> Session.set_budget s saved | None -> ());
  let degraded =
    match outcome with
    | Session.Parsed st -> st.Glr.degraded
    | Session.Recovered { degraded; _ } -> degraded
  in
  let end_to_end =
    match find_meta t req with
    | Some m -> Metrics.now_ms () -. m.m_t0
    | None -> ms
  in
  Flight.record t.flight
    {
      Flight.f_req = req;
      f_doc = doc;
      f_ms = end_to_end;
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
  P.ok ~req ~id
    (Json.Obj
       ([
          ("doc", Json.String doc); ("outcome", P.outcome_to_json outcome);
        ]
       @ (if timing then [ ("ms", Json.Float ms) ] else [])
       @ if metrics then [ ("metrics", Metrics.to_json d) ] else []))

let do_errors t ~req ~id ~doc () =
  with_entry t ~req ~id doc @@ fun e ->
  P.ok ~req ~id
    (Json.Obj
       [
         ("doc", Json.String doc);
         ("regions", P.regions_to_json (Session.error_regions e.Pool.session));
       ])

(* Semantic diagnostics: the analyzer lives on the pool entry and stays
   commit-subscribed to its session, so consecutive diag requests after
   small edits validate cached query cells (typedef decisions included)
   instead of re-analysing the whole document.  Runs under the scheduler's per-document ordering
   (it mutates the dag's choice selections and the query store). *)
let do_diag t ~req ~id ~doc ~metrics () =
  with_entry t ~req ~id doc @@ fun e ->
  Metrics.incr m_diags;
  let s = e.Pool.session in
  let grammar = e.Pool.lang.Language.grammar in
  if not (Semantics.Diag.supported grammar) then
    P.err ~req ~id
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
    let r, d =
      Session.measure (fun () -> Semantics.Diag.run analysis (Session.root s))
    in
    let loc tok =
      let l = Session.location_of_token s tok in
      (l.Session.line, l.Session.col)
    in
    let engine = Semantics.Diag.engine analysis in
    let qs = Query.stats engine in
    P.ok ~req ~id
      (Json.Obj
         ((("doc", Json.String doc) :: Semantics.Diag.json_fields ~loc r)
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
      let spec = lang.Language.ambig in
      let config =
        Analyze.Ambig.config ~syn_filters:spec.Language.syn_filters
          ?sem_policy:spec.Language.sem_policy
          ~sem_preamble:spec.Language.sem_preamble
          ~lexemes:spec.Language.lexemes ~max_len
          (Language.conflict_table lang)
      in
      let j =
        Analyze.Ambig.to_json ~language:lang_name
          (Analyze.Ambig.analyze config)
      in
      Mutex.lock t.ambig_m;
      Hashtbl.replace t.ambig_cache key j;
      Mutex.unlock t.ambig_m;
      j

let do_ambig t ~req ~id ~doc ~max_len () =
  with_entry t ~req ~id doc @@ fun e ->
  P.ok ~req ~id
    (Json.Obj
       [
         ("doc", Json.String doc);
         ("report", ambig_report t e.Pool.lang_name e.Pool.lang max_len);
       ])

let do_doc_stats t ~req ~id ~doc ~metrics () =
  with_entry t ~req ~id doc @@ fun e ->
  let s = e.Pool.session in
  P.ok ~req ~id
    (Json.Obj
       ([
          ("doc", Json.String doc);
          ("lang", Json.String e.Pool.lang_name);
          ("tokens", Json.Int (Parsedag.Node.token_count (Session.root s)));
          ("has_errors", Json.Bool (Session.has_errors s));
        ]
       @
       if metrics then [ ("metrics", Metrics.to_json (Session.metrics s)) ]
       else []))

(* Close skips heal-on-touch deliberately: rebuilding a session only to
   discard it would waste a full parse. *)
let do_close t ~req ~id ~doc () =
  match Pool.find t.pool doc with
  | None ->
      P.err ~req ~id { P.code = P.e_unknown_doc; message = "unknown doc " ^ doc }
  | Some _ ->
      Pool.remove t.pool doc;
      P.ok ~req ~id
        (Json.Obj [ ("doc", Json.String doc); ("closed", Json.Bool true) ])

(* ------------------------------------------------------------------ *)
(* Server-scoped introspection — runs inline on the dispatcher.        *)

let health t =
  Json.Obj
    [
      ("docs", Json.List (List.map (fun d -> Json.String d) (Pool.ids t.pool)));
      ("requests", Json.Int t.served);
      ("jobs", Json.Int (jobs t));
      ("busy", Json.Int (Scheduler.busy t.sched));
      ("executed", Json.Int (Scheduler.executed t.sched));
      ( "queues",
        Json.Obj
          (List.map
             (fun (k, n) -> (k, Json.Int n))
             (Scheduler.depths t.sched)) );
      ("reorder_depth", Json.Int (Writer.depth t.writer));
      ("inflight", Json.Int (inflight t));
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

let telemetry t ~req ~id ~view =
  let body =
    match view with
    | "metrics" ->
        Json.Obj
          [
            ( "openmetrics",
              Json.String
                (Metrics.Openmetrics.render (Metrics.snapshot ())) );
          ]
    | "flight" -> flight t
    | _ -> health t
  in
  P.ok ~req ~id body

let server_stats t ~req ~id ~metrics =
  P.ok ~req ~id
    (Json.Obj
       ([
          ("docs", Json.List (List.map (fun d -> Json.String d) (Pool.ids t.pool)));
          ("requests", Json.Int t.served);
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
let submit ?(sheddable = false) ?(mutates = false) t ~seq ~key ~id handler =
  let slot = Atomic.make slot_pending in
  if sheddable then Queue.push (seq, id, slot) t.pending;
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
      if started && mutates then quarantine t ~req:seq ~doc:key;
      let claimed =
        Atomic.compare_and_set slot slot_pending slot_running
        || Atomic.get slot = slot_running
      in
      if claimed then
        respond_err t seq ~id
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
  Scheduler.submit t.sched ~key ~on_crash (fun () ->
      if Atomic.compare_and_set slot slot_pending slot_running then begin
        let line =
          Trace.with_request (string_of_int seq) (fun () ->
              try handler () with
              | Fault.Domain_killed as e ->
                  (* Not ours to absorb: the scheduler's supervisor
                     must see the domain die. *)
                  raise e
              | exn ->
                  Metrics.incr m_errors;
                  if mutates then quarantine t ~req:seq ~doc:key;
                  P.err ~req:seq ~id
                    { P.code = P.e_internal; message = Printexc.to_string exn })
        in
        respond t seq line
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

let shed_response t seq ~id message =
  Atomic.incr t.shed;
  Metrics.incr m_shed;
  respond_err t seq ~id { P.code = P.e_overloaded; message }

(* Entries whose slot already settled (ran or shed) are dead weight;
   dropping them from the front keeps the queue bounded by the number
   of genuinely pending parses. *)
let rec prune_pending t =
  match Queue.peek_opt t.pending with
  | Some (_, _, slot) when Atomic.get slot <> slot_pending ->
      ignore (Queue.pop t.pending);
      prune_pending t
  | _ -> ()

let try_shed_oldest t =
  let rec go () =
    match Queue.take_opt t.pending with
    | None -> false
    | Some (seq, id, slot) ->
        if Atomic.compare_and_set slot slot_pending slot_shed then begin
          shed_response t seq ~id "shed under overload (oldest queued parse)";
          true
        end
        else go ()  (* already running or settled: stale entry, drop *)
  in
  go ()

(* Admission control for a document-keyed request.  [Close] is always
   admitted — under overload a client must still be able to release
   documents.  Returns [true] when the request may be enqueued. *)
let admit t ~seq ~id req ~doc =
  match req with
  | P.Close _ -> true
  | _ ->
      if
        t.max_doc_queue > 0
        && Scheduler.depth t.sched ~key:doc >= t.max_doc_queue
      then begin
        shed_response t seq ~id
          (Printf.sprintf "queue full for doc %s (cap %d)" doc t.max_doc_queue);
        false
      end
      else if
        t.max_inflight > 0
        && inflight t > t.max_inflight
        && not (try_shed_oldest t)
      then begin
        shed_response t seq ~id
          (Printf.sprintf "server overloaded (%d requests in flight)"
             (inflight t));
        false
      end
      else true

(* Accept one request: assign its sequence slot and meta record.  Every
   accepted sequence number MUST eventually reach [respond]. *)
let accept t ?(meth = "?") ?doc ?(id = Json.Null) () =
  let seq = t.seq in
  t.seq <- t.seq + 1;
  t.served <- t.served + 1;
  Metrics.incr m_requests;
  put_meta t seq { m_meth = meth; m_doc = doc; m_id = id; m_t0 = now_ms () };
  seq

(* The daemon's line reader discards oversized lines without
   materialising them; it reports them here so the client still gets
   its [-32005] and the access log its entry. *)
let reject_oversized t ~bytes =
  let seq = accept t () in
  respond_err t seq ~id:Json.Null
    {
      P.code = P.e_payload;
      message =
        Printf.sprintf "request of %d bytes exceeds the %d-byte cap" bytes
          t.max_payload;
    }

let handle_line t line =
  if String.trim line <> "" then begin
    prune_pending t;
    let fired = Wheel.tick t.wheel ~now:(now_ms ()) in
    if fired > 0 then begin
      Atomic.fetch_and_add t.cancelled fired |> ignore;
      for _ = 1 to fired do Metrics.incr m_cancelled done
    end;
    if Atomic.get t.stopping then begin
      (* Draining: admission is closed.  Decode just enough to echo the
         client's id (skipping oversized lines). *)
      let id =
        if String.length line > t.max_payload then Json.Null
        else
          match P.decode line with Ok (id, _) | Error (id, _) -> id
      in
      let seq = accept t ~id () in
      respond_err t seq ~id
        { P.code = P.e_shutting_down; message = "server is shutting down" }
    end
    else if String.length line > t.max_payload then
      let seq = accept t () in
      respond_err t seq ~id:Json.Null
        {
          P.code = P.e_payload;
          message =
            Printf.sprintf "request of %d bytes exceeds the %d-byte cap"
              (String.length line) t.max_payload;
        }
    else
      match P.decode line with
      | Error (id, e) ->
          let seq = accept t ~id () in
          respond_err t seq ~id e
      | Ok (id, req) -> (
          let seq = accept t ~meth:(meth_name req) ?doc:(P.doc_of req) ~id () in
          let reject code message =
            respond_err t seq ~id { P.code = code; message }
          in
          match req with
          | P.Stats { doc = None; metrics } ->
              respond t seq (server_stats t ~req:seq ~id ~metrics)
          | P.Telemetry { view } -> respond t seq (telemetry t ~req:seq ~id ~view)
          | P.Open { doc; lang; text; budget } -> (
              if Live.mem t.live doc then
                reject P.e_doc_exists ("doc already open: " ^ doc)
              else
                match Registry.find lang with
                | None -> reject P.e_unknown_lang ("unknown language " ^ lang)
                | Some l ->
                    if admit t ~seq ~id req ~doc then begin
                      (* Force the shared lazies HERE, on the single
                         dispatcher thread: Lazy.force is not safe
                         against concurrent forcing from worker domains,
                         and this is also what guarantees one table
                         build per language per process. *)
                      Trace.with_request (string_of_int seq) (fun () ->
                          Registry.force l);
                      if not (List.mem lang t.loaded) then
                        t.loaded <- lang :: t.loaded;
                      Live.add t.live doc;
                      submit ~mutates:true t ~seq ~key:doc ~id
                        (do_open t ~req:seq ~id ~doc ~lang_name:lang l ~text
                           ~budget)
                    end)
          | _ -> (
              let doc = Option.get (P.doc_of req) in
              if not (Live.mem t.live doc) then
                reject P.e_unknown_doc ("unknown doc " ^ doc)
              else if admit t ~seq ~id req ~doc then begin
                (match req with
                | P.Close _ ->
                    (* Unregister synchronously: a request sent after the
                       close is answered [unknown doc] even though the
                       session teardown itself runs later, in order. *)
                    Live.remove t.live doc
                | _ -> ());
                match req with
                | P.Edit { edits; _ } ->
                    submit ~mutates:true t ~seq ~key:doc ~id
                      (do_edit t ~req:seq ~id ~doc edits)
                | P.Parse { budget; timing; metrics; _ } ->
                    submit ~sheddable:true ~mutates:true t ~seq ~key:doc ~id
                      (do_parse ~req:seq ~id ~doc ~budget ~timing ~metrics t)
                | P.Errors _ ->
                    submit t ~seq ~key:doc ~id (do_errors t ~req:seq ~id ~doc)
                | P.Diag { metrics; _ } ->
                    submit ~mutates:true t ~seq ~key:doc ~id
                      (do_diag t ~req:seq ~id ~doc ~metrics)
                | P.Ambig { max_len; _ } ->
                    submit t ~seq ~key:doc ~id
                      (do_ambig t ~req:seq ~id ~doc ~max_len)
                | P.Stats { metrics; _ } ->
                    submit t ~seq ~key:doc ~id
                      (do_doc_stats t ~req:seq ~id ~doc ~metrics)
                | P.Close _ ->
                    submit t ~seq ~key:doc ~id (do_close t ~req:seq ~id ~doc)
                | P.Open _ | P.Telemetry _ -> assert false
              end))
  end
