(* Fault-injected hardening tests for the iglrd engine.

   The chaos invariant, enforced here for every committed plan and for
   a seeded fleet of randomized plans: whatever faults fire, every
   ACCEPTED request yields exactly one response envelope, responses are
   emitted in request order, the engine drains and shuts down cleanly,
   and a killed worker domain is replaced (the worker count is
   invariant).  On top of the invariant, deterministic per-site tests
   pin the semantics of each fault: pre-start crashes retry invisibly,
   mid-execution crashes answer -32006 and quarantine the document,
   handler raises answer -32603 and quarantine, sink failures are
   counted and absorbed, overload sheds -32007 oldest-parse-first,
   queued deadlines cancel accept-relative, and shutdown drains under a
   hard deadline without losing a response. *)

module Json = Metrics.Json
module Engine = Server.Engine
module Pool = Server.Pool
module Session = Iglr.Session

let obj fields = Json.to_line (Json.Obj fields)

(* Fault plans are process-global: every test that installs one must
   clear it, even on assertion failure. *)
let with_plan plan f =
  (match Fault.plan_of_string plan with
  | Ok p -> Fault.install p
  | Error e -> Alcotest.failf "bad test plan %S: %s" plan e);
  Fun.protect ~finally:Fault.clear f

let with_engine ?max_doc_queue ?max_inflight ~jobs f =
  let m = Mutex.create () in
  let buf = ref [] in
  let emit l =
    Mutex.lock m;
    buf := l :: !buf;
    Mutex.unlock m
  in
  let engine = Engine.create ~jobs ?max_doc_queue ?max_inflight ~emit () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown engine)
    (fun () ->
      f engine (fun () ->
          Engine.drain engine;
          List.rev !buf))

let send = Engine.handle_line

let open_line ?id ~doc ~lang ~text () =
  obj
    [
      ("id", Json.String (Option.value id ~default:doc));
      ("method", Json.String "open");
      ( "params",
        Json.Obj
          [
            ("doc", Json.String doc);
            ("lang", Json.String lang);
            ("text", Json.String text);
          ] );
    ]

let edit_line ?id ~doc ~pos ~del ~insert () =
  obj
    [
      ("id", Json.String (Option.value id ~default:doc));
      ("method", Json.String "edit");
      ( "params",
        Json.Obj
          [
            ("doc", Json.String doc);
            ( "edits",
              Json.List
                [
                  Json.Obj
                    [
                      ("pos", Json.Int pos);
                      ("del", Json.Int del);
                      ("insert", Json.String insert);
                    ];
                ] );
          ] );
    ]

let parse_line ?id ?deadline_ms ~doc () =
  obj
    [
      ("id", Json.String (Option.value id ~default:doc));
      ("method", Json.String "parse");
      ( "params",
        Json.Obj
          ([ ("doc", Json.String doc) ]
          @
          match deadline_ms with
          | Some d -> [ ("budget", Json.Obj [ ("deadline_ms", Json.Float d) ]) ]
          | None -> []) );
    ]

let close_line ~doc =
  obj
    [
      ("id", Json.String doc);
      ("method", Json.String "close");
      ("params", Json.Obj [ ("doc", Json.String doc) ]);
    ]

let member name j = Json.member name j
let int_of j = Option.get (Json.to_int j)
let str_of j = Option.get (Json.to_str j)

let error_code j =
  Option.bind (member "error" j) (fun e ->
      Option.map int_of (member "code" e))

let req_of j = int_of (Option.get (member "req" j))

let health_int engine field =
  match Option.bind (member field (Engine.health engine)) Json.to_int with
  | Some n -> n
  | None -> Alcotest.failf "health field %S missing or non-int" field

(* The chaos invariant over one collected transcript. *)
let check_invariant ~what engine responses =
  Alcotest.(check int)
    (what ^ ": one response per accepted request")
    (Engine.requests engine)
    (List.length responses);
  List.iteri
    (fun i r ->
      let j =
        try Json.of_string r
        with _ -> Alcotest.failf "%s: response %d not JSON: %s" what i r
      in
      (match (member "result" j, member "error" j) with
      | Some _, None | None, Some _ -> ()
      | _ -> Alcotest.failf "%s: response %d not an envelope: %s" what i r);
      (* Dense, increasing req = in-order emission AND no lost slot. *)
      Alcotest.(check int)
        (Printf.sprintf "%s: response %d in request order" what i)
        i (req_of j))
    responses

(* ------------------------------------------------------------------ *)
(* Deterministic per-site semantics.                                   *)

(* kill.pre: the worker dies after dequeueing but before the job runs.
   The job is retried invisibly — the client sees a plain success. *)
let kill_pre_retries () =
  with_engine ~jobs:1 @@ fun engine collect ->
  send engine (open_line ~doc:"a" ~lang:"calc" ~text:"x = 1 + 2;\n" ());
  with_plan "kill.pre@1" (fun () ->
      send engine (parse_line ~doc:"a" ());
      let responses = collect () in
      check_invariant ~what:"kill.pre" engine responses;
      List.iter
        (fun r ->
          match error_code (Json.of_string r) with
          | None -> ()
          | Some c -> Alcotest.failf "kill.pre leaked error %d to a client" c)
        responses);
  Alcotest.(check int) "retried once" 1 (health_int engine "retried");
  Alcotest.(check int) "one supervised restart" 1
    (health_int engine "supervised_restarts");
  Alcotest.(check int) "worker count invariant" 1 (Engine.jobs engine)

(* kill.mid: the worker dies while the job executes.  Retrying would
   repeat side effects, so the client gets -32006, the document is
   quarantined and heals (from committed text) on the next touch, and a
   replacement domain serves that next touch. *)
let kill_mid_crashes_and_heals () =
  with_engine ~jobs:1 @@ fun engine collect ->
  send engine (open_line ~doc:"a" ~lang:"calc" ~text:"x = 1 + 2;\n" ());
  (* The plan must stay installed until the worker has actually run the
     job: drain inside the plan scope. *)
  with_plan "kill.mid@1" (fun () ->
      send engine (parse_line ~doc:"a" ());
      Engine.drain engine);
  Alcotest.(check (list string))
    "doc quarantined after the crash" [ "a" ]
    (Pool.poisoned (Engine.pool engine));
  (* Only a replacement domain can serve this parse. *)
  send engine (parse_line ~doc:"a" ());
  let responses = collect () in
  check_invariant ~what:"kill.mid" engine responses;
  (match List.map Json.of_string responses with
  | [ _open; crashed; healed ] ->
      Alcotest.(check (option int))
        "crashed parse answers -32006" (Some Server.Protocol.e_worker)
        (error_code crashed);
      Alcotest.(check (option int))
        "post-crash parse succeeds" None (error_code healed)
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs));
  Alcotest.(check (list string))
    "healed on touch" []
    (Pool.poisoned (Engine.pool engine));
  Alcotest.(check int) "replacement spawned" 1
    (health_int engine "supervised_restarts");
  Alcotest.(check int) "worker count invariant" 1 (Engine.jobs engine)

(* worker.raise: an exception escapes the handler mid-mutation.  The
   client gets -32603; the session can no longer be trusted, so the
   document quarantines and rebuilds from its last committed text. *)
let worker_raise_quarantines () =
  with_engine ~jobs:0 @@ fun engine collect ->
  send engine (open_line ~doc:"a" ~lang:"calc" ~text:"x = 1;\n" ());
  send engine (edit_line ~doc:"a" ~pos:4 ~del:1 ~insert:"7" ());
  with_plan "worker.raise@1" (fun () -> send engine (parse_line ~doc:"a" ()));
  Alcotest.(check (list string))
    "quarantined" [ "a" ]
    (Pool.poisoned (Engine.pool engine));
  (* Heal-on-touch rebuilds from the committed text, which includes the
     cleanly-applied edit. *)
  send engine (parse_line ~doc:"a" ());
  let responses = collect () in
  check_invariant ~what:"worker.raise" engine responses;
  (match List.map Json.of_string responses with
  | [ _open; _edit; raised; healed ] ->
      Alcotest.(check (option int))
        "raise answers -32603" (Some (-32603)) (error_code raised);
      Alcotest.(check (option int)) "heal parse ok" None (error_code healed)
  | rs -> Alcotest.failf "expected 4 responses, got %d" (List.length rs));
  (match Pool.find (Engine.pool engine) "a" with
  | Some e ->
      Alcotest.(check string)
        "rebuilt from committed text (edit survives)" "x = 7;\n"
        (Session.text e.Pool.session)
  | None -> Alcotest.fail "doc a missing");
  Alcotest.(check (list string)) "healed" [] (Pool.poisoned (Engine.pool engine))

(* sink.fail: the response sink throws.  The line is dropped and
   counted; the writer keeps emitting later responses instead of
   wedging behind a locked mutex. *)
let sink_fail_absorbed () =
  with_engine ~jobs:0 @@ fun engine collect ->
  send engine (open_line ~doc:"a" ~lang:"calc" ~text:"x = 1;\n" ());
  with_plan "sink.fail@2" (fun () ->
      send engine (parse_line ~doc:"a" ());
      send engine (parse_line ~doc:"a" ()));
  send engine (parse_line ~doc:"a" ());
  let responses = collect () in
  Alcotest.(check int)
    "exactly the faulted line is missing"
    (Engine.requests engine - 1)
    (List.length responses);
  Alcotest.(check int) "sink error counted" 1 (health_int engine "sink_errors");
  (* The line AFTER the failed one still came out: req 0,1,3. *)
  Alcotest.(check (list int))
    "ordering progress continues" [ 0; 1; 3 ]
    (List.map (fun r -> req_of (Json.of_string r)) responses)

(* ------------------------------------------------------------------ *)
(* Deadline cancellation is accept-relative.                           *)

let slow_text = Workload.Spec_gen.plain ~lines:400 ~seed:11

(* One worker, pinned for 30ms by a stall fault, while a tiny parse
   with a 1ms deadline waits in the queue.  Under the old
   parse-start-relative deadline the tiny parse would finish clean;
   accept-relative, its deadline expired while queued, so its first
   budget check cancels it through the degradation ladder and it
   answers degraded:true.  (The stall is needed because the scheduler
   round-robins keys one job per dispatch: without it the tiny parse
   jumps ahead of the heavy document's backlog and never queues.) *)
let deadline_counts_queueing () =
  with_engine ~jobs:1 @@ fun engine collect ->
  send engine (open_line ~doc:"slow" ~lang:"c" ~text:"int x;\n" ());
  send engine (open_line ~doc:"tiny" ~lang:"c" ~text:(Workload.Spec_gen.plain ~lines:30 ~seed:3) ());
  Engine.drain engine;
  with_plan "stall=30;stall@1" (fun () ->
      send engine (edit_line ~doc:"slow" ~pos:0 ~del:7 ~insert:slow_text ());
      send engine (parse_line ~doc:"slow" ());
      send engine (parse_line ~deadline_ms:1. ~doc:"tiny" ());
      Engine.drain engine);
  let responses = collect () in
  check_invariant ~what:"deadline" engine responses;
  let tiny_parse =
    List.filter
      (fun r ->
        let j = Json.of_string r in
        match Option.bind (member "result" j) (member "doc") with
        | Some d -> str_of d = "tiny" && member "outcome" (Option.get (member "result" j)) <> None
        | None -> false)
      responses
    |> List.rev |> List.hd
  in
  let outcome =
    Option.get
      (Option.bind (member "result" (Json.of_string tiny_parse))
         (member "outcome"))
  in
  (match member "degraded" outcome with
  | Some (Json.Bool true) -> ()
  | j ->
      Alcotest.failf "queued parse was not cancelled: degraded=%s in %s"
        (match j with Some j -> Json.to_line j | None -> "<absent>")
        tiny_parse);
  (* The deadline expired after the last request line: the parse's own
     cancel hook is what counts it. *)
  Alcotest.(check int) "cancelled counted once" 1 (health_int engine "cancelled")

(* ------------------------------------------------------------------ *)
(* Overload shedding.                                                  *)

(* A 300ms stall pins the single worker on the first dispatched job
   while the dispatcher floods one document past its queue cap. *)
let per_doc_cap_sheds () =
  with_plan "stall=300;stall@1" @@ fun () ->
  with_engine ~jobs:1 ~max_doc_queue:3 @@ fun engine collect ->
  send engine (open_line ~doc:"a" ~lang:"calc" ~text:"x = 1;\n" ());
  for i = 1 to 4 do
    send engine (parse_line ~id:(Printf.sprintf "p%d" i) ~doc:"a" ())
  done;
  let responses = collect () in
  check_invariant ~what:"per-doc cap" engine responses;
  let sheds =
    List.filter
      (fun r -> error_code (Json.of_string r) = Some Server.Protocol.e_overloaded)
      responses
  in
  (* open + 2 parses fill the cap of 3; parses 3 and 4 shed. *)
  Alcotest.(check int) "two requests shed" 2 (List.length sheds);
  Alcotest.(check int) "shed counter" 2 (health_int engine "shed")

(* Global backpressure sheds the OLDEST queued parse, not the incoming
   request: the -32007 envelope must carry the first parse's id. *)
let global_cap_sheds_oldest () =
  with_plan "stall=300;stall@1" @@ fun () ->
  with_engine ~jobs:1 ~max_inflight:3 @@ fun engine collect ->
  send engine (open_line ~doc:"a" ~lang:"calc" ~text:"x = 1;\n" ());
  send engine (parse_line ~id:"first" ~doc:"a" ());
  send engine (parse_line ~id:"second" ~doc:"a" ());
  send engine (parse_line ~id:"third" ~doc:"a" ());
  let responses = collect () in
  check_invariant ~what:"global cap" engine responses;
  let shed_ids =
    List.filter_map
      (fun r ->
        let j = Json.of_string r in
        if error_code j = Some Server.Protocol.e_overloaded then
          Option.map str_of (member "id" j)
        else None)
      responses
  in
  Alcotest.(check (list string)) "oldest parse shed first" [ "first" ] shed_ids

(* ------------------------------------------------------------------ *)
(* Shutdown paths.                                                     *)

let begin_shutdown_closes_admission () =
  with_engine ~jobs:0 @@ fun engine collect ->
  send engine (open_line ~doc:"a" ~lang:"calc" ~text:"x = 1;\n" ());
  Engine.begin_shutdown engine;
  Alcotest.(check bool) "stopping" true (Engine.stopping engine);
  send engine (parse_line ~doc:"a" ());
  let responses = collect () in
  check_invariant ~what:"-32008" engine responses;
  match List.map Json.of_string responses with
  | [ _open; refused ] ->
      Alcotest.(check (option int))
        "post-shutdown request answers -32008"
        (Some Server.Protocol.e_shutting_down)
        (error_code refused);
      Alcotest.(check (option string))
        "client id still echoed" (Some "a")
        (Option.map str_of (member "id" refused))
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs)

(* Shutdown with queued jobs: everything queued still answers; shutting
   down twice is a no-op; afterwards no worker domains remain. *)
let shutdown_drains_queued () =
  let m = Mutex.create () in
  let buf = ref [] in
  let emit l =
    Mutex.lock m;
    buf := l :: !buf;
    Mutex.unlock m
  in
  let engine = Engine.create ~jobs:2 ~emit () in
  send engine (open_line ~doc:"a" ~lang:"calc" ~text:"x = 1;\n" ());
  send engine (open_line ~doc:"b" ~lang:"calc" ~text:"y = 2;\n" ());
  for _ = 1 to 5 do
    send engine (parse_line ~doc:"a" ());
    send engine (parse_line ~doc:"b" ())
  done;
  Engine.shutdown engine;
  let responses = List.rev !buf in
  check_invariant ~what:"shutdown with queue" engine responses;
  Alcotest.(check int) "no workers left" 0 (Engine.jobs engine);
  (* Idempotent: a second shutdown (and a drain) must return, not hang
     or raise. *)
  Engine.shutdown engine;
  Engine.drain engine;
  Alcotest.(check int)
    "no responses lost or duplicated" 12 (List.length responses)

(* Drain under a hard deadline: a heavy unbudgeted parse is in flight;
   the watchdog fires its cancel flag so the drain completes and the
   parse still answers — degraded — instead of being dropped. *)
let drain_under_deadline () =
  with_engine ~jobs:1 @@ fun engine collect ->
  send engine (open_line ~doc:"a" ~lang:"c" ~text:"int x;\n" ());
  Engine.drain engine;
  send engine (edit_line ~doc:"a" ~pos:0 ~del:7 ~insert:slow_text ());
  send engine (parse_line ~doc:"a" ());
  Engine.drain ~deadline_ms:5. engine;
  let responses = collect () in
  check_invariant ~what:"drain deadline" engine responses;
  let last = Json.of_string (List.nth responses 2) in
  let outcome = Option.bind (member "result" last) (member "outcome") in
  let cancelled =
    match Option.bind outcome (member "degraded") with
    | Some (Json.Bool true) -> 1
    | _ ->
        (* The parse may legitimately finish under the deadline on a fast
           machine; accept a clean result but never a missing one. *)
        Alcotest.(check (option int))
          "in-flight parse still answered" None (error_code last);
        0
  in
  Alcotest.(check int)
    "cancelled counts the degraded parse, and only it" cancelled
    (health_int engine "cancelled")

(* A quarantine rebuild keeps the document's own budget: the session
   healed after a worker.raise still parses under the budget it was
   opened with, and a request's one-off budget does not leak into it. *)
let heal_keeps_budget () =
  with_engine ~jobs:0 @@ fun engine collect ->
  send engine
    (obj
       [
         ("id", Json.String "a");
         ("method", Json.String "open");
         ( "params",
           Json.Obj
             [
               ("doc", Json.String "a");
               ("lang", Json.String "calc");
               ("text", Json.String "x = 1;\n");
               ("budget", Json.Obj [ ("max_nodes", Json.Int 3) ]);
             ] );
       ]);
  with_plan "worker.raise@1" (fun () ->
      send engine (parse_line ~deadline_ms:5000. ~doc:"a" ()));
  send engine (parse_line ~doc:"a" ());
  check_invariant ~what:"heal budget" engine (collect ());
  Alcotest.(check (list string)) "healed" [] (Pool.poisoned (Engine.pool engine));
  match Pool.find (Engine.pool engine) "a" with
  | Some e ->
      let b = Session.budget e.Pool.session in
      Alcotest.(check int) "max_nodes survives the rebuild" 3
        b.Iglr.Glr.max_nodes;
      Alcotest.(check bool) "request deadline did not leak" true
        (b.Iglr.Glr.deadline_ms = infinity)
  | None -> Alcotest.fail "doc a missing"

(* ------------------------------------------------------------------ *)
(* Randomized chaos fuzz: >= 100 seeded plans over a multi-domain
   engine.  sink.fail is excluded (it deliberately drops lines, tested
   separately above); everything else fires with seed-derived
   probabilities.                                                      *)

let fuzz_cases = 100

let fuzz_plan seed =
  (* Probabilities in [0, 0.15), derived from the seed — deterministic
     and distinct per case. *)
  let r = ref (seed * 2654435761) in
  let pct () =
    r := ((!r * 1103515245) + 12345) land 0x3FFFFFFF;
    !r mod 15
  in
  Printf.sprintf
    "seed=%d;stall=1;skew=3;kill.pre%%0.%02d;kill.mid%%0.%02d;worker.raise%%0.%02d;stall%%0.%02d;clock.skew%%0.%02d"
    seed (pct ()) (pct ()) (pct ()) (pct ()) (pct ())

let fuzz_conversation engine =
  let docs = [ "d0"; "d1"; "d2" ] in
  List.iteri
    (fun i doc ->
      send engine
        (open_line ~doc ~lang:"calc"
           ~text:(Printf.sprintf "a%d = %d + 2;\n" i i) ()))
    docs;
  for round = 0 to 2 do
    List.iteri
      (fun i doc ->
        send engine
          (edit_line ~doc ~pos:5 ~del:1
             ~insert:(string_of_int ((round + i) mod 10))
             ());
        send engine (parse_line ~doc ()))
      docs
  done;
  send engine (close_line ~doc:"d2");
  send engine
    (obj
       [
         ("id", Json.String "t");
         ("method", Json.String "telemetry");
         ("params", Json.Obj [ ("view", Json.String "health") ]);
       ])

let chaos_fuzz () =
  for case = 1 to fuzz_cases do
    let plan = fuzz_plan case in
    with_plan plan (fun () ->
        with_engine ~jobs:2 (fun engine collect ->
            (* The scheduler clamps to the host's domain budget, so the
               invariant is against the count it actually started with. *)
            let complement = Engine.jobs engine in
            fuzz_conversation engine;
            let responses = collect () in
            check_invariant ~what:(Printf.sprintf "plan %S" plan) engine
              responses;
            (* Killed domains were replaced within the run: the engine
               still reports its full complement. *)
            Alcotest.(check int)
              (Printf.sprintf "plan %S: worker count invariant" plan)
              complement (Engine.jobs engine)))
  done

(* The committed chaos plan (the one @daemon-smoke replays through the
   daemon binary) must uphold the same invariant at the engine level. *)
let committed_plan = "seed=42;stall=2;kill.pre@2;kill.mid@4;worker.raise@6"

let committed_plan_invariant () =
  with_plan committed_plan (fun () ->
      with_engine ~jobs:2 (fun engine collect ->
          let complement = Engine.jobs engine in
          fuzz_conversation engine;
          check_invariant ~what:"committed plan" engine (collect ());
          Alcotest.(check int) "worker count invariant" complement
            (Engine.jobs engine)))

let suite =
  [
    Alcotest.test_case "kill.pre: invisible front-of-queue retry" `Quick
      kill_pre_retries;
    Alcotest.test_case "kill.mid: -32006, quarantine, heal, replacement"
      `Quick kill_mid_crashes_and_heals;
    Alcotest.test_case "worker.raise: -32603 + rebuild from committed text"
      `Quick worker_raise_quarantines;
    Alcotest.test_case "sink.fail: counted, absorbed, ordering continues"
      `Quick sink_fail_absorbed;
    Alcotest.test_case "deadline cancellation counts queueing time" `Quick
      deadline_counts_queueing;
    Alcotest.test_case "per-doc queue cap sheds -32007" `Quick per_doc_cap_sheds;
    Alcotest.test_case "global cap sheds oldest parse first" `Quick
      global_cap_sheds_oldest;
    Alcotest.test_case "begin_shutdown answers -32008" `Quick
      begin_shutdown_closes_admission;
    Alcotest.test_case "shutdown drains queued jobs, idempotent, no leaks"
      `Quick shutdown_drains_queued;
    Alcotest.test_case "drain under hard deadline cancels, never drops"
      `Quick drain_under_deadline;
    Alcotest.test_case "committed chaos plan upholds the invariant" `Quick
      committed_plan_invariant;
    Alcotest.test_case
      (Printf.sprintf "%d randomized seeded plans uphold the invariant"
         fuzz_cases)
      `Quick chaos_fuzz;
    Alcotest.test_case "heal keeps the document's budget" `Quick
      heal_keeps_budget;
  ]
