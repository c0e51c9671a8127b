(* Domain-level stress for the iglrd engine.

   The engine promises two orderings: requests for one document execute
   in submission order, and independent documents may execute on
   different worker domains at once.  The stress test drives N documents
   through interleaved random edit scripts on a multi-domain engine and
   demands each final dag be sexp-identical to a single-threaded Session
   replaying the same script — any cross-document interference (shared
   table corruption, torn node ids, misrouted jobs) shows up as a
   divergent tree.

   The starvation test floods one document with garbage tokens under a
   tight per-request deadline: the pathological document must degrade by
   itself (structured recovered/degraded outcomes) while its siblings
   keep parsing cleanly — per-request budgets are per-session state, so
   a budget on one document must never throttle another. *)

module Json = Metrics.Json
module Engine = Server.Engine
module Session = Iglr.Session
module Glr = Iglr.Glr
module Language = Languages.Language
module Edit_gen = Workload.Edit_gen

let obj fields = Json.to_line (Json.Obj fields)

(* Collected responses under a mutex: [emit] runs on worker domains. *)
let with_engine ~jobs f =
  let m = Mutex.create () in
  let buf = ref [] in
  let emit l =
    Mutex.lock m;
    buf := l :: !buf;
    Mutex.unlock m
  in
  let engine = Engine.create ~jobs ~emit () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown engine)
    (fun () ->
      f engine (fun () ->
          Engine.drain engine;
          List.rev !buf))

let send engine line = Engine.handle_line engine line

let open_line ~doc ~lang ~text =
  obj
    [
      ("id", Json.String doc);
      ("method", Json.String "open");
      ( "params",
        Json.Obj
          [
            ("doc", Json.String doc);
            ("lang", Json.String lang);
            ("text", Json.String text);
          ] );
    ]

let edit_line ~doc (e : Edit_gen.edit) =
  obj
    [
      ("id", Json.String doc);
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
                      ("pos", Json.Int e.Edit_gen.e_pos);
                      ("del", Json.Int e.Edit_gen.e_del);
                      ("insert", Json.String e.Edit_gen.e_insert);
                    ];
                ] );
          ] );
    ]

let parse_line ?budget ?(timing = false) ~doc () =
  obj
    [
      ("id", Json.String doc);
      ("method", Json.String "parse");
      ( "params",
        Json.Obj
          ([ ("doc", Json.String doc) ]
          @ (match budget with Some b -> [ ("budget", Json.Obj b) ] | None -> [])
          @ if timing then [ ("timing", Json.Bool true) ] else []) );
    ]

let session_of engine doc =
  match Server.Pool.find (Engine.pool engine) doc with
  | Some e -> e.Server.Pool.session
  | None -> Alcotest.failf "doc %s missing from the pool" doc

let sexp lang root = Parsedag.Pp.to_sexp lang.Language.grammar root

(* ------------------------------------------------------------------ *)
(* N documents x interleaved random scripts, multi-domain engine vs
   single-threaded oracle.                                             *)

let docs =
  (* Mixed languages so the shared-table path is exercised across
     domains, not just across documents. *)
  List.init 8 (fun i ->
      let name = Printf.sprintf "doc%d" i in
      if i mod 2 = 0 then
        ( name,
          "calc",
          Languages.Calc.language,
          String.concat "\n"
            (List.init 10 (fun k ->
                 Printf.sprintf "v%d = (%d + 2) * x%d / 3;" k (10 + k) k)) )
      else (name, "c", Languages.C_subset.language, Workload.Spec_gen.plain ~lines:20 ~seed:(100 + i)))

let stress () =
  with_engine ~jobs:4 @@ fun engine collect ->
  List.iter
    (fun (doc, lang, _, base) -> send engine (open_line ~doc ~lang ~text:base))
    docs;
  (* Interleave the scripts round-robin: at every step each document
     gets one edit and a reparse, so up to 8 reparses are in flight
     across the worker domains at once. *)
  let scripts =
    List.mapi
      (fun i (doc, _, _, base) ->
        (doc, Edit_gen.random_script ~seed:(7 * i + 1) ~count:6 base))
      docs
  in
  for step = 0 to 5 do
    List.iter
      (fun (doc, script) ->
        send engine (edit_line ~doc (List.nth script step));
        send engine (parse_line ~doc ()))
      scripts
  done;
  let responses = collect () in
  (* Zero dropped responses: one per request, all envelopes. *)
  Alcotest.(check int)
    "one response per request"
    (Engine.requests engine)
    (List.length responses);
  List.iter
    (fun r ->
      let j = Json.of_string r in
      match (Json.member "result" j, Json.member "error" j) with
      | Some _, None -> ()
      | None, Some e ->
          Alcotest.failf "stress request failed: %s" (Json.to_line e)
      | _ -> Alcotest.failf "response is not an envelope: %s" r)
    responses;
  (* Each concurrent session's final dag equals a single-threaded
     Session replaying the same script. *)
  List.iter
    (fun (doc, lang_name, lang, base) ->
      let script = List.assoc doc scripts in
      let oracle, outcome0 =
        Session.create ~table:(Language.table lang)
          ~lexer:(Language.lexer lang) base
      in
      (match outcome0 with
      | Session.Parsed _ -> ()
      | Session.Recovered _ ->
          Alcotest.failf "oracle base for %s rejected" doc);
      List.iter
        (fun (e : Edit_gen.edit) ->
          Session.edit oracle ~pos:e.Edit_gen.e_pos ~del:e.Edit_gen.e_del
            ~insert:e.Edit_gen.e_insert;
          ignore (Session.reparse oracle))
        script;
      let concurrent = session_of engine doc in
      Alcotest.(check string)
        (Printf.sprintf "%s (%s) text = oracle" doc lang_name)
        (Session.text oracle) (Session.text concurrent);
      Alcotest.(check string)
        (Printf.sprintf "%s (%s) dag = oracle" doc lang_name)
        (sexp lang (Session.root oracle))
        (sexp lang (Session.root concurrent)))
    docs

(* ------------------------------------------------------------------ *)
(* Budget starvation: one pathological document under a tight deadline
   degrades alone; its siblings stay clean and fast.                   *)

let starvation () =
  with_engine ~jobs:4 @@ fun engine collect ->
  let sibling i = Printf.sprintf "sib%d" i in
  for i = 0 to 6 do
    send engine
      (open_line ~doc:(sibling i) ~lang:"calc"
         ~text:
           (String.concat "\n"
              (List.init 20 (fun k -> Printf.sprintf "s%d = %d + %d;" k i k))))
  done;
  send engine (open_line ~doc:"victim" ~lang:"calc" ~text:"1;");
  (* Garbage-token flood: thousands of tokens that can never reduce, so
     every isolation attempt has work to drown in. *)
  let garbage = String.concat " " (List.init 2000 (fun _ -> ") (")) in
  send engine
    (edit_line ~doc:"victim"
       { Edit_gen.e_pos = 0; e_del = 0; e_insert = garbage });
  send engine
    (parse_line ~doc:"victim"
       ~budget:[ ("deadline_ms", Json.Float 5.) ]
       ());
  for i = 0 to 6 do
    let doc = sibling i in
    (* First line is "s0 = <i> + 0;": replace the RHS digit at byte 5. *)
    send engine
      (edit_line ~doc { Edit_gen.e_pos = 5; e_del = 1; e_insert = "9" });
    send engine (parse_line ~doc ~timing:true ())
  done;
  let responses = collect () in
  let victim_status = ref "" and sibling_parses = ref 0 in
  List.iter
    (fun r ->
      let j = Json.of_string r in
      match Json.member "result" j with
      | None -> Alcotest.failf "starvation request failed: %s" r
      | Some res -> (
          match Json.member "outcome" res with
          | None -> ()
          | Some outcome ->
              let doc =
                Option.get (Option.bind (Json.member "doc" res) Json.to_str)
              in
              let status =
                Option.get
                  (Option.bind (Json.member "status" outcome) Json.to_str)
              in
              (* Last victim outcome wins: the open's clean parse comes
                 first, the budgeted flood parse after it. *)
              if doc = "victim" then victim_status := status
              else if doc <> "victim" && Json.member "ms" res <> None then begin
                incr sibling_parses;
                Alcotest.(check string)
                  (doc ^ " stays clean") "parsed" status;
                let ms =
                  Option.get
                    (Option.bind (Json.member "ms" res) Json.to_float)
                in
                (* Generous bound: a sibling reparse is a one-token edit
                   on a small document; seconds would mean the victim's
                   flood leaked into a sibling's budget or worker. *)
                if ms > 2000. then
                  Alcotest.failf "%s reparse took %.1fms under starvation"
                    doc ms
              end))
    responses;
  Alcotest.(check string) "victim degraded alone" "recovered" !victim_status;
  Alcotest.(check int) "all siblings reparsed" 7 !sibling_parses

(* Deterministic budget degradation: a whole-document rewrite under a
   tiny max_nodes budget must exhaust during the main parse and surface
   degraded=true, and the per-request budget must not stick to the
   session — the follow-up unbudgeted parse runs clean. *)
let budget_degrades_deterministically () =
  with_engine ~jobs:0 @@ fun engine collect ->
  send engine (open_line ~doc:"d" ~lang:"c" ~text:"int f () { int i; }\n");
  send engine
    (edit_line ~doc:"d"
       {
         Edit_gen.e_pos = 0;
         e_del = String.length "int f () { int i; }\n";
         e_insert = Workload.Spec_gen.plain ~lines:40 ~seed:5;
       });
  send engine
    (parse_line ~doc:"d" ~budget:[ ("max_nodes", Json.Int 8) ] ());
  send engine (parse_line ~doc:"d" ());
  match List.map Json.of_string (collect ()) with
  | [ _open; _edit; budgeted; unbudgeted ] ->
      let outcome j =
        Option.get
          (Option.bind (Json.member "result" j) (Json.member "outcome"))
      in
      let b = outcome budgeted in
      Alcotest.(check string)
        "budgeted parse recovered" "recovered"
        (Option.get (Option.bind (Json.member "status" b) Json.to_str));
      (match Json.member "degraded" b with
      | Some (Json.Bool true) -> ()
      | j ->
          Alcotest.failf "expected degraded=true, got %s"
            (match j with Some j -> Json.to_line j | None -> "<absent>"));
      let u = outcome unbudgeted in
      Alcotest.(check string)
        "budget does not stick to the session" "parsed"
        (Option.get (Option.bind (Json.member "status" u) Json.to_str))
  | rs -> Alcotest.failf "expected 4 responses, got %d" (List.length rs)

(* Session ownership: re-entrant use raises Busy instead of corrupting
   single-owner state — the contract the scheduler's per-document
   ordering is certified against. *)
let session_busy () =
  let lang = Languages.Calc.language in
  let s, _ =
    Session.create ~table:(Language.table lang) ~lexer:(Language.lexer lang)
      "1;"
  in
  Session.on_commit s (fun ~watermark:_ _ -> ignore (Session.reparse s));
  Session.edit s ~pos:0 ~del:1 ~insert:"2";
  match Session.reparse s with
  | exception Session.Busy -> ()
  | _ -> Alcotest.fail "re-entrant reparse did not raise Busy"

(* The scheduler forgets a document once its queue is idle and empty:
   after a thousand one-job keys have come and gone (as [open-project]
   opens a fresh document per file), it holds what it holds after ten:
   the key table shrinks back to its initial size once the last key is
   forgotten. *)
let scheduler_forgets_keys () =
  let words keys =
    let t = Server.Scheduler.create ~jobs:1 in
    for k = 1 to keys do
      Server.Scheduler.submit t ~key:(Printf.sprintf "f%d" k) ignore
    done;
    Server.Scheduler.drain t;
    Alcotest.(check (list (pair string int))) "no pending keys" []
      (Server.Scheduler.depths t);
    let w = Obj.reachable_words (Obj.repr t) in
    Server.Scheduler.shutdown t;
    w
  in
  let few = words 10 and many = words 1000 in
  if many > few + 64 then
    Alcotest.failf "scheduler holds %d words after 1000 keys, %d after 10"
      many few

let suite =
  [
    Alcotest.test_case "8 docs x interleaved edits = oracle replay" `Quick
      stress;
    Alcotest.test_case "budget starvation degrades the victim alone" `Quick
      starvation;
    Alcotest.test_case "max_nodes budget degrades deterministically" `Quick
      budget_degrades_deterministically;
    Alcotest.test_case "re-entrant session use raises Busy" `Quick
      session_busy;
    Alcotest.test_case "scheduler forgets idle documents" `Quick
      scheduler_forgets_keys;
  ]
