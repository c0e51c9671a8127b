(* Request correlation through the daemon engine: a scripted multi-doc
   conversation on a multi-domain engine must carry the dispatcher's
   sequence number everywhere — a dense, in-order [req] field on every
   response, a [req] field on every access-log line, an [rid] argument
   on every trace event — and the per-request metric diffs a [parse
   metrics:true] returns must equal a single-threaded replay of the same
   document (the Session oracle), despite the other documents parsing
   concurrently on sibling domains. *)

module J = Metrics.Json
module E = Server.Engine

let lang = Option.get (Languages.Registry.find "calc")
let () = Languages.Registry.force lang

(* Collected engine output: [emit]/[log] are called under the writer
   lock from worker domains, so the sinks only push onto guarded
   lists. *)
type sink = { m : Mutex.t; mutable lines : string list }

let sink () = { m = Mutex.create (); lines = [] }

let push s line =
  Mutex.lock s.m;
  s.lines <- line :: s.lines;
  Mutex.unlock s.m

let contents s =
  Mutex.lock s.m;
  let l = List.rev s.lines in
  Mutex.unlock s.m;
  l

let docs = [ "a.calc"; "b.calc"; "c.calc"; "d.calc" ]
let initial_text = "1+2*3;\n"
let edit_insert round = Printf.sprintf "%d+" round
let rounds = 5

(* The scripted conversation: open every doc, then [rounds] of
   edit+parse per doc (parses requesting their metric diff), close. *)
let script () =
  let req = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string req (s ^ "\n")) fmt in
  let id = ref 0 in
  let next_id () = incr id; !id in
  List.iter
    (fun d ->
      line {|{"id": %d, "method": "open", "params": {"doc": "%s", "lang": "calc", "text": "1+2*3;\n"}}|}
        (next_id ()) d)
    docs;
  for r = 1 to rounds do
    List.iter
      (fun d ->
        line
          {|{"id": %d, "method": "edit", "params": {"doc": "%s", "edits": [{"pos": 0, "del": 0, "insert": "%s"}]}}|}
          (next_id ()) d (edit_insert r);
        line
          {|{"id": %d, "method": "parse", "params": {"doc": "%s", "metrics": true}}|}
          (next_id ()) d)
      docs
  done;
  List.iter
    (fun d ->
      line {|{"id": %d, "method": "close", "params": {"doc": "%s"}}|}
        (next_id ()) d)
    docs;
  String.split_on_char '\n' (Buffer.contents req)
  |> List.filter (fun l -> String.trim l <> "")

let run_engine () =
  let out = sink () and log = sink () in
  let engine =
    E.create ~jobs:4 ~log:(push log) ~emit:(push out) ()
  in
  Fun.protect ~finally:(fun () -> E.shutdown engine) @@ fun () ->
  List.iter (E.handle_line engine) (script ());
  E.drain engine;
  (contents out, contents log)

let member_int name j = Option.bind (J.member name j) J.to_int

let responses_carry_dense_req () =
  let out, log = run_engine () in
  let n = List.length (script ()) in
  Alcotest.(check int) "one response per request" n (List.length out);
  List.iteri
    (fun i l ->
      match member_int "req" (J.of_string l) with
      | Some r -> Alcotest.(check int) "response req in order" i r
      | None -> Alcotest.fail ("response without req: " ^ l))
    out;
  Alcotest.(check int) "one access-log line per request" n (List.length log);
  List.iteri
    (fun i l ->
      let j = J.of_string l in
      (match member_int "req" j with
      | Some r -> Alcotest.(check int) "log req in order" i r
      | None -> Alcotest.fail ("access-log line without req: " ^ l));
      match Option.bind (J.member "status" j) J.to_str with
      | Some "ok" -> ()
      | _ -> Alcotest.fail ("scripted request not ok: " ^ l))
    log

let events_carry_rid () =
  Trace.set_capacity 65536;
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ())
  @@ fun () ->
  Trace.clear ();
  let out, _ = run_engine () in
  Alcotest.(check int) "no trace drops" 0 (Trace.dropped ());
  let evs = Trace.events () in
  if evs = [] then Alcotest.fail "engine recorded no trace events";
  List.iter
    (fun (e : Trace.event) ->
      match Trace.str_arg "rid" e with
      | Some _ -> ()
      | None ->
          Alcotest.fail
            (Printf.sprintf "event %s.%s lacks a request id"
               (Trace.cat_name e.Trace.cat) e.Trace.name))
    evs;
  (* The rids seen in the stream are request sequence numbers the
     responses also carried. *)
  let resp_reqs =
    List.filter_map (fun l -> member_int "req" (J.of_string l)) out
    |> List.map string_of_int
  in
  List.iter
    (fun e ->
      match Trace.str_arg "rid" e with
      | Some rid when List.mem rid resp_reqs -> ()
      | Some rid -> Alcotest.fail ("rid not a known request: " ^ rid)
      | None -> ())
    evs

(* Counters compared against the oracle: deterministic parse work.
   Latency histograms are excluded (wall-clock). *)
let compared_keys =
  [
    "glr.nodes_created";
    "glr.reductions";
    "glr.breakdowns";
    "glr.shifted_subtrees";
    "glr.shifted_terminals";
    "vdoc.tokens_relexed";
    "vdoc.tokens_reused";
    "session.reparses";
  ]

let metric_diffs_match_oracle () =
  let out, _ = run_engine () in
  (* Collect the parse responses' metric payloads per doc, in order. *)
  let server_diffs = Hashtbl.create 8 in
  List.iter
    (fun l ->
      let j = J.of_string l in
      match Option.bind (J.member "result" j) (fun r -> J.member "metrics" r) with
      | Some m ->
          let doc =
            match
              Option.bind (J.member "result" j) (fun r ->
                  Option.bind (J.member "doc" r) J.to_str)
            with
            | Some d -> d
            | None -> Alcotest.fail "parse response without doc"
          in
          Hashtbl.replace server_diffs doc
            (m :: (Option.value (Hashtbl.find_opt server_diffs doc) ~default:[]))
      | None -> ())
    out;
  (* Single-threaded oracle: replay one doc's conversation on a bare
     session, measuring each reparse the same way the engine does. *)
  List.iter
    (fun doc ->
      let got = List.rev (Option.value (Hashtbl.find_opt server_diffs doc) ~default:[]) in
      Alcotest.(check int)
        (doc ^ ": one metric diff per parse")
        rounds (List.length got);
      let s, _ =
        Iglr.Session.create
          ~table:(Languages.Language.table lang)
          ~lexer:(Languages.Language.lexer lang)
          initial_text
      in
      List.iteri
        (fun i server_m ->
          let r = i + 1 in
          Iglr.Session.edit s ~pos:0 ~del:0 ~insert:(edit_insert r);
          let _, d = Iglr.Session.measure (fun () -> Iglr.Session.reparse s) in
          let oracle_m = Metrics.to_json d in
          List.iter
            (fun key ->
              let want = Option.value (member_int key oracle_m) ~default:0 in
              let got = Option.value (member_int key server_m) ~default:0 in
              Alcotest.(check int)
                (Printf.sprintf "%s round %d %s" doc r key)
                want got)
            compared_keys)
        got)
    docs

let suite =
  [
    Alcotest.test_case "responses and access log carry req in order" `Quick
      responses_carry_dense_req;
    Alcotest.test_case "every trace event carries its request id" `Quick
      events_carry_rid;
    Alcotest.test_case "per-request metric diffs match the oracle" `Quick
      metric_diffs_match_oracle;
  ]
