(* Protocol conformance for the iglrd engine: every RPC method answered
   with a well-formed iglr-analysis/1 envelope, and every failure mode —
   malformed JSON, non-object requests, unknown methods, unknown and
   duplicate document ids, unknown languages, ill-typed params, oversized
   payloads, out-of-range edits — answered with a structured error
   envelope carrying the right code.  The engine must never raise from
   [handle_line] and never drop a response: each assertion here also
   implicitly checks that request k got answer k (inline mode emits
   strictly in order). *)

module Json = Metrics.Json
module Engine = Server.Engine
module Protocol = Server.Protocol

(* Inline single-threaded engine: responses are emitted synchronously
   during [handle_line], so [req] returns THE response to its line. *)
let with_engine ?max_payload f =
  let buf = ref [] in
  let engine =
    Engine.create ~jobs:0 ?max_payload ~emit:(fun l -> buf := l :: !buf) ()
  in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown engine)
    (fun () ->
      let req line =
        let before = List.length !buf in
        Engine.handle_line engine line;
        match !buf with
        | r :: _ when List.length !buf = before + 1 -> Json.of_string r
        | _ -> Alcotest.failf "no (single) response to %s" line
      in
      f engine req)

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Json.to_line j)

let str name j =
  match Json.to_str (member name j) with
  | Some s -> s
  | None -> Alcotest.failf "%S is not a string" name

let int name j =
  match Json.to_int (member name j) with
  | Some i -> i
  | None -> Alcotest.failf "%S is not an integer" name

let check_envelope j =
  Alcotest.(check string) "schema" "iglr-analysis/1" (str "schema" j);
  Alcotest.(check string) "tool" "iglrd" (str "tool" j)

let result j =
  check_envelope j;
  (match Json.member "error" j with
  | Some e -> Alcotest.failf "unexpected error response: %s" (Json.to_line e)
  | None -> ());
  member "result" j

let error ~code j =
  check_envelope j;
  (match Json.member "result" j with
  | Some _ -> Alcotest.failf "expected an error, got: %s" (Json.to_line j)
  | None -> ());
  let e = member "error" j in
  Alcotest.(check int) "error code" code (int "code" e);
  (* The message must be present and human-readable. *)
  Alcotest.(check bool) "has message" true (String.length (str "message" e) > 0)

let obj fields = Json.to_line (Json.Obj fields)

let open_req ?(doc = "d") ?(lang = "calc") ?(text = "1+2;") ?(id = 1) () =
  obj
    [
      ("id", Json.Int id);
      ("method", Json.String "open");
      ( "params",
        Json.Obj
          [
            ("doc", Json.String doc);
            ("lang", Json.String lang);
            ("text", Json.String text);
          ] );
    ]

(* ------------------------------------------------------------------ *)

let happy_path () =
  with_engine @@ fun _ req ->
  let r = result (req (open_req ~text:"1+2;\n3*4;\n" ())) in
  Alcotest.(check string) "open doc" "d" (str "doc" r);
  Alcotest.(check string) "open lang" "calc" (str "lang" r);
  Alcotest.(check string)
    "open status" "parsed"
    (str "status" (member "outcome" r));
  let r =
    result
      (req
         (obj
            [
              ("id", Json.Int 2);
              ("method", Json.String "edit");
              ( "params",
                Json.Obj
                  [
                    ("doc", Json.String "d");
                    ( "edits",
                      Json.List
                        [
                          Json.Obj
                            [
                              ("pos", Json.Int 0);
                              ("del", Json.Int 1);
                              ("insert", Json.String "7");
                            ];
                        ] );
                  ] );
            ]))
  in
  Alcotest.(check int) "edits applied" 1 (int "applied" r);
  let r =
    result
      (req
         (obj
            [
              ("id", Json.Int 3);
              ("method", Json.String "parse");
              ("params", Json.Obj [ ("doc", Json.String "d") ]);
            ]))
  in
  let outcome = member "outcome" r in
  Alcotest.(check string) "parse status" "parsed" (str "status" outcome);
  Alcotest.(check bool)
    "incremental reuse" true
    (int "shifted_subtrees" outcome > 0);
  let r =
    result
      (req
         (obj
            [
              ("id", Json.Int 4);
              ("method", Json.String "errors");
              ("params", Json.Obj [ ("doc", Json.String "d") ]);
            ]))
  in
  (match member "regions" r with
  | Json.List [] -> ()
  | j -> Alcotest.failf "expected no damaged regions, got %s" (Json.to_line j));
  let r =
    result
      (req
         (obj
            [
              ("id", Json.Int 5);
              ("method", Json.String "stats");
              ("params", Json.Obj [ ("doc", Json.String "d") ]);
            ]))
  in
  Alcotest.(check string) "stats lang" "calc" (str "lang" r);
  Alcotest.(check int) "stats tokens" 8 (int "tokens" r);
  let r =
    result
      (req
         (obj
            [
              ("id", Json.Int 6);
              ("method", Json.String "close");
              ("params", Json.Obj [ ("doc", Json.String "d") ]);
            ]))
  in
  match member "closed" r with
  | Json.Bool true -> ()
  | j -> Alcotest.failf "close returned %s" (Json.to_line j)

(* A diag request measures its metric delta only under [metrics:true];
   the delta is this request's own query activity. *)
let diag_metrics_on_request () =
  with_engine @@ fun _ req ->
  ignore (result (req (open_req ~text:"a = 1;\nb = a + 2;\n" ())));
  let diag id params =
    result
      (req
         (obj
            [
              ("id", Json.Int id);
              ("method", Json.String "diag");
              ("params", Json.Obj (("doc", Json.String "d") :: params));
            ]))
  in
  let computes r = int "computes" (member "query" r) in
  let plain = diag 2 [] in
  Alcotest.(check bool) "no metrics unless asked" true
    (Json.member "metrics" plain = None);
  ignore
    (result
       (req
          (obj
             [
               ("id", Json.Int 3);
               ("method", Json.String "edit");
               ( "params",
                 Json.Obj
                   [
                     ("doc", Json.String "d");
                     ( "edits",
                       Json.List
                         [
                           Json.Obj
                             [
                               ("pos", Json.Int 0);
                               ("del", Json.Int 1);
                               ("insert", Json.String "c");
                             ];
                         ] );
                   ] );
             ])));
  ignore
    (result
       (req
          (obj
             [
               ("id", Json.Int 4);
               ("method", Json.String "parse");
               ("params", Json.Obj [ ("doc", Json.String "d") ]);
             ])));
  let measured = diag 5 [ ("metrics", Json.Bool true) ] in
  let recomputed =
    Option.value ~default:0
      (Option.bind
         (Json.member "query.recomputed" (member "metrics" measured))
         Json.to_int)
  in
  Alcotest.(check bool) "the edit recomputes cells" true (recomputed > 0);
  Alcotest.(check int) "delta = this request's recomputes"
    (computes measured - computes plain)
    recomputed

let server_stats () =
  with_engine @@ fun engine req ->
  ignore (result (req (open_req ~doc:"a" ())));
  ignore (result (req (open_req ~doc:"b" ~id:2 ())));
  let r =
    result
      (req
         (obj
            [
              ("id", Json.Int 3);
              ("method", Json.String "stats");
              ("params", Json.Obj []);
            ]))
  in
  (match member "docs" r with
  | Json.List [ Json.String "a"; Json.String "b" ] -> ()
  | j -> Alcotest.failf "docs = %s" (Json.to_line j));
  Alcotest.(check int) "requests counted" 3 (int "requests" r);
  Alcotest.(check int) "requests accessor" 3 (Engine.requests engine);
  (* metrics: true must attach the registry snapshot. *)
  let r =
    result
      (req
         (obj
            [
              ("id", Json.Int 4);
              ("method", Json.String "stats");
              ("params", Json.Obj [ ("metrics", Json.Bool true) ]);
            ]))
  in
  ignore (member "metrics" r);
  (* The registry is process-wide, so there is no per-document share of
     it to report: a document's stats with metrics:true is invalid
     params, pointing at the per-request metrics of parse and diag. *)
  let j =
    req
      (obj
         [
           ("id", Json.Int 5);
           ("method", Json.String "stats");
           ( "params",
             Json.Obj [ ("doc", Json.String "a"); ("metrics", Json.Bool true) ]
           );
         ])
  in
  error ~code:Protocol.e_params j;
  let msg = str "message" (member "error" j) in
  Alcotest.(check bool) "names parse/diag metrics:true" true
    (Str.string_match (Str.regexp ".*parse or diag with metrics:true") msg 0)

(* Malformed inputs: each one must yield a structured error envelope with
   the matching code — never an exception, never silence. *)

let malformed_json () =
  with_engine @@ fun _ req ->
  let j = req "{this is not json" in
  error ~code:Protocol.e_parse j;
  match member "id" j with
  | Json.Null -> ()
  | j -> Alcotest.failf "parse-error id should be null, got %s" (Json.to_line j)

(* A [\u] escape in the text reaches the document as UTF-8 bytes, so the
   client's byte offsets match; a lone surrogate is malformed JSON. *)
let unicode_text () =
  let line = {|{"id":1,"method":"open","params":{"doc":"d","lang":"c","text":"a = 1; // caf\u00e9\n"}}|} in
  (match Protocol.decode line with
  | Ok (_, Protocol.Open { text; _ }) ->
      Alcotest.(check string) "text bytes" "a = 1; // caf\xc3\xa9\n" text
  | Ok _ -> Alcotest.fail "decoded to another request"
  | Error (_, e) -> Alcotest.failf "refused: %s" e.Protocol.message);
  with_engine @@ fun _ req ->
  error ~code:Protocol.e_parse
    (req {|{"id":1,"method":"open","params":{"doc":"d","lang":"c","text":"\ud800"}}|})

let non_object () =
  with_engine @@ fun _ req ->
  error ~code:Protocol.e_invalid_request (req "[1,2,3]");
  error ~code:Protocol.e_invalid_request (req "\"hello\"");
  error ~code:Protocol.e_invalid_request (req "42")

let missing_method () =
  with_engine @@ fun _ req ->
  let j = req (obj [ ("id", Json.Int 9); ("params", Json.Obj []) ]) in
  error ~code:Protocol.e_invalid_request j;
  (* The id still echoes so the client can correlate. *)
  Alcotest.(check int) "id echoed" 9 (int "id" j)

let unknown_method () =
  with_engine @@ fun _ req ->
  error ~code:Protocol.e_method
    (req (obj [ ("id", Json.Int 1); ("method", Json.String "frobnicate") ]))

let bad_params () =
  with_engine @@ fun _ req ->
  (* params not an object *)
  error ~code:Protocol.e_params
    (req
       (obj
          [
            ("id", Json.Int 1);
            ("method", Json.String "open");
            ("params", Json.List []);
          ]));
  (* missing required string param *)
  error ~code:Protocol.e_params
    (req
       (obj
          [
            ("id", Json.Int 2);
            ("method", Json.String "open");
            ( "params",
              Json.Obj [ ("doc", Json.String "d"); ("lang", Json.String "calc") ]
            );
          ]));
  (* edits not a list *)
  error ~code:Protocol.e_params
    (req
       (obj
          [
            ("id", Json.Int 3);
            ("method", Json.String "edit");
            ( "params",
              Json.Obj
                [ ("doc", Json.String "d"); ("edits", Json.String "nope") ] );
          ]));
  (* ill-typed budget field *)
  error ~code:Protocol.e_params
    (req
       (obj
          [
            ("id", Json.Int 4);
            ("method", Json.String "parse");
            ( "params",
              Json.Obj
                [
                  ("doc", Json.String "d");
                  ( "budget",
                    Json.Obj [ ("deadline_ms", Json.String "soon") ] );
                ] );
          ]))

let unknown_doc () =
  with_engine @@ fun _ req ->
  List.iter
    (fun (meth, extra) ->
      error ~code:Protocol.e_unknown_doc
        (req
           (obj
              [
                ("id", Json.Int 1);
                ("method", Json.String meth);
                ( "params",
                  Json.Obj (("doc", Json.String "ghost") :: extra) );
              ])))
    [
      ("edit", [ ("edits", Json.List []) ]);
      ("parse", []);
      ("errors", []);
      ("ambig", []);
      ("stats", []);
      ("close", []);
    ]

let duplicate_doc () =
  with_engine @@ fun _ req ->
  ignore (result (req (open_req ())));
  error ~code:Protocol.e_doc_exists (req (open_req ~id:2 ()));
  (* ... and the original session is untouched by the rejected open. *)
  let r =
    result
      (req
         (obj
            [
              ("id", Json.Int 3);
              ("method", Json.String "parse");
              ("params", Json.Obj [ ("doc", Json.String "d") ]);
            ]))
  in
  Alcotest.(check string)
    "original still parses" "parsed"
    (str "status" (member "outcome" r))

let unknown_lang () =
  with_engine @@ fun _ req ->
  error ~code:Protocol.e_unknown_lang (req (open_req ~lang:"cobol" ()))

let oversized_payload () =
  with_engine ~max_payload:256 @@ fun _ req ->
  let j = req (open_req ~text:(String.make 1024 'x') ()) in
  error ~code:Protocol.e_payload j;
  (match member "id" j with
  | Json.Null -> ()
  | j ->
      Alcotest.failf "oversized request must not be parsed for an id: %s"
        (Json.to_line j));
  (* A small request still goes through: the engine survived. *)
  ignore (result (req (open_req ~id:2 ())))

let edit_out_of_bounds () =
  with_engine @@ fun _ req ->
  ignore (result (req (open_req ~text:"1;" ())));
  error ~code:Protocol.e_params
    (req
       (obj
          [
            ("id", Json.Int 2);
            ("method", Json.String "edit");
            ( "params",
              Json.Obj
                [
                  ("doc", Json.String "d");
                  ( "edits",
                    Json.List
                      [
                        Json.Obj
                          [ ("pos", Json.Int 9999); ("insert", Json.String "x") ];
                      ] );
                ] );
          ]));
  (* The document is unchanged and the session still serves. *)
  let r =
    result
      (req
         (obj
            [
              ("id", Json.Int 3);
              ("method", Json.String "stats");
              ("params", Json.Obj [ ("doc", Json.String "d") ]);
            ]))
  in
  Alcotest.(check int) "tokens unchanged" 2 (int "tokens" r)

(* The shared-table guarantee, pinned via the metrics registry: the
   registry's lazies mean a language's LR table is built at most once per
   process, so a second [open] of an already-loaded language — same
   engine or a brand-new one — performs zero table constructions. *)
let zero_rebuilds () =
  with_engine @@ fun _ req ->
  ignore (result (req (open_req ~doc:"warm" ())));
  let builds () = Metrics.count (Metrics.snapshot ()) "lrtab.table_builds" in
  let before = builds () in
  ignore (result (req (open_req ~doc:"second" ~id:2 ())));
  Alcotest.(check int) "second open builds no table" before (builds ());
  with_engine @@ fun _ req2 ->
  ignore (result (req2 (open_req ~doc:"other-engine" ())));
  Alcotest.(check int) "fresh engine builds no table" before (builds ())

(* The ambig response is the language's static ambiguity report: it must
   be structurally identical to running Analyze.Ambig directly with the
   language's declared disambiguation spec. *)
let ambig_matches_analyzer () =
  with_engine @@ fun _ req ->
  ignore (result (req (open_req ())));
  let r =
    result
      (req
         (obj
            [
              ("id", Json.Int 2);
              ("method", Json.String "ambig");
              ( "params",
                Json.Obj [ ("doc", Json.String "d"); ("max_len", Json.Int 4) ]
              );
            ]))
  in
  let lang = Option.get (Languages.Registry.find "calc") in
  let expected =
    Analyze.Ambig.to_json ~language:"calc"
      (Analyze.Ambig.analyze (Analyze.Of_language.ambig ~max_len:4 lang))
  in
  Alcotest.(check string)
    "report = direct analyzer" (Json.to_line expected)
    (Json.to_line (member "report" r))

let blank_lines_ignored () =
  with_engine @@ fun engine req ->
  Engine.handle_line engine "";
  Engine.handle_line engine "   \t  ";
  ignore (result (req (open_req ())));
  (* Blank lines are not requests: only the open counted. *)
  Alcotest.(check int) "blank lines not counted" 1 (Engine.requests engine)

let doc_req ?(doc = "d") ~id method_ params =
  obj
    [
      ("id", Json.Int id);
      ("method", Json.String method_);
      ("params", Json.Obj (("doc", Json.String doc) :: params));
    ]

let edit_req ?doc ~id ~pos ~del insert =
  doc_req ?doc ~id "edit"
    [
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
    ]

(* A keystroke's parse request costs the parse, not the size of the
   metric registry: a one-digit edit to a two-statement document must
   parse and answer in a few thousand minor words. *)
let parse_allocation_bounded () =
  with_engine @@ fun engine req ->
  ignore (result (req (open_req ~text:"a = 1; b = a + 2;" ())));
  ignore (result (req (edit_req ~id:2 ~pos:4 ~del:1 "7")));
  let line = doc_req ~id:3 "parse" [] in
  let w0 = Gc.minor_words () in
  Engine.handle_line engine line;
  let words = Gc.minor_words () -. w0 in
  if words > 3000. then
    Alcotest.failf "a one-digit parse request allocated %.0f minor words" words

(* After an applied edit, [diag] and [errors] refuse until a [parse] has
   incorporated it: the answer would otherwise depend on which cells an
   earlier diag left cached.  Once parsed, the answer is what a fresh
   daemon gives on the same text. *)
let unparsed_edit_refused () =
  let diag_fields r =
    match r with
    | Json.Obj fields ->
        Json.Obj (List.filter (fun (k, _) -> k <> "query") fields)
    | j -> j
  in
  let fresh =
    with_engine @@ fun _ req ->
    ignore (result (req (open_req ~text:"c = 1; b = a + 2;" ())));
    diag_fields (result (req (doc_req ~id:2 "diag" [])))
  in
  with_engine @@ fun _ req ->
  ignore (result (req (open_req ~text:"a = 1; b = a + 2;" ())));
  ignore (result (req (doc_req ~id:2 "diag" [])));
  ignore (result (req (edit_req ~id:3 ~pos:0 ~del:1 "c")));
  error ~code:(-32010) (req (doc_req ~id:4 "diag" []));
  error ~code:(-32010) (req (doc_req ~id:5 "errors" []));
  ignore (result (req (doc_req ~id:6 "parse" [])));
  Alcotest.(check string)
    "diag after parse = a fresh daemon's" (Json.to_line fresh)
    (Json.to_line (diag_fields (result (req (doc_req ~id:7 "diag" [])))))

let suite =
  [
    Alcotest.test_case "happy path: open/edit/parse/errors/stats/close" `Quick
      happy_path;
    Alcotest.test_case "server-wide stats" `Quick server_stats;
    Alcotest.test_case "diag measures only under metrics:true" `Quick
      diag_metrics_on_request;
    Alcotest.test_case "malformed JSON -> -32700" `Quick malformed_json;
    Alcotest.test_case "\\u escapes decode to UTF-8 text" `Quick unicode_text;
    Alcotest.test_case "non-object request -> -32600" `Quick non_object;
    Alcotest.test_case "missing method -> -32600, id echoed" `Quick
      missing_method;
    Alcotest.test_case "unknown method -> -32601" `Quick unknown_method;
    Alcotest.test_case "ill-typed params -> -32602" `Quick bad_params;
    Alcotest.test_case "unknown doc -> -32001 on every method" `Quick
      unknown_doc;
    Alcotest.test_case "duplicate open -> -32002, session intact" `Quick
      duplicate_doc;
    Alcotest.test_case "unknown language -> -32003" `Quick unknown_lang;
    Alcotest.test_case "oversized payload -> -32005, engine survives" `Quick
      oversized_payload;
    Alcotest.test_case "out-of-range edit -> -32602, doc unchanged" `Quick
      edit_out_of_bounds;
    Alcotest.test_case "shared tables: second open builds nothing" `Quick
      zero_rebuilds;
    Alcotest.test_case "ambig = direct analyzer output" `Quick
      ambig_matches_analyzer;
    Alcotest.test_case "blank lines ignored" `Quick blank_lines_ignored;
    Alcotest.test_case "parse request allocation bounded" `Quick
      parse_allocation_bounded;
    Alcotest.test_case "diag/errors after an unparsed edit -> -32010" `Quick
      unparsed_edit_refused;
  ]
