(* Domain-safety of the sharded telemetry substrate: N domains
   hammering one set of metric handles and one trace sink must lose
   nothing — the merged snapshot is the arithmetic sum of the per-domain
   activity, per-domain local diffs add up to the merged diff, the trace
   rings drop nothing below capacity and the merged stream stays
   well-formed. *)

let c = Metrics.counter "tel.counter"
let p = Metrics.peak "tel.peak"
let h = Metrics.histogram "tel.hist" ~bounds:[| 1.0; 10.0 |]

let domains = 4

(* Start [domains] workers simultaneously (a gate, so slot assignment is
   genuinely concurrent) and wait for all results. *)
let run_domains f =
  let gate = Atomic.make 0 in
  List.init domains (fun i ->
      Domain.spawn (fun () ->
          Atomic.incr gate;
          while Atomic.get gate < domains do
            Domain.cpu_relax ()
          done;
          f i))
  |> List.map Domain.join

let merged_equals_sum () =
  let iters = 10_000 in
  let before = Metrics.snapshot () in
  ignore
    (run_domains (fun i ->
         for k = 1 to iters do
           Metrics.incr c;
           Metrics.add c 1;
           Metrics.record_peak p ((i * iters) + k);
           Metrics.observe h (float_of_int (k mod 15))
         done));
  let d = Metrics.diff (Metrics.snapshot ()) before in
  Alcotest.(check int)
    "counter sums across domains"
    (2 * domains * iters)
    (Metrics.count d "tel.counter");
  Alcotest.(check int)
    "peak takes the maximum" (domains * iters)
    (Metrics.count d "tel.peak");
  match List.assoc_opt "tel.hist" d with
  | Some (Metrics.Hist { counts; _ }) ->
      Alcotest.(check int)
        "histogram observations sum across domains" (domains * iters)
        (Array.fold_left ( + ) 0 counts)
  | _ -> Alcotest.fail "histogram missing from merged snapshot"

let local_diffs_sum_to_merged () =
  let before = Metrics.snapshot () in
  let locals =
    run_domains (fun i ->
        let b = Metrics.local_snapshot () in
        for _ = 1 to (i + 1) * 1000 do
          Metrics.incr c
        done;
        Metrics.diff (Metrics.local_snapshot ()) b)
  in
  let d = Metrics.diff (Metrics.snapshot ()) before in
  let total =
    List.fold_left (fun acc l -> acc + Metrics.count l "tel.counter") 0 locals
  in
  (* Each domain observed exactly its own activity... *)
  List.iteri
    (fun i l ->
      Alcotest.(check int)
        (Printf.sprintf "domain %d local diff is exact" i)
        ((i + 1) * 1000)
        (Metrics.count l "tel.counter"))
    locals;
  (* ...and nothing was double-counted or lost in the merge. *)
  Alcotest.(check int) "local diffs sum to the merged diff" total
    (Metrics.count d "tel.counter")

let trace_stress () =
  let spans = 200 in
  Trace.set_capacity 4096;
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ())
  @@ fun () ->
  Trace.clear ();
  ignore
    (run_domains (fun i ->
         Trace.with_request (string_of_int i) (fun () ->
             for k = 1 to spans do
               Trace.span Trace.Session "tel.span" (fun () ->
                   Trace.instant Trace.Glr "tel.tick" [ ("k", Trace.Int k) ])
             done)));
  Alcotest.(check int) "no events dropped below capacity" 0 (Trace.dropped ());
  let evs = Trace.events () in
  Alcotest.(check int)
    "every emission retained"
    (domains * spans * 3)
    (List.length evs);
  (match Trace.Check.well_formed evs with
  | [] -> ()
  | faults ->
      Alcotest.fail
        ("merged stream ill-formed: " ^ String.concat "; " faults));
  let dids =
    List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.Trace.did) evs)
  in
  Alcotest.(check int) "one lane per domain" domains (List.length dids);
  (* Every event carries its request's correlation id, and the ids
     partition the stream by recording domain. *)
  List.iter
    (fun (e : Trace.event) ->
      match Trace.str_arg "rid" e with
      | Some _ -> ()
      | None -> Alcotest.fail "event without rid inside with_request")
    evs;
  let rids =
    List.sort_uniq compare
      (List.filter_map (fun e -> Trace.str_arg "rid" e) evs)
  in
  Alcotest.(check int) "one rid per worker" domains (List.length rids)

let openmetrics_roundtrip () =
  Metrics.incr c;
  Metrics.observe h 5.0;
  let text = Metrics.Openmetrics.render (Metrics.snapshot ()) in
  match Metrics.Openmetrics.parse text with
  | Error m -> Alcotest.fail ("self-render rejected: " ^ m)
  | Ok samples ->
      (match Metrics.Openmetrics.sample_value samples "iglr_tel_counter_total" with
      | Some v when v >= 1.0 -> ()
      | _ -> Alcotest.fail "counter sample missing from exposition");
      match Metrics.Openmetrics.sample_value samples "iglr_tel_hist_count" with
      | Some v when v >= 1.0 -> ()
      | _ -> Alcotest.fail "histogram count missing from exposition"

let openmetrics_rejects_garbage () =
  (match Metrics.Openmetrics.parse "iglr_x_total 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing # EOF accepted");
  (match Metrics.Openmetrics.parse "# TYPE iglr_x counter\niglr_x_total nan?\n# EOF\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric value accepted");
  match Metrics.Openmetrics.parse "# TYPE iglr_x counter\niglr_y_total 1\n# EOF\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "sample outside its declared family accepted"

(* The flight recorder's [reuse_pct] is the share of shifts that took a
   whole subtree: after a one-token edit to a multi-statement document
   most statements are shifted as unchanged subtrees, so it is positive. *)
let flight_reuse_after_token_edit () =
  let module Json = Metrics.Json in
  let module Engine = Server.Engine in
  let line method_ params =
    Json.to_line
      (Json.Obj
         [
           ("id", Json.String method_);
           ("method", Json.String method_);
           ("params", Json.Obj (("doc", Json.String "f.calc") :: params));
         ])
  in
  let text =
    String.concat "\n"
      (List.init 8 (fun i -> Printf.sprintf "v%d = (1%d + 2) * x;" i i))
  in
  let engine = Engine.create ~jobs:0 ~emit:ignore () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  List.iter (Engine.handle_line engine)
    [
      line "open" [ ("lang", Json.String "calc"); ("text", Json.String text) ];
      line "edit"
        [
          ( "edits",
            Json.List
              [
                Json.Obj
                  [
                    ("pos", Json.Int (String.index text '2'));
                    ("del", Json.Int 1);
                    ("insert", Json.String "7");
                  ];
              ] );
        ];
      line "parse" [];
    ];
  Engine.drain engine;
  let recent =
    Option.bind (Json.member "recent" (Engine.flight engine)) Json.to_list
  in
  match recent with
  | Some (_ :: _ as entries) ->
      let last = List.nth entries (List.length entries - 1) in
      let pct =
        Option.get (Option.bind (Json.member "reuse_pct" last) Json.to_float)
      in
      if not (pct > 0.) then
        Alcotest.failf "flight reuse_pct %.2f after a one-token edit" pct
  | _ -> Alcotest.fail "no flight entry for the parse"

(* The flight recorder is capped: after more parses than its capacity,
   [recent] holds the newest [capacity] of them and [slowest] the
   slowest [capacity], sorted by latency, while [recorded] still counts
   every parse. *)
let flight_capped_and_sorted () =
  let module Json = Metrics.Json in
  let module Engine = Server.Engine in
  let line method_ params =
    Json.to_line
      (Json.Obj
         [
           ("id", Json.String method_);
           ("method", Json.String method_);
           ("params", Json.Obj (("doc", Json.String "f.calc") :: params));
         ])
  in
  let engine = Engine.create ~jobs:0 ~emit:ignore () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  Engine.handle_line engine
    (line "open"
       [ ("lang", Json.String "calc"); ("text", Json.String "x = 1 + 2;") ]);
  for _ = 1 to 40 do
    Engine.handle_line engine (line "parse" [])
  done;
  Engine.drain engine;
  let flight = Engine.flight engine in
  let int name = Option.bind (Json.member name flight) Json.to_int in
  let entries name =
    Option.value ~default:[]
      (Option.bind (Json.member name flight) Json.to_list)
  in
  Alcotest.(check (option int)) "capacity" (Some 32) (int "capacity");
  Alcotest.(check (option int)) "recorded" (Some 40) (int "recorded");
  Alcotest.(check int) "recent capped" 32 (List.length (entries "recent"));
  let slowest =
    List.map
      (fun e -> Option.get (Option.bind (Json.member "ms" e) Json.to_float))
      (entries "slowest")
  in
  Alcotest.(check int) "slowest capped" 32 (List.length slowest);
  Alcotest.(check (list (float 0.)))
    "slowest sorted by ms, descending"
    (List.sort (fun a b -> compare b a) slowest)
    slowest

(* A flight entry is the parse request's own metric delta: two identical
   documents get the same edits, one parsed under [metrics:true] and one
   without, and both entries must equal the reported delta — after a
   token edit and after an edit that breaks one statement (an isolating
   [Recovered] parse). *)
let flight_equals_request_delta () =
  let module Json = Metrics.Json in
  let module Engine = Server.Engine in
  let responses = ref [] in
  let engine =
    Engine.create ~jobs:0 ~emit:(fun l -> responses := l :: !responses) ()
  in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  let send doc method_ params =
    Engine.handle_line engine
      (Json.to_line
         (Json.Obj
            [
              ("id", Json.String method_);
              ("method", Json.String method_);
              ("params", Json.Obj (("doc", Json.String doc) :: params));
            ]));
    match Json.member "result" (Json.of_string (List.hd !responses)) with
    | Some r -> r
    | None -> Alcotest.failf "%s %s failed: %s" method_ doc (List.hd !responses)
  in
  let text =
    String.concat "\n"
      (List.init 8 (fun i -> Printf.sprintf "v%d = (1%d + 2) * x;" i i))
  in
  let docs = [ "m.calc"; "p.calc" ] in
  List.iter
    (fun d ->
      ignore
        (send d "open"
           [ ("lang", Json.String "calc"); ("text", Json.String text) ]))
    docs;
  let count j name =
    Option.value ~default:0 (Option.bind (Json.member name j) Json.to_int)
  in
  let step ~status ~pos ~del ~insert =
    List.iter
      (fun d ->
        ignore
          (send d "edit"
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
             ]))
      docs;
    let measured = send "m.calc" "parse" [ ("metrics", Json.Bool true) ] in
    let plain = send "p.calc" "parse" [] in
    List.iter
      (fun r ->
        let o = Option.get (Json.member "outcome" r) in
        Alcotest.(check (option string))
          "outcome" (Some status)
          (Option.bind (Json.member "status" o) Json.to_str);
        if status = "recovered" then
          Alcotest.(check int) "one region isolated" 1 (count o "isolated"))
      [ measured; plain ];
    let d = Option.get (Json.member "metrics" measured) in
    let subtrees = count d "glr.shifted_subtrees"
    and terminals = count d "glr.shifted_terminals" in
    let share =
      if subtrees + terminals = 0 then 0.
      else 100. *. float_of_int subtrees /. float_of_int (subtrees + terminals)
    in
    let rejects =
      [
        ("state-mismatch", count d "glr.lookahead_state_miss");
        ("no-state", count d "glr.lookahead_nostate");
        ("breakdown", count d "glr.breakdowns");
      ]
    in
    let recent =
      Option.get
        (Option.bind (Json.member "recent" (Engine.flight engine)) Json.to_list)
    in
    let last_two =
      List.filteri (fun i _ -> i >= List.length recent - 2) recent
    in
    List.iter2
      (fun doc e ->
        Alcotest.(check (option string))
          "entry doc" (Some doc)
          (Option.bind (Json.member "doc" e) Json.to_str);
        Alcotest.(check (float 1e-9))
          (doc ^ " reuse_pct = delta share") share
          (Option.get (Option.bind (Json.member "reuse_pct" e) Json.to_float));
        let r = Option.get (Json.member "rejects" e) in
        List.iter
          (fun (k, n) ->
            Alcotest.(check int) (doc ^ " rejects " ^ k) n (count r k))
          rejects)
      docs last_two
  in
  step ~status:"parsed" ~pos:(String.index text '2') ~del:1 ~insert:"7";
  let broken = String.index text '*' in
  step ~status:"recovered" ~pos:broken ~del:1 ~insert:"* )"

let suite =
  [
    Alcotest.test_case "merged snapshot equals per-domain sums" `Quick
      merged_equals_sum;
    Alcotest.test_case "local diffs are exact and sum to merged" `Quick
      local_diffs_sum_to_merged;
    Alcotest.test_case "trace rings under domain stress" `Quick trace_stress;
    Alcotest.test_case "openmetrics round-trip" `Quick openmetrics_roundtrip;
    Alcotest.test_case "openmetrics rejects garbage" `Quick
      openmetrics_rejects_garbage;
    Alcotest.test_case "flight reuse_pct after a token edit" `Quick
      flight_reuse_after_token_edit;
    Alcotest.test_case "flight recorder caps and sorts" `Quick
      flight_capped_and_sorted;
    Alcotest.test_case "flight entry equals the request delta" `Quick
      flight_equals_request_delta;
  ]
