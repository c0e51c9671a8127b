(* Unit tests for the metrics registry and its JSON layer. *)

module Json = Metrics.Json

(* Registration is process-global and happens once; keep every handle at
   module level like real instrumentation does. *)
let c1 = Metrics.counter "test.c1"
let c2 = Metrics.counter "test.c2"
let p1 = Metrics.peak "test.p1"
let h1 = Metrics.histogram "test.h1" ~bounds:[| 1.0; 10.0 |]

let duplicate_registration () =
  match Metrics.counter "test.c1" with
  | _ -> Alcotest.fail "duplicate metric name accepted"
  | exception Invalid_argument _ -> ()

(* Regression: [register] used to probe for duplicates before taking
   the registry lock, so two domains racing on one name could both
   succeed and the registry would keep whichever handle lost the
   Hashtbl.replace race.  Race N domains at a single name: exactly one
   must win, the rest must see [Invalid_argument]. *)
let registration_race () =
  let n = 8 in
  let gate = Atomic.make 0 in
  let outcomes =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr gate;
            while Atomic.get gate < n do
              Domain.cpu_relax ()
            done;
            match Metrics.counter "test.registration_race" with
            | _ -> true
            | exception Invalid_argument _ -> false))
    |> List.map Domain.join
  in
  Alcotest.(check int)
    "exactly one registration wins" 1
    (List.length (List.filter Fun.id outcomes))

let counters_and_diff () =
  let before = Metrics.snapshot () in
  Metrics.incr c1;
  Metrics.add c1 4;
  Metrics.incr c2;
  let d = Metrics.diff (Metrics.snapshot ()) before in
  Alcotest.(check int) "c1 delta" 5 (Metrics.count d "test.c1");
  Alcotest.(check int) "c2 delta" 1 (Metrics.count d "test.c2");
  Alcotest.(check int) "absent metric reads 0" 0 (Metrics.count d "test.nope")

let share () =
  let before = Metrics.snapshot () in
  Metrics.add c1 3;
  Metrics.add c2 1;
  let d = Metrics.diff (Metrics.snapshot ()) before in
  Alcotest.(check (float 1e-9)) "share" 75.0
    (Metrics.share d "test.c1" "test.c2");
  Alcotest.(check (float 1e-9)) "share of nothing" 0.0
    (Metrics.share d "test.nope" "test.nada")

let peaks_and_gauge_diff () =
  Metrics.record_peak p1 7;
  let before = Metrics.snapshot () in
  Metrics.record_peak p1 3 (* below the watermark: no effect *);
  let d = Metrics.diff (Metrics.snapshot ()) before in
  (* Gauges keep the later whole-process value rather than subtracting. *)
  Alcotest.(check int) "gauge survives diff" 7 (Metrics.count d "test.p1");
  Metrics.record_peak p1 11;
  let d = Metrics.diff (Metrics.snapshot ()) before in
  Alcotest.(check int) "gauge raised" 11 (Metrics.count d "test.p1")

(* [local_count] reads one counter of the calling domain's shard: it
   sees this domain's increments, not another domain's. *)
let local_count () =
  let before = Metrics.local_count "test.c1" in
  Metrics.add c1 3;
  Alcotest.(check int) "own increments" (before + 3)
    (Metrics.local_count "test.c1");
  Domain.join (Domain.spawn (fun () -> Metrics.add c1 5));
  Alcotest.(check int) "another domain's increments stay in its shard"
    (before + 3)
    (Metrics.local_count "test.c1");
  Alcotest.(check int) "agrees with local_snapshot"
    (Metrics.count (Metrics.local_snapshot ()) "test.c1")
    (Metrics.local_count "test.c1");
  Alcotest.(check int) "unknown name reads 0" 0 (Metrics.local_count "test.nope")

let disabled_is_noop () =
  Metrics.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled true)
    (fun () ->
      let before = Metrics.snapshot () in
      Metrics.incr c1;
      Metrics.observe h1 5.0;
      let d = Metrics.diff (Metrics.snapshot ()) before in
      Alcotest.(check int) "counter frozen" 0 (Metrics.count d "test.c1"))

let histogram_buckets () =
  let before = Metrics.snapshot () in
  List.iter (Metrics.observe h1) [ 0.5; 5.0; 50.0; 0.2 ];
  let d = Metrics.diff (Metrics.snapshot ()) before in
  match List.assoc_opt "test.h1" d with
  | Some (Metrics.Hist { counts; _ }) ->
      Alcotest.(check (array int)) "bucket counts" [| 2; 1; 1 |] counts
  | _ -> Alcotest.fail "histogram missing from snapshot"

let json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a \"quoted\"\n\tstring \xe2\x9c\x93");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("whole", Json.Float 3.0);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ]
  in
  let back = Json.of_string (Json.to_string doc) in
  if back <> doc then Alcotest.fail "JSON did not round-trip";
  (match Json.of_string "{\"x\": [1, 2.5, \"\\u0041\"]}" with
  | Json.Obj [ ("x", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "A" ]) ]
    -> ()
  | _ -> Alcotest.fail "hand-written JSON parsed wrong");
  match Json.of_string "{broken" with
  | _ -> Alcotest.fail "malformed JSON accepted"
  | exception Json.Parse _ -> ()

(* [\u] escapes decode to UTF-8, a surrogate pair to one code point; a
   surrogate without its partner is malformed. *)
let json_unicode_escapes () =
  let decode lit =
    match Json.of_string ("\"" ^ lit ^ "\"") with
    | Json.String s -> s
    | _ -> Alcotest.failf "%s: not a string" lit
  in
  Alcotest.(check string) "U+00E9" "caf\xc3\xa9" (decode "caf\\u00e9");
  Alcotest.(check string) "U+20AC" "\xe2\x82\xac" (decode "\\u20AC");
  Alcotest.(check string) "U+1F600 as a surrogate pair" "<\xf0\x9f\x98\x80>"
    (decode "<\\ud83d\\ude00>");
  List.iter
    (fun lit ->
      match Json.of_string ("\"" ^ lit ^ "\"") with
      | _ -> Alcotest.failf "lone surrogate %s accepted" lit
      | exception Json.Parse _ -> ())
    [ "\\ud83d"; "\\ud83dx"; "\\ude00"; "\\ud83d\\u0041" ]

(* The writer's escapes and integers, byte for byte. *)
let json_emit_bytes () =
  Alcotest.(check string) "compact line"
    "[\"a\\\"\\\\\\n\\r\\t\\u0001\\u001f\xc3\xa9\",-4611686018427387904,0,-7,42]"
    (Json.to_line
       (Json.List
          [
            Json.String "a\"\\\n\r\t\x01\x1f\xc3\xa9";
            Json.Int min_int;
            Json.Int 0;
            Json.Int (-7);
            Json.Int 42;
          ]))

(* Decoding reads bytes in place: a number or literal costs its own value
   and the list cells holding it (8 words for an [Int] element: its box,
   the accumulator's cons and [List.rev]'s), nothing per byte read. *)
let json_scalars_allocate_their_values () =
  let k = 500 in
  let text =
    Printf.sprintf "{\"ints\": [%s], \"lits\": [%s]}"
      (String.concat ", "
         (List.init k (fun i -> string_of_int ((i * 7919) - 1_000_000))))
      (String.concat ", "
         (List.init k (fun i -> [| "true"; "false"; "null" |].(i mod 3))))
  in
  ignore (Json.of_string text);
  let before = Gc.minor_words () in
  let v = Json.of_string text in
  let words = Gc.minor_words () -. before in
  (match v with
  | Json.Obj [ ("ints", Json.List ints); ("lits", Json.List lits) ] ->
      Alcotest.(check int) "ints" k (List.length ints);
      Alcotest.(check int) "lits" k (List.length lits);
      Alcotest.(check bool) "last int" true
        (List.nth ints (k - 1) = Json.Int (((k - 1) * 7919) - 1_000_000))
  | _ -> Alcotest.fail "number-heavy object decoded wrong");
  if words > float_of_int ((8 * k) + (6 * k) + 200) then
    Alcotest.failf "decoding %d scalars took %.0f minor words" (2 * k) words

let snapshot_to_json () =
  let before = Metrics.snapshot () in
  Metrics.incr c1;
  let d = Metrics.diff (Metrics.snapshot ()) before in
  let j = Metrics.to_json d in
  match Option.bind (Json.member "test.c1" j) Json.to_int with
  | Some 1 -> ()
  | _ -> Alcotest.fail "to_json lost the counter"

let suite =
  [
    Alcotest.test_case "duplicate registration rejected" `Quick
      duplicate_registration;
    Alcotest.test_case "registration race has one winner" `Quick
      registration_race;
    Alcotest.test_case "counters and diff" `Quick counters_and_diff;
    Alcotest.test_case "share" `Quick share;
    Alcotest.test_case "peaks survive diff" `Quick peaks_and_gauge_diff;
    Alcotest.test_case "local count" `Quick local_count;
    Alcotest.test_case "disabled is a no-op" `Quick disabled_is_noop;
    Alcotest.test_case "histogram buckets" `Quick histogram_buckets;
    Alcotest.test_case "json round-trip" `Quick json_roundtrip;
    Alcotest.test_case "json \\u escapes decode to UTF-8" `Quick
      json_unicode_escapes;
    Alcotest.test_case "json writer bytes" `Quick json_emit_bytes;
    Alcotest.test_case "json scalars allocate their values" `Quick
      json_scalars_allocate_their_values;
    Alcotest.test_case "snapshot to_json" `Quick snapshot_to_json;
  ]
