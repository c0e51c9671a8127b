(* Invariants of the structured trace stream (lib/trace) and a golden
   check of the dag visualization.

   - Every capture must satisfy [Trace.Check.well_formed]: timestamps
     monotone non-decreasing, begin/end spans balanced under strict
     stack discipline.
   - During a reparse, the [session.reparse] root span must enclose all
     engine events (glr/gss/reuse/commit), and the [session.edit] span
     must enclose the relex events — the Perfetto view is only readable
     if nesting reflects the actual call structure.
   - [Pp.to_dot] on the Appendix B typedef-ambiguity example must match
     a golden graph: per-call sequential node ids make the output a pure
     function of dag shape, so this is stable across runs. *)

module Session = Iglr.Session
module Language = Languages.Language

let capture f =
  Trace.set_enabled true;
  Trace.clear ();
  Fun.protect ~finally:(fun () -> Trace.set_enabled false) f

let make_session lang text =
  let s, outcome =
    Session.create ~table:(Language.table lang) ~lexer:(Language.lexer lang)
      text
  in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "fixture rejected");
  s

let assert_well_formed ctx =
  Alcotest.(check int) (ctx ^ ": no ring overflow") 0 (Trace.dropped ());
  match Trace.Check.well_formed (Trace.events ()) with
  | [] -> ()
  | faults ->
      Alcotest.failf "%s: malformed trace:\n %s" ctx
        (String.concat "\n " faults)

(* Full lifecycle — initial parse, an edit, a reparse — produces a
   balanced, monotone stream. *)
let test_stream_well_formed () =
  capture @@ fun () ->
  let lang = Languages.C_subset.language in
  let s = make_session lang "int f () { int x; x = 1; }" in
  assert_well_formed "initial parse";
  Session.edit s ~pos:22 ~del:1 ~insert:"2";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "edit broke the parse");
  assert_well_formed "edit + reparse"

(* Ambiguous input exercises fork/merge/pack emission; the stream must
   still be balanced. *)
let test_ambiguous_stream_well_formed () =
  capture @@ fun () ->
  let lang = Languages.Cpp_subset.language in
  let _ = make_session lang "int f () { a (b); }" in
  assert_well_formed "ambiguous parse"

let span_bounds name evs =
  let seq_of phase =
    List.find_map
      (fun (e : Trace.event) ->
        if e.Trace.cat = Trace.Session && e.Trace.name = name
           && e.Trace.phase = phase
        then Some e.Trace.seq
        else None)
      evs
  in
  match (seq_of Trace.Begin, seq_of Trace.End) with
  | Some b, Some e -> (b, e)
  | _ -> Alcotest.failf "session span %S missing begin or end" name

let test_root_span_encloses () =
  let lang = Languages.C_subset.language in
  let s =
    capture (fun () -> make_session lang "int f () { int x; x = 1; }")
  in
  let evs =
    capture @@ fun () ->
    Session.edit s ~pos:22 ~del:1 ~insert:"2";
    (match Session.reparse s with
    | Session.Parsed _ -> ()
    | Session.Recovered _ -> Alcotest.fail "edit broke the parse");
    Trace.events ()
  in
  let edit_b, edit_e = span_bounds "edit" evs
  and rep_b, rep_e = span_bounds "reparse" evs in
  Alcotest.(check bool) "edit span precedes reparse span" true
    (edit_e < rep_b);
  List.iter
    (fun (e : Trace.event) ->
      let inside lo hi what =
        if not (lo < e.Trace.seq && e.Trace.seq < hi) then
          Alcotest.failf "%a escapes the session %s span" Trace.pp_event e
            what
      in
      match e.Trace.cat with
      | Trace.Glr | Trace.Gss | Trace.Reuse | Trace.Commit ->
          inside rep_b rep_e "reparse"
      | Trace.Relex -> inside edit_b edit_e "edit"
      | Trace.Lex | Trace.Filter | Trace.Session | Trace.Query -> ())
    evs;
  Alcotest.(check bool) "engine events present" true
    (List.exists (fun (e : Trace.event) -> e.Trace.cat = Trace.Glr) evs)

let render evs = List.map (Format.asprintf "%a" Trace.pp_event) evs

(* The ring copies each event's arguments into preallocated slots: what
   comes back out is what went in, in order — past the inline slots too,
   and with the request id first.  After an overflow only the newest
   events remain, each with its own arguments. *)
let test_ring_round_trip () =
  let args k =
    [
      ("k", Trace.Int k);
      ("s", Trace.Str (string_of_int k));
      ("b", Trace.Bool (k mod 2 = 0));
    ]
  in
  let many =
    [
      ("a", Trace.Int 1);
      ("b", Trace.Str "two");
      ("c", Trace.Bool true);
      ("d", Trace.Int (-4));
      ("e", Trace.Str "");
      ("f", Trace.Int max_int);
    ]
  in
  let evs =
    capture @@ fun () ->
    Trace.instant Trace.Glr "none" [];
    Trace.instant Trace.Glr "many" many;
    Trace.with_request "r1" (fun () ->
        Trace.begin_span Trace.Session "req" (args 3);
        Trace.end_span Trace.Session "req" []);
    Trace.events ()
  in
  Alcotest.(check (list string))
    "arguments round-trip"
    [
      "i glr.none";
      Printf.sprintf "i glr.many a=1 b=\"two\" c=true d=-4 e=\"\" f=%d" max_int;
      "B session.req rid=\"r1\" k=3 s=\"3\" b=false";
      "E session.req rid=\"r1\"";
    ]
    (render evs);
  Trace.set_capacity 8;
  Fun.protect ~finally:(fun () -> Trace.set_capacity 65536) @@ fun () ->
  let evs =
    capture @@ fun () ->
    for k = 0 to 19 do
      Trace.instant Trace.Glr "tick" (args k)
    done;
    Alcotest.(check int) "overwritten events counted" 12 (Trace.dropped ());
    Trace.events ()
  in
  Alcotest.(check (list int)) "newest events kept, in order"
    (List.init 8 (fun i -> 12 + i))
    (List.map (fun (e : Trace.event) -> e.Trace.seq) evs);
  Alcotest.(check (list string))
    "each with its own arguments"
    (List.init 8 (fun i ->
         let k = 12 + i in
         Printf.sprintf "i glr.tick k=%d s=\"%d\" b=%b" k k (k mod 2 = 0)))
    (render evs)

(* A shifted terminal is labelled with its text, cut at 24 bytes; a
   subtree shifted whole with its symbol and size, the same ones the
   reuse decision just before it names. *)
let test_shift_labels () =
  let lang = Languages.C_subset.language in
  let s =
    capture (fun () ->
        make_session lang
          "/* a comment longer than the label */ int f () { int x; x = 1; \
           }\nint g () { return 2; }")
  in
  (match
     List.filter_map Trace.to_legacy_string (Trace.events ())
     |> List.filter (fun l -> String.starts_with ~prefix:"shift" l)
   with
  | first :: second :: _ ->
      Alcotest.(check string) "long trivia cut"
        "shift: \"/* a comment longer than...\" -> 1 parser(s)" first;
      Alcotest.(check string) "short token whole"
        "shift: \" f\" -> 1 parser(s)" second
  | _ -> Alcotest.fail "no shifts traced");
  let evs =
    capture @@ fun () ->
    Session.edit s ~pos:(String.length (Session.text s) - 4) ~del:1 ~insert:"3";
    (match Session.reparse s with
    | Session.Parsed _ -> ()
    | Session.Recovered _ -> Alcotest.fail "edit broke the parse");
    Trace.events ()
  in
  let rec check_subtree_shifts n = function
    | (prev : Trace.event) :: (e : Trace.event) :: rest
      when e.Trace.name = "shift" && Trace.str_arg "symbol" e <> None ->
        Alcotest.(check string) "preceded by its reuse decision" "accept"
          prev.Trace.name;
        Alcotest.(check (option string)) "same symbol"
          (Trace.str_arg "symbol" prev) (Trace.str_arg "symbol" e);
        Alcotest.(check (option int)) "same size"
          (Trace.int_arg "tokens" prev) (Trace.int_arg "tokens" e);
        check_subtree_shifts (n + 1) rest
    | _ :: rest -> check_subtree_shifts n rest
    | [] -> n
  in
  Alcotest.(check bool) "a subtree was shifted whole" true
    (check_subtree_shifts 0 evs > 0);
  Alcotest.(check bool) "subtree shift rendering" true
    (List.mem "shift: ext_decl (13 tokens) -> 1 parser(s)"
       (List.filter_map Trace.to_legacy_string evs))

(* Appendix B: "a (b);" inside a function body is both an expression
   statement and a declaration of b; the dag keeps both readings under a
   choice node (gold diamond, dotted edges) and shares the terminals of
   the ambiguous region between them. *)
let golden_appendix_b_dot =
  {golden|digraph parsedag {
  node [fontname="monospace"];
  n0 [label="root" shape=plaintext];
  n0 -> n1;
  n1 [label="bos" shape=point];
  n0 -> n2;
  n2 [label="translation_unit" shape=ellipse];
  n2 -> n3;
  n3 [label="ext_decl*" shape=ellipse];
  n3 -> n4;
  n4 [label="ext_decl*" shape=ellipse];
  n3 -> n5;
  n5 [label="ext_decl" shape=ellipse];
  n5 -> n6;
  n6 [label="func_def" shape=ellipse];
  n6 -> n7;
  n7 [label="type_spec" shape=ellipse];
  n7 -> n8;
  n8 [label="int" shape=box style=filled fillcolor=lightgrey];
  n6 -> n9;
  n9 [label="f" shape=box style=filled fillcolor=lightgrey];
  n6 -> n10;
  n10 [label="(" shape=box style=filled fillcolor=lightgrey];
  n6 -> n11;
  n11 [label=")" shape=box style=filled fillcolor=lightgrey];
  n6 -> n12;
  n12 [label="compound" shape=ellipse];
  n12 -> n13;
  n13 [label="{" shape=box style=filled fillcolor=lightgrey];
  n12 -> n14;
  n14 [label="stmt*" shape=ellipse];
  n14 -> n15;
  n15 [label="stmt*" shape=ellipse];
  n14 -> n16;
  n16 [label="stmt?" shape=diamond style=filled fillcolor=gold];
  n16 -> n17 [style=dotted];
  n17 [label="stmt" shape=ellipse];
  n17 -> n18;
  n18 [label="expr" shape=ellipse];
  n18 -> n19;
  n19 [label="expr" shape=ellipse];
  n19 -> n20;
  n20 [label="a" shape=box style=filled fillcolor=lightgrey];
  n18 -> n21;
  n21 [label="(" shape=box style=filled fillcolor=lightgrey];
  n18 -> n22;
  n22 [label="arg_list" shape=ellipse];
  n22 -> n23;
  n23 [label="expr" shape=ellipse];
  n23 -> n24;
  n24 [label="b" shape=box style=filled fillcolor=lightgrey];
  n18 -> n25;
  n25 [label=")" shape=box style=filled fillcolor=lightgrey];
  n17 -> n26;
  n26 [label=";" shape=box style=filled fillcolor=lightgrey];
  n16 -> n27 [style=dotted];
  n27 [label="stmt" shape=ellipse];
  n27 -> n28;
  n28 [label="decl" shape=ellipse];
  n28 -> n29;
  n29 [label="type_spec" shape=ellipse];
  n29 -> n20;
  n28 -> n30;
  n30 [label="init_decl_list" shape=ellipse];
  n30 -> n31;
  n31 [label="init_decl" shape=ellipse];
  n31 -> n32;
  n32 [label="declarator" shape=ellipse];
  n32 -> n21;
  n32 -> n33;
  n33 [label="declarator" shape=ellipse];
  n33 -> n24;
  n32 -> n25;
  n28 -> n26;
  n12 -> n34;
  n34 [label="}" shape=box style=filled fillcolor=lightgrey];
  n0 -> n35;
  n35 [label="eos" shape=point];
}
|golden}

let test_golden_dot () =
  let lang = Languages.Cpp_subset.language in
  let s = make_session lang "int f () { a (b); }" in
  let dot =
    Parsedag.Pp.to_dot lang.Language.grammar (Session.root s)
  in
  Alcotest.(check string) "appendix B dot" golden_appendix_b_dot dot

let suite =
  [
    Alcotest.test_case "stream well-formed across edit" `Quick
      test_stream_well_formed;
    Alcotest.test_case "ambiguous stream well-formed" `Quick
      test_ambiguous_stream_well_formed;
    Alcotest.test_case "session spans enclose engine events" `Quick
      test_root_span_encloses;
    Alcotest.test_case "appendix B golden dot" `Quick test_golden_dot;
    Alcotest.test_case "ring round-trips arguments" `Quick test_ring_round_trip;
    Alcotest.test_case "shift labels" `Quick test_shift_labels;
  ]
