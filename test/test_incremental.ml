(* Integration tests for incremental parsing: the central invariant is
   that an incremental reparse after edits produces a tree structurally
   identical to a from-scratch parse of the edited text. *)

module Node = Parsedag.Node
module Pp = Parsedag.Pp
module Glr = Iglr.Glr
module Session = Iglr.Session
module Document = Vdoc.Document
module Language = Languages.Language

let session lang text =
  let table = Language.table lang in
  let lexer = Language.lexer lang in
  (* The dag sanitizer runs after every parse that commits a tree —
     initial and incremental — so any test edit that silently corrupts
     the dag fails at the edit that introduced the damage. *)
  let s, outcome = Session.create ~table ~lexer text in
  let committed =
    match outcome with
    | Session.Parsed _ -> true
    | Session.Recovered { isolated; _ } -> isolated > 0
  in
  if committed then Analyze.Check.assert_dag table (Session.root s);
  Session.on_commit s (fun ~watermark:_ root ->
      Analyze.Check.assert_dag table root);
  (s, outcome)

let batch_sexp lang text =
  let s, outcome = session lang text in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.failf "batch parse failed for %S" text);
  Pp.to_sexp lang.Language.grammar (Session.root s)

let check_incremental_matches_batch lang s =
  match Session.reparse s with
  | Session.Recovered _ -> Alcotest.failf "incremental parse failed"
  | Session.Parsed stats ->
      let inc = Pp.to_sexp lang.Language.grammar (Session.root s) in
      let batch = batch_sexp lang (Session.text s) in
      Alcotest.(check string) "incremental = batch" batch inc;
      stats

let calc = Languages.Calc.language
let c = Languages.C_subset.language
let lr2 = Languages.Lr2.language

let test_calc_token_edit () =
  let s, outcome = session calc "a = 1 + 2 * x;\ny = a * 4;\n" in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "initial parse failed");
  Session.edit s ~pos:4 ~del:1 ~insert:"42";
  let stats = check_incremental_matches_batch calc s in
  Alcotest.(check bool) "subtrees were reused" true
    (stats.Glr.shifted_subtrees > 0)

let test_calc_structural_edit () =
  let s, _ = session calc "a = 1;\nb = 2;\nc = 3;\n" in
  (* Turn the middle statement into a nested expression statement. *)
  Session.edit s ~pos:7 ~del:6 ~insert:"(b + 9) * 2;";
  ignore (check_incremental_matches_batch calc s)

let test_calc_insert_statement () =
  let s, _ = session calc "a = 1;\nc = 3;\n" in
  Session.edit s ~pos:7 ~del:0 ~insert:"b = 2;\n";
  ignore (check_incremental_matches_batch calc s)

let test_calc_delete_statement () =
  let s, _ = session calc "a = 1;\nb = 2;\nc = 3;\n" in
  Session.edit s ~pos:7 ~del:7 ~insert:"";
  ignore (check_incremental_matches_batch calc s)

let test_self_cancelling_edit_reuses () =
  (* The §5 benchmark operation: change a token, parse, change it back,
     parse.  After the round trip the tree must match the original and
     most of the structure must have been reused rather than rebuilt. *)
  let text = "a = 1 + 2;\nb = a * 3;\nc = b / 4;\nd = c - 5;\n" in
  let s, _ = session calc text in
  let original = Pp.to_sexp calc.Language.grammar (Session.root s) in
  Session.edit s ~pos:4 ~del:1 ~insert:"7";
  ignore (check_incremental_matches_batch calc s);
  Session.edit s ~pos:4 ~del:1 ~insert:"1";
  let stats = check_incremental_matches_batch calc s in
  Alcotest.(check string) "round trip restores structure" original
    (Pp.to_sexp calc.Language.grammar (Session.root s));
  (* Locality: only the edited statement and the sequence spine above it
     are rebuilt; the bulk of the tree is shifted whole. *)
  let total = Node.count_nodes (Session.root s) in
  Alcotest.(check bool) "few nodes rebuilt" true
    (stats.Glr.nodes_created * 2 < total);
  Alcotest.(check bool) "subtrees shifted whole" true
    (stats.Glr.shifted_subtrees > 0)

let fig1_source = "int foo () { int i; int j; a (b); c (d); i = 1; j = 2; }"

let test_c_fig1_ambiguity () =
  let s, outcome = session c fig1_source in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "figure 1 parse failed");
  Alcotest.(check int) "two ambiguous statements" 2
    (Fixtures.count_choices (Session.root s));
  (* Terminals are shared between interpretations (Figure 3): token count
     equals the number of lexed tokens. *)
  let expected_tokens =
    List.length (fst (Lexgen.Scanner.all (Language.lexer c) fig1_source))
  in
  Alcotest.(check int) "terminals shared" expected_tokens
    (Node.token_count (Session.root s))

let test_c_appendix_b_scenario () =
  (* Appendix B: delete the semicolon after "a (b)" and re-insert it.  The
     ambiguous region is rebuilt with both interpretations; everything
     else is reused. *)
  let s, _ = session c fig1_source in
  let semi_pos = String.index_from fig1_source 28 ';' in
  Session.edit s ~pos:semi_pos ~del:1 ~insert:"";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ ->
      (* "a (b) c (d);" may genuinely fail to parse; either outcome is
         acceptable here as long as re-insertion restores the dag. *)
      ());
  Session.edit s ~pos:semi_pos ~del:0 ~insert:";";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "reparse after re-insertion failed");
  Alcotest.(check int) "ambiguity reconstructed" 2
    (Fixtures.count_choices (Session.root s));
  let batch = batch_sexp c fig1_source in
  Alcotest.(check string) "round trip = batch" batch
    (Pp.to_sexp c.Language.grammar (Session.root s))

let test_c_edit_outside_ambiguity () =
  (* An edit outside the ambiguous regions must leave both of them in the
     reparsed dag, exactly as a batch parse of the new text has them. *)
  let s, _ = session c fig1_source in
  (* Change "j = 2" to "j = 9" near the end. *)
  let pos = String.rindex fig1_source '2' in
  Session.edit s ~pos ~del:1 ~insert:"9";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "reparse failed");
  Alcotest.(check int) "still two ambiguities" 2
    (Fixtures.count_choices (Session.root s));
  let batch = batch_sexp c (Session.text s) in
  Alcotest.(check string) "incremental = batch" batch
    (Pp.to_sexp c.Language.grammar (Session.root s))

let test_c_edit_inside_ambiguity () =
  (* Editing inside an ambiguous region forces its atomic reconstruction;
     the result must match a batch parse. *)
  let s, _ = session c fig1_source in
  let pos = String.index fig1_source 'b' in
  Session.edit s ~pos ~del:1 ~insert:"zz";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "reparse failed");
  let batch = batch_sexp c (Session.text s) in
  Alcotest.(check string) "incremental = batch" batch
    (Pp.to_sexp c.Language.grammar (Session.root s))

let test_lr2_lookahead_change () =
  (* Figure 7: "x z c" parses via U; editing the last token to "e" flips
     the whole interpretation to V — dynamic lookahead tracking must
     force the non-deterministic region to be re-examined. *)
  let s, outcome = session lr2 "x z c" in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "initial parse failed");
  Alcotest.(check string) "U interpretation"
    "(root (A (B (U \"x\") \"z\") \"c\"))"
    (Pp.to_sexp lr2.Language.grammar (Session.root s));
  Session.edit s ~pos:4 ~del:1 ~insert:"e";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "reparse failed");
  Alcotest.(check string) "V interpretation"
    "(root (A (D (V \"x\") \"z\") \"e\"))"
    (Pp.to_sexp lr2.Language.grammar (Session.root s))

let test_recovery_and_repair () =
  let s, _ = session calc "a = 1;\nb = 2;\n" in
  let good = Pp.to_sexp calc.Language.grammar (Session.root s) in
  (* Break it: delete the first semicolon. *)
  Session.edit s ~pos:5 ~del:1 ~insert:"";
  (match Session.reparse s with
  | Session.Recovered { flagged; _ } ->
      Alcotest.(check bool) "something flagged" true (flagged >= 0);
      Alcotest.(check bool) "session has errors" true (Session.has_errors s)
  | Session.Parsed _ -> Alcotest.fail "expected recovery");
  (* Old structure is retained (history-based recovery). *)
  Alcotest.(check bool) "text reflects the edit" true
    (String.equal (Session.text s) "a = 1\nb = 2;\n");
  (* Repair. *)
  Session.edit s ~pos:5 ~del:0 ~insert:";";
  (match Session.reparse s with
  | Session.Parsed _ ->
      Alcotest.(check bool) "errors cleared" false (Session.has_errors s)
  | Session.Recovered _ -> Alcotest.fail "repair failed");
  Alcotest.(check string) "structure restored" good
    (Pp.to_sexp calc.Language.grammar (Session.root s))

let test_multi_edit_recovery () =
  (* Two pending edits, one of which breaks the syntax: recovery holds the
     structure; repairing the bad edit incorporates both. *)
  let s, _ = session calc "a = 1;\nb = 2;\n" in
  Session.edit s ~pos:4 ~del:1 ~insert:"42" (* good *);
  (* After the first edit the text is "a = 42;\nb = 2;\n"; break the "2"
     of the second statement (offset 12). *)
  Session.edit s ~pos:12 ~del:1 ~insert:"+";
  (match Session.reparse s with
  | Session.Recovered _ -> ()
  | Session.Parsed _ -> Alcotest.fail "expected recovery");
  (* Repair the bad edit; both changes must now be integrated. *)
  Session.edit s ~pos:12 ~del:1 ~insert:"9";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "repair failed");
  Alcotest.(check string) "both edits incorporated"
    (batch_sexp calc "a = 42;\nb = 9;\n")
    (Pp.to_sexp calc.Language.grammar (Session.root s))

(* Property: random edit scripts on calc programs keep incremental = batch. *)
let gen_program =
  QCheck.Gen.(
    let stmt =
      oneofl
        [
          "a = 1;\n"; "b = a + 2;\n"; "c = (a + b) * 3;\n"; "d;\n";
          "e = a * b + c * d;\n"; "f = 1 + 2 + 3 + 4;\n";
        ]
    in
    map (String.concat "") (list_size (int_range 1 8) stmt))

let gen_script = QCheck.Gen.(pair gen_program (int_bound 10000))

let prop_incremental_equals_batch =
  QCheck.Test.make ~count:150 ~name:"random edits: incremental = batch"
    (QCheck.make gen_script)
    (fun (program, seed) ->
      let s, outcome = session calc program in
      (match outcome with Session.Parsed _ -> () | _ -> QCheck.assume_fail ());
      let st = Random.State.make [| seed |] in
      let ok = ref true in
      for _ = 1 to 4 do
        let len = String.length (Session.text s) in
        let pos = if len = 0 then 0 else Random.State.int st len in
        let del = min (Random.State.int st 3) (len - pos) in
        let ins =
          List.nth [ "x"; "1"; " + y"; ";"; "" ] (Random.State.int st 5)
        in
        Session.edit s ~pos ~del ~insert:ins;
        match Session.reparse s with
        | Session.Parsed _ ->
            let inc = Pp.to_sexp calc.Language.grammar (Session.root s) in
            let fresh, o2 = session calc (Session.text s) in
            (match o2 with
            | Session.Parsed _ ->
                if inc <> Pp.to_sexp calc.Language.grammar (Session.root fresh)
                then ok := false
            | Session.Recovered _ -> ok := false)
        | Session.Recovered _ ->
            (* A random edit may produce a syntax error; recovery keeps the
               document usable.  Nothing to compare. *)
            ()
      done;
      !ok)

let prop_c_incremental_equals_batch =
  QCheck.Test.make ~count:60 ~name:"C subset: random edits incremental = batch"
    QCheck.(int_bound 100000)
    (fun seed ->
      let s, _ = session c fig1_source in
      let st = Random.State.make [| seed |] in
      let ok = ref true in
      for _ = 1 to 3 do
        let len = String.length (Session.text s) in
        let pos = if len = 0 then 0 else Random.State.int st len in
        let del = min (Random.State.int st 2) (len - pos) in
        let ins = List.nth [ "x"; "1"; ";"; " " ] (Random.State.int st 4) in
        Session.edit s ~pos ~del ~insert:ins;
        match Session.reparse s with
        | Session.Parsed _ ->
            let inc = Pp.to_sexp c.Language.grammar (Session.root s) in
            let fresh, o2 = session c (Session.text s) in
            (match o2 with
            | Session.Parsed _ ->
                if inc <> Pp.to_sexp c.Language.grammar (Session.root fresh)
                then ok := false
            | Session.Recovered _ -> ok := false)
        | Session.Recovered _ -> ()
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "calc: token edit" `Quick test_calc_token_edit;
    Alcotest.test_case "calc: structural edit" `Quick test_calc_structural_edit;
    Alcotest.test_case "calc: insert statement" `Quick test_calc_insert_statement;
    Alcotest.test_case "calc: delete statement" `Quick test_calc_delete_statement;
    Alcotest.test_case "calc: self-cancelling edit" `Quick
      test_self_cancelling_edit_reuses;
    Alcotest.test_case "C: figure 1 ambiguity" `Quick test_c_fig1_ambiguity;
    Alcotest.test_case "C: appendix B scenario" `Quick test_c_appendix_b_scenario;
    Alcotest.test_case "C: edit outside ambiguity = batch" `Quick
      test_c_edit_outside_ambiguity;
    Alcotest.test_case "C: edit inside ambiguity" `Quick
      test_c_edit_inside_ambiguity;
    Alcotest.test_case "lr2: lookahead change flips parse" `Quick
      test_lr2_lookahead_change;
    Alcotest.test_case "recovery and repair" `Quick test_recovery_and_repair;
    Alcotest.test_case "multi-edit recovery" `Quick test_multi_edit_recovery;
    QCheck_alcotest.to_alcotest prop_incremental_equals_batch;
    QCheck_alcotest.to_alcotest prop_c_incremental_equals_batch;
  ]
