(* Tests for sentential-form incremental parsing (Inc_lr.parse_sentential)
   and its contrast with state-matching (§3.2, footnote 6). *)

module Node = Parsedag.Node
module Pp = Parsedag.Pp
module Document = Vdoc.Document
module Language = Languages.Language

let calc = Languages.Calc.language

let batch_sexp lang text =
  let tokens, trailing = Lexgen.Scanner.all (Language.lexer lang) text in
  let det = Iglr.Lr_parser.parse (Language.table lang) tokens ~trailing in
  Pp.to_sexp lang.Language.grammar det

let doc_of lang text = Document.create ~lexer:(Language.lexer lang) text

let test_initial_parse () =
  let doc = doc_of calc "a = 1 + 2 * b;\n" in
  ignore (Iglr.Inc_lr.parse_sentential (Language.table calc) (Document.root doc));
  Alcotest.(check string) "matches batch"
    (batch_sexp calc "a = 1 + 2 * b;\n")
    (Pp.to_sexp calc.Language.grammar (Document.root doc))

let test_incremental_edit () =
  let doc = doc_of calc "a = 1;\nb = 2;\nc = 3;\n" in
  ignore (Iglr.Inc_lr.parse_sentential (Language.table calc) (Document.root doc));
  ignore (Document.edit doc ~pos:4 ~del:1 ~insert:"42");
  let stats = Iglr.Inc_lr.parse_sentential (Language.table calc) (Document.root doc) in
  Alcotest.(check bool) "subtrees reused" true
    (stats.Iglr.Glr.shifted_subtrees > 0);
  Alcotest.(check string) "incremental = batch"
    (batch_sexp calc (Document.text doc))
    (Pp.to_sexp calc.Language.grammar (Document.root doc))

(* Footnote 6's minimal setting: S -> a X d | b X d;  X -> c c c.
   Editing the leading "a" to "b" moves the unmodified X subtree into a
   different left-context state (the items S -> a·Xd and S -> b·Xd live in
   different states); its one-token right context "d" is untouched.
   State-matching must decompose X; the grammar-based test shifts it
   whole. *)
let footnote6_language =
  lazy
    (let b = Grammar.Builder.create () in
     let s = Grammar.Builder.nonterminal b "S" in
     let x = Grammar.Builder.nonterminal b "X" in
     let t n = Grammar.Builder.terminal b n in
     ignore (Grammar.Builder.terminal b "<error>");
     Grammar.Builder.prod b s [ t "a"; x; t "d" ];
     Grammar.Builder.prod b s [ t "b"; x; t "d" ];
     Grammar.Builder.prod b x [ t "c"; t "c"; t "c" ];
     Grammar.Builder.set_start b s;
     let grammar = Grammar.Builder.build b in
     Languages.Language.make ~name:"fn6" ~grammar
       ~rules:
         Languages.Lexcommon.
           [ punct "a"; punct "b"; punct "c"; punct "d"; skip whitespace;
             error_rule ]
       ())

let test_more_aggressive_than_state_matching () =
  let lang = Lazy.force footnote6_language in
  let run parse =
    let doc = doc_of lang "a c c c d" in
    ignore (parse (Language.table lang) (Document.root doc));
    ignore (Document.edit doc ~pos:0 ~del:1 ~insert:"b");
    let stats = parse (Language.table lang) (Document.root doc) in
    (stats, Pp.to_sexp lang.Language.grammar (Document.root doc))
  in
  let sf_stats, sf_sexp = run Iglr.Inc_lr.parse_sentential in
  let sm_stats, sm_sexp = run Iglr.Inc_lr.parse in
  Alcotest.(check string) "both match batch" sf_sexp sm_sexp;
  Alcotest.(check string) "and equal batch" (batch_sexp lang "b c c c d")
    sf_sexp;
  Alcotest.(check int) "sentential-form shifts X whole" 1
    sf_stats.Iglr.Glr.shifted_subtrees;
  Alcotest.(check int) "state-matching reuses nothing" 0
    sm_stats.Iglr.Glr.shifted_subtrees;
  (* Both decompose the edited S production; only state-matching also
     decomposes the context-moved X. *)
  Alcotest.(check bool)
    (Printf.sprintf "fewer breakdowns (%d vs %d)"
       sf_stats.Iglr.Glr.breakdowns sm_stats.Iglr.Glr.breakdowns)
    true
    (sf_stats.Iglr.Glr.breakdowns < sm_stats.Iglr.Glr.breakdowns)

let test_rejects_conflicted_tables () =
  let c = Languages.C_subset.language in
  let doc = doc_of c "int f () { a (b); }" in
  try
    ignore (Iglr.Inc_lr.parse_sentential (Language.table c) (Document.root doc));
    Alcotest.fail "expected conflict rejection"
  with Iglr.Inc_lr.Error _ -> ()

let test_errors () =
  let doc = doc_of calc "a = ;" in
  try
    ignore (Iglr.Inc_lr.parse_sentential (Language.table calc) (Document.root doc));
    Alcotest.fail "expected syntax error"
  with Iglr.Inc_lr.Error { offset_tokens; _ } ->
    Alcotest.(check int) "error position" 2 offset_tokens

(* Property: random digit edits — sentential-form incremental = batch, on
   every bundled language with a conflict-free table. *)
let prop_equals_batch =
  QCheck.Test.make ~count:100 ~name:"sentential-form: random edits = batch"
    QCheck.(int_bound 10000)
    (fun seed ->
      List.for_all
        (fun (_, lang, text) ->
          let doc = doc_of lang text in
          ignore (Iglr.Inc_lr.parse_sentential (Language.table lang) (Document.root doc));
          let st = Random.State.make [| seed |] in
          let ok = ref true in
          for _ = 1 to 4 do
            let digits =
              String.to_seq (Document.text doc)
              |> Seq.mapi (fun i c -> (i, c))
              |> Seq.filter (fun (_, c) -> c >= '0' && c <= '9')
              |> List.of_seq
            in
            let pos, _ =
              List.nth digits (Random.State.int st (List.length digits))
            in
            ignore (Document.edit doc ~pos ~del:1 ~insert:"8");
            ignore
              (Iglr.Inc_lr.parse_sentential (Language.table lang) (Document.root doc));
            if
              Pp.to_sexp lang.Language.grammar (Document.root doc)
              <> batch_sexp lang (Document.text doc)
            then ok := false
          done;
          !ok)
        (Lazy.force Fixtures.deterministic_programs))

let suite =
  [
    Alcotest.test_case "initial parse" `Quick test_initial_parse;
    Alcotest.test_case "incremental edit" `Quick test_incremental_edit;
    Alcotest.test_case "more aggressive reuse (footnote 6)" `Quick
      test_more_aggressive_than_state_matching;
    Alcotest.test_case "rejects conflicted tables" `Quick
      test_rejects_conflicted_tables;
    Alcotest.test_case "syntax errors" `Quick test_errors;
    QCheck_alcotest.to_alcotest prop_equals_batch;
  ]
