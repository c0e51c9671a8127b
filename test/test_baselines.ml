(* Tests for the deterministic baselines: batch LR (lib/core/lr_parser) and
   incremental state-matching LR (lib/core/inc_lr). *)

module Cfg = Grammar.Cfg
module Node = Parsedag.Node
module Pp = Parsedag.Pp
module Table = Lrtab.Table
module Document = Vdoc.Document
module Language = Languages.Language

let calc = Languages.Calc.language
let tiny = Languages.Tiny.language

let tokens_of lang text = Lexgen.Scanner.all (Language.lexer lang) text

let test_lr_batch_matches_glr () =
  let text = "a = 1 + 2 * x;\ny = (a + 4) * 2;\n" in
  let table = Language.table calc in
  let tokens, trailing = tokens_of calc text in
  let det = Iglr.Lr_parser.parse table tokens ~trailing in
  let glr, _ = Iglr.Glr.parse_tokens table tokens ~trailing in
  Alcotest.(check string) "LR = GLR structure"
    (Pp.to_sexp calc.Language.grammar glr)
    (Pp.to_sexp calc.Language.grammar det)

let test_lr_errors () =
  let table = Language.table calc in
  let tokens, trailing = tokens_of calc "a = ;" in
  (try
     ignore (Iglr.Lr_parser.parse table tokens ~trailing);
     Alcotest.fail "expected error"
   with Iglr.Lr_parser.Error { offset = e; _ } ->
     Alcotest.(check int) "error offset" 2 e);
  (* Conflicted tables are rejected. *)
  let amb = Lrtab.Table.build (Fixtures.sss_grammar ()) in
  let toks =
    [ { Lexgen.Scanner.term = Cfg.find_terminal (Table.grammar amb) "a";
        text = "a"; trivia = ""; lookahead = 0 } ]
  in
  try
    ignore (Iglr.Lr_parser.parse amb (toks @ toks @ toks) ~trailing:"");
    Alcotest.fail "expected conflict error"
  with Iglr.Lr_parser.Error _ -> ()

let test_recognize_counts () =
  let table = Language.table calc in
  let g = calc.Language.grammar in
  let terms =
    Array.of_list
      (List.map (Cfg.find_terminal g) [ "id"; "="; "num"; ";" ])
  in
  let reductions = Iglr.Lr_parser.recognize table terms in
  Alcotest.(check bool) "some reductions" true (reductions > 0)

let inc_parse lang doc =
  Iglr.Inc_lr.parse (Language.table lang) (Document.root doc)

let test_inc_lr_initial () =
  let doc = Document.create ~lexer:(Language.lexer calc) "a = 1 + 2;\n" in
  ignore (inc_parse calc doc);
  let tokens, trailing = tokens_of calc "a = 1 + 2;\n" in
  let det = Iglr.Lr_parser.parse (Language.table calc) tokens ~trailing in
  Alcotest.(check string) "initial parse structure"
    (Pp.to_sexp calc.Language.grammar det)
    (Pp.to_sexp calc.Language.grammar (Document.root doc))

let test_inc_lr_edit () =
  let doc = Document.create ~lexer:(Language.lexer calc)
      "a = 1;\nb = 2;\nc = 3;\n" in
  ignore (inc_parse calc doc);
  ignore (Document.edit doc ~pos:4 ~del:1 ~insert:"42");
  let stats = inc_parse calc doc in
  Alcotest.(check bool) "subtrees reused" true
    (stats.Iglr.Glr.shifted_subtrees > 0);
  (* Compare against a fresh parse of the same text. *)
  let tokens, trailing = tokens_of calc (Document.text doc) in
  let det = Iglr.Lr_parser.parse (Language.table calc) tokens ~trailing in
  Alcotest.(check string) "incremental = batch"
    (Pp.to_sexp calc.Language.grammar det)
    (Pp.to_sexp calc.Language.grammar (Document.root doc))

let test_inc_lr_rejects_conflicts () =
  let lang = Languages.C_subset.language in
  let doc =
    Document.create ~lexer:(Language.lexer lang) "int foo () { a (b); }"
  in
  try
    ignore (Iglr.Inc_lr.parse (Language.table lang) (Document.root doc));
    Alcotest.fail "expected conflict error"
  with Iglr.Inc_lr.Error _ -> ()

let test_inc_lr_and_glr_interoperate () =
  (* The two parsers share the document representation: parse with IGLR,
     edit, reparse with the deterministic parser, and vice versa. *)
  let text = "proc f ( ) { a = 1 + 2; print a; }" in
  let doc = Document.create ~lexer:(Language.lexer tiny) text in
  ignore (Iglr.Glr.parse (Language.table tiny) (Document.root doc));
  ignore (Document.edit doc ~pos:17 ~del:1 ~insert:"9");
  ignore (inc_parse tiny doc);
  ignore (Document.edit doc ~pos:17 ~del:1 ~insert:"7");
  ignore (Iglr.Glr.parse (Language.table tiny) (Document.root doc));
  let tokens, trailing = tokens_of tiny (Document.text doc) in
  let det = Iglr.Lr_parser.parse (Language.table tiny) tokens ~trailing in
  Alcotest.(check string) "alternating parsers stay consistent"
    (Pp.to_sexp tiny.Language.grammar det)
    (Pp.to_sexp tiny.Language.grammar (Document.root doc))

(* Property: random edits, deterministic incremental = batch LR, on every
   bundled language with a conflict-free table. *)
let prop_inc_lr_equals_batch =
  QCheck.Test.make ~count:100 ~name:"inc LR: random edits = batch"
    QCheck.(pair (int_bound 10000) (int_bound 3))
    (fun (seed, _) ->
      List.for_all
        (fun (_, lang, text) ->
          let doc = Document.create ~lexer:(Language.lexer lang) text in
          ignore (inc_parse lang doc);
          let st = Random.State.make [| seed |] in
          let ok = ref true in
          for _ = 1 to 4 do
            (* Digit edits keep the program well-formed. *)
            let digits =
              String.to_seq (Document.text doc)
              |> Seq.mapi (fun i c -> (i, c))
              |> Seq.filter (fun (_, c) -> c >= '0' && c <= '9')
              |> List.of_seq
            in
            let pos, _ =
              List.nth digits (Random.State.int st (List.length digits))
            in
            ignore (Document.edit doc ~pos ~del:1 ~insert:"7");
            ignore (inc_parse lang doc);
            let tokens, trailing = tokens_of lang (Document.text doc) in
            let det =
              Iglr.Lr_parser.parse (Language.table lang) tokens ~trailing
            in
            if
              Pp.to_sexp lang.Language.grammar det
              <> Pp.to_sexp lang.Language.grammar (Document.root doc)
            then ok := false
          done;
          !ok)
        (Lazy.force Fixtures.deterministic_programs))

(* The baselines' work on a fixed self-cancelling token-edit stream (the
   sec5-incremental protocol: each edit, then its inverse), summed over
   the initial parse and every reparse.  Both techniques read the same
   numbers here: a digit edit never moves a subtree into another left
   context, so footnote 6's difference does not show.  After the stream the document must equal a
   batch LR parse of its text. *)
let work_counts parse lang src =
  let table = Language.table lang in
  let doc = Document.create ~lexer:(Language.lexer lang) src in
  let sum = Iglr.Glr.fresh_stats () in
  let reparse () =
    let s = parse table (Document.root doc) in
    Iglr.Glr.(
      sum.shifted_subtrees <- sum.shifted_subtrees + s.shifted_subtrees;
      sum.shifted_terminals <- sum.shifted_terminals + s.shifted_terminals;
      sum.reductions <- sum.reductions + s.reductions;
      sum.breakdowns <- sum.breakdowns + s.breakdowns;
      sum.nodes_created <- sum.nodes_created + s.nodes_created)
  in
  let step (e : Workload.Edit_gen.edit) =
    ignore
      (Document.edit doc ~pos:e.Workload.Edit_gen.e_pos
         ~del:e.Workload.Edit_gen.e_del ~insert:e.Workload.Edit_gen.e_insert);
    reparse ()
  in
  reparse ();
  List.iter
    (fun e ->
      let inv = Workload.Edit_gen.inverse e (Document.text doc) in
      step e;
      step inv)
    (Workload.Edit_gen.token_edits ~seed:21 ~count:40 src);
  let tokens, trailing = tokens_of lang (Document.text doc) in
  let det = Iglr.Lr_parser.parse table tokens ~trailing in
  Alcotest.(check string) "incremental = batch after the stream"
    (Pp.to_sexp lang.Language.grammar det)
    (Pp.to_sexp lang.Language.grammar (Document.root doc));
  Iglr.Glr.
    [ sum.shifted_subtrees; sum.shifted_terminals; sum.reductions;
      sum.breakdowns; sum.nodes_created ]

let test_work_counts_pinned () =
  let calc_src =
    String.concat "\n"
      (List.init 200 (fun i ->
           Printf.sprintf "w%d = (1%d + 2) * w%d / 3;" i (i mod 10)
             (max 0 (i - 1))))
  in
  let c_src = Workload.Spec_gen.plain ~lines:800 ~seed:11 in
  List.iter
    (fun (technique, parse) ->
      List.iter
        (fun (name, lang, src, expected) ->
          Alcotest.(check (list int))
            (Printf.sprintf
               "%s on %s: subtrees, terminals, reductions, breakdowns, nodes"
               technique name)
            expected (work_counts parse lang src))
        [
          ("c", Languages.C_subset.language, c_src,
           [ 4832; 4983; 10089; 5552; 10089 ]);
          ("calc", calc, calc_src, [ 16098; 2992; 18526; 16524; 18526 ]);
        ])
    [ ("state-matching", Iglr.Inc_lr.parse);
      ("sentential-form", Iglr.Inc_lr.parse_sentential) ]

let suite =
  [
    Alcotest.test_case "batch LR matches GLR" `Quick test_lr_batch_matches_glr;
    Alcotest.test_case "batch LR errors" `Quick test_lr_errors;
    Alcotest.test_case "recognizer reduction counts" `Quick test_recognize_counts;
    Alcotest.test_case "inc LR initial parse" `Quick test_inc_lr_initial;
    Alcotest.test_case "inc LR edit + reuse" `Quick test_inc_lr_edit;
    Alcotest.test_case "inc LR rejects conflicts" `Quick
      test_inc_lr_rejects_conflicts;
    Alcotest.test_case "inc LR and IGLR interoperate" `Quick
      test_inc_lr_and_glr_interoperate;
    Alcotest.test_case "work counts pinned" `Quick test_work_counts_pinned;
    QCheck_alcotest.to_alcotest prop_inc_lr_equals_batch;
  ]
