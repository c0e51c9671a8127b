(* Tests for the static-analysis subsystem (lib/analyze): grammar lint,
   conflict diagnostics, the parse-dag sanitizer, and the GSS validator. *)

module Cfg = Grammar.Cfg
module Builder = Grammar.Builder
module Table = Lrtab.Table
module Node = Parsedag.Node
module Lint = Analyze.Lint
module Check = Analyze.Check
module Session = Iglr.Session
module Language = Languages.Language

(* ------------------------------------------------------------------ *)
(* Grammar lint.                                                       *)

(* One grammar, one deliberate defect per lint rule:
     S -> a | U b | C        (U b is useless: U is unproductive)
     U -> U b                (unproductive)
     W -> a                  (unreachable)
     C -> D | a;  D -> C     (unit cycle C => D => C)
   plus a precedence level on 'zz', which occurs nowhere. *)
let broken_grammar () =
  let b = Builder.create () in
  Builder.declare_prec b Cfg.Left [ "zz" ];
  let s = Builder.nonterminal b "S" in
  let u = Builder.nonterminal b "U" in
  let w = Builder.nonterminal b "W" in
  let c = Builder.nonterminal b "C" in
  let d = Builder.nonterminal b "D" in
  let ta = Builder.terminal b "a" in
  let tb = Builder.terminal b "b" in
  Builder.prod b s [ ta ];
  Builder.prod b s [ u; tb ];
  Builder.prod b s [ c ];
  Builder.prod b u [ u; tb ];
  Builder.prod b w [ ta ];
  Builder.prod b c [ d ];
  Builder.prod b c [ ta ];
  Builder.prod b d [ c ];
  Builder.set_start b s;
  Builder.build b

let test_broken_grammar_diagnostics () =
  let g = broken_grammar () in
  let ds = Lint.grammar_diagnostics g in
  let name n = Cfg.nonterminal_name g n in
  let unreachable =
    List.filter_map (function Lint.Unreachable_nt n -> Some (name n) | _ -> None) ds
  in
  Alcotest.(check (list string)) "unreachable" [ "W" ] unreachable;
  let unproductive =
    List.filter_map (function Lint.Unproductive_nt n -> Some (name n) | _ -> None) ds
  in
  Alcotest.(check (list string)) "unproductive" [ "U" ] unproductive;
  let useless =
    List.filter_map (function Lint.Useless_production p -> Some p | _ -> None) ds
  in
  (match useless with
  | [ p ] ->
      Alcotest.(check string) "useless production lhs" "S"
        (name (Cfg.production g p).Cfg.lhs)
  | _ -> Alcotest.failf "expected exactly one useless production");
  let cycles =
    List.filter_map (function Lint.Derivation_cycle c -> Some c | _ -> None) ds
  in
  (match cycles with
  | [ cycle ] ->
      Alcotest.(check (list string)) "cycle members" [ "C"; "D" ]
        (List.sort compare (List.map name cycle))
  | _ -> Alcotest.failf "expected exactly one derivation cycle, got %d"
           (List.length cycles));
  let unused_prec =
    List.filter_map
      (function
        | Lint.Unused_prec { terminals; _ } ->
            Some (List.map (Cfg.terminal_name g) terminals)
        | _ -> None)
      ds
  in
  Alcotest.(check (list (list string))) "unused precedence" [ [ "zz" ] ]
    unused_prec;
  (* Each defect is an error except the precedence warning. *)
  Alcotest.(check int) "error count" 4 (List.length (Lint.errors ds));
  Alcotest.(check int) "warning count" 1 (List.length (Lint.warnings ds))

let test_clean_grammar_has_no_diagnostics () =
  let ds = Lint.grammar_diagnostics (Fixtures.expr_grammar ()) in
  Alcotest.(check int) "no diagnostics" 0 (List.length ds)

(* Every bundled language must be free of lint errors; conflicts are pinned
   below. *)
let test_bundled_languages_lint_clean () =
  List.iter
    (fun (name, lang) ->
      let table = Language.conflict_table lang in
      let ds = Lint.run table in
      Alcotest.(check int)
        (name ^ ": no lint errors")
        0
        (List.length (Lint.errors ds));
      Alcotest.(check int)
        (name ^ ": no lint warnings")
        0
        (List.length (Lint.warnings ds)))
    [
      ("calc", Languages.Calc.language);
      ("tiny", Languages.Tiny.language);
      ("c", Languages.C_subset.language);
      ("cpp", Languages.Cpp_subset.language);
      ("lr2", Languages.Lr2.language);
      ("modula2", Languages.Modula2.language);
      ("lisp", Languages.Lisp.language);
      ("java", Languages.Java_subset.language);
    ]

(* ------------------------------------------------------------------ *)
(* Conflict diagnostics.                                               *)

let test_c_conflicts_explained () =
  (* The documented, deliberate C-subset conflicts: the typedef
     reduce/reduce pair (type_spec -> id vs expr -> id) plus the
     call-vs-operator shift/reduce family on '('.  Every one must carry an
     example sentence reaching it and the items involved. *)
  let table = Language.conflict_table Languages.C_subset.language in
  let infos = Lint.conflict_diagnostics table in
  Alcotest.(check int) "nine retained conflicts" 9 (List.length infos);
  let lexical =
    List.filter (fun i -> i.Lint.klass = Lint.Lexical_ambiguity) infos
  in
  Alcotest.(check int) "two typedef-style conflicts" 2 (List.length lexical);
  let prec =
    List.filter (fun i -> i.Lint.klass = Lint.Prec_resolvable) infos
  in
  Alcotest.(check int) "seven prec-resolvable conflicts" 7 (List.length prec);
  List.iter
    (fun (i : Lint.conflict_info) ->
      (match i.Lint.example with
      | None -> Alcotest.failf "conflict without example sentence"
      | Some terms ->
          Alcotest.(check bool) "example nonempty" true (terms <> []);
          (* The example's last terminal is the conflicting lookahead. *)
          Alcotest.(check int) "example ends at the lookahead"
            i.Lint.conflict.Table.c_term
            (List.nth terms (List.length terms - 1)));
      Alcotest.(check bool) "items nonempty" true (i.Lint.items <> []))
    infos

let test_lr2_conflict_is_lexical () =
  (* Figure 7's U -> x / V -> x conflict: identical right-hand sides. *)
  let table = Language.conflict_table Languages.Lr2.language in
  match Lint.conflict_diagnostics table with
  | [ i ] ->
      Alcotest.(check bool) "lexical class" true
        (i.Lint.klass = Lint.Lexical_ambiguity);
      let g = Table.grammar table in
      (match i.Lint.example with
      | Some terms ->
          Alcotest.(check (list string)) "shortest sentence is x . z"
            [ "x"; "z" ]
            (List.map (Cfg.terminal_name g) terms)
      | None -> Alcotest.fail "expected an example")
  | infos -> Alcotest.failf "expected one conflict, got %d" (List.length infos)

let test_ambig_expr_conflicts_prec_resolvable () =
  let g = Fixtures.ambig_expr_grammar ~with_prec:false () in
  let table = Table.build g in
  let infos = Lint.conflict_diagnostics table in
  Alcotest.(check bool) "has conflicts" true (infos <> []);
  List.iter
    (fun (i : Lint.conflict_info) ->
      Alcotest.(check bool) "prec-resolvable" true
        (i.Lint.klass = Lint.Prec_resolvable))
    infos;
  (* And indeed, declaring precedence kills them all. *)
  let resolved = Table.build (Fixtures.ambig_expr_grammar ~with_prec:true ()) in
  Alcotest.(check int) "resolved by precedence" 0
    (List.length (Lint.conflict_diagnostics resolved))

let test_shortest_sentence_minimal () =
  (* For lr2 the conflict state is entered after exactly "x"; no shorter
     sentence can reach it. *)
  let table = Language.conflict_table Languages.Lr2.language in
  match Table.conflicts table with
  | [ c ] -> (
      match
        Lint.shortest_sentence table ~state:c.Table.c_state
          ~term:c.Table.c_term
      with
      | Some terms -> Alcotest.(check int) "length 2 (x + lookahead)" 2
                        (List.length terms)
      | None -> Alcotest.fail "expected a sentence")
  | _ -> Alcotest.fail "expected one conflict"

(* ------------------------------------------------------------------ *)
(* Dag sanitizer.                                                      *)

let c_lang = Languages.C_subset.language
let calc_lang = Languages.Calc.language
let fig1 = "int foo () { int i; int j; a (b); c (d); i = 1; j = 2; }"

let parsed lang text =
  let s, outcome =
    Session.create ~table:(Language.table lang) ~lexer:(Language.lexer lang)
      text
  in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.failf "parse failed for %S" text);
  s

let find_node pred root =
  let found = ref None in
  Node.iter (fun n -> if !found = None && pred n then found := Some n) root;
  match !found with Some n -> n | None -> Alcotest.fail "no such node"

let test_sanitizer_accepts_good_dags () =
  let s = parsed c_lang fig1 in
  Alcotest.(check int) "no violations" 0
    (List.length
       (Check.dag ~expect_text:(Session.text s) (Session.table s)
          (Session.root s)));
  let s2 = parsed calc_lang "a = 1 + 2 * x;\n" in
  Alcotest.(check int) "no violations (calc)" 0
    (List.length
       (Check.dag ~expect_text:(Session.text s2) (Session.table s2)
          (Session.root s2)))

let violation_rules vs = List.sort_uniq compare (List.map (fun v -> v.Check.rule) vs)

let test_sanitizer_rejects_bad_token_count () =
  let s = parsed calc_lang "a = 1;\nb = 2;\n" in
  let root = Session.root s in
  root.Node.tcount <- root.Node.tcount + 1;
  let vs = Check.dag (Session.table s) root in
  Alcotest.(check bool) "token-count flagged" true
    (List.mem "token-count" (violation_rules vs))

let test_sanitizer_rejects_broken_parent () =
  let s = parsed calc_lang "a = 1;\n" in
  let t = find_node Node.is_terminal (Session.root s) in
  let p = t.Node.parent in
  t.Node.parent <- Node.orphan;
  let vs = Check.dag (Session.table s) (Session.root s) in
  Alcotest.(check bool) "parent-link flagged" true
    (List.mem "parent-link" (violation_rules vs));
  t.Node.parent <- p;
  (* A write to the shared no-parent sentinel, say a change bit marked on
     a root's "parent", would leak into every dag. *)
  let rules =
    Fun.protect
      ~finally:(fun () -> Node.orphan.Node.flags <- 0)
      (fun () ->
        Node.orphan.Node.flags <- 2;
        violation_rules (Check.dag (Session.table s) (Session.root s)))
  in
  Alcotest.(check (list string)) "orphan write flagged" [ "orphan" ] rules;
  Alcotest.(check (list string)) "clean once restored" []
    (violation_rules (Check.dag (Session.table s) (Session.root s)))

let test_sanitizer_rejects_bad_state () =
  let s = parsed calc_lang "a = 1;\n" in
  let t = find_node Node.is_terminal (Session.root s) in
  t.Node.state <- 100_000;
  let vs = Check.dag (Session.table s) (Session.root s) in
  Alcotest.(check bool) "state flagged" true
    (List.mem "state" (violation_rules vs))

let test_sanitizer_rejects_corrupt_production () =
  let s = parsed calc_lang "a = 1;\n" in
  let p =
    find_node
      (fun n ->
        match n.Node.kind with
        | Node.Prod _ -> Array.length n.Node.kids > 0
        | _ -> false)
      (Session.root s)
  in
  (* Swap in a different production id: the kids no longer match the rhs. *)
  (match p.Node.kind with
  | Node.Prod pid ->
      let g = Table.grammar (Session.table s) in
      let other =
        let rec pick i =
          let q = Cfg.production g i in
          if Array.length q.Cfg.rhs <> Array.length (Cfg.production g pid).Cfg.rhs
          then i
          else pick (i + 1)
        in
        pick 0
      in
      p.Node.kind <- Node.Prod other
  | _ -> assert false);
  let vs = Check.dag (Session.table s) (Session.root s) in
  Alcotest.(check bool) "production flagged" true
    (List.mem "production" (violation_rules vs))

let test_sanitizer_rejects_duplicate_choice () =
  let s = parsed c_lang fig1 in
  let choice =
    find_node
      (fun n -> match n.Node.kind with Node.Choice _ -> true | _ -> false)
      (Session.root s)
  in
  (* Both interpretations now physically identical: no real ambiguity. *)
  choice.Node.kids.(1) <- choice.Node.kids.(0);
  let vs = Check.dag (Session.table s) (Session.root s) in
  Alcotest.(check bool) "choice flagged" true
    (List.mem "choice" (violation_rules vs))

let test_sanitizer_rejects_text_drift () =
  let s = parsed calc_lang "a = 1;\n" in
  let vs =
    Check.dag ~expect_text:"b = 1;\n" (Session.table s) (Session.root s)
  in
  Alcotest.(check bool) "text-yield flagged" true
    (List.mem "text-yield" (violation_rules vs))

let test_assert_dag_raises () =
  let s = parsed calc_lang "a = 1;\n" in
  let root = Session.root s in
  root.Node.tcount <- root.Node.tcount + 1;
  match Check.assert_dag (Session.table s) root with
  | () -> Alcotest.fail "expected Corrupt"
  | exception Check.Corrupt (_ :: _) -> ()
  | exception Check.Corrupt [] -> Alcotest.fail "empty violation list"

(* The session hook: the sanitizer runs after every parse that commits a
   tree.  Subscribing happens after [create], so the initial parse is
   checked explicitly and does not count. *)
let test_session_on_commit_hook () =
  let table = Language.table calc_lang in
  let calls = ref 0 in
  let s, outcome =
    Session.create ~table ~lexer:(Language.lexer calc_lang) "a = 1;\n"
  in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "initial parse failed");
  Check.assert_dag table (Session.root s);
  Session.on_commit s (fun ~watermark:_ root ->
      incr calls;
      Check.assert_dag table root);
  Session.edit s ~pos:4 ~del:1 ~insert:"42";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "reparse failed");
  Alcotest.(check int) "hook ran on the reparse" 1 !calls;
  (* A recovered parse that commits a tree (successful isolation) also
     invokes the hook — the sanitizer accepts error subtrees — so dag
     corruption is caught on damaged documents too. *)
  Session.edit s ~pos:6 ~del:1 ~insert:"";
  match Session.reparse s with
  | Session.Recovered { isolated; _ } ->
      if isolated > 0 then
        Alcotest.(check int) "hook ran on isolation" 2 !calls
      else Alcotest.(check int) "hook skipped on flag-only recovery" 1 !calls
  | Session.Parsed _ -> Alcotest.fail "expected recovery"

(* ------------------------------------------------------------------ *)
(* GSS sanitizer.                                                      *)

let dummy_label () = Node.make_term ~term:1 ~text:"x" ~trivia:"" ~lex_la:0

let test_gss_validate_ok () =
  let bottom = Iglr.Gss.make_node ~state:0 [] in
  let top =
    Iglr.Gss.make_node ~state:1
      [ Iglr.Gss.make_link ~head:bottom ~label:(dummy_label ()) ]
  in
  Alcotest.(check int) "sane GSS" 0
    (List.length (Iglr.Gss.validate ~num_states:4 [ top ]))

let test_gss_validate_duplicate_states () =
  let bottom = Iglr.Gss.make_node ~state:0 [] in
  let link () = Iglr.Gss.make_link ~head:bottom ~label:(dummy_label ()) in
  let a = Iglr.Gss.make_node ~state:2 [ link () ] in
  let b = Iglr.Gss.make_node ~state:2 [ link () ] in
  Alcotest.(check bool) "duplicate state flagged" true
    (Iglr.Gss.validate ~num_states:4 [ a; b ] <> [])

let test_gss_validate_cycle () =
  let a = Iglr.Gss.make_node ~state:1 [] in
  let b =
    Iglr.Gss.make_node ~state:2
      [ Iglr.Gss.make_link ~head:a ~label:(dummy_label ()) ]
  in
  Iglr.Gss.add_link a (Iglr.Gss.make_link ~head:b ~label:(dummy_label ()));
  Alcotest.(check bool) "cycle flagged" true
    (Iglr.Gss.validate ~num_states:4 [ b ] <> [])

let test_gss_validate_bad_state () =
  let n = Iglr.Gss.make_node ~state:99 [] in
  Alcotest.(check bool) "state bound flagged" true
    (Iglr.Gss.validate ~num_states:4 [ n ] <> [])

let suite =
  [
    Alcotest.test_case "lint: broken grammar, one diagnostic per defect"
      `Quick test_broken_grammar_diagnostics;
    Alcotest.test_case "lint: clean grammar" `Quick
      test_clean_grammar_has_no_diagnostics;
    Alcotest.test_case "lint: bundled languages are lint-clean" `Quick
      test_bundled_languages_lint_clean;
    Alcotest.test_case "conflicts: C subset explained" `Quick
      test_c_conflicts_explained;
    Alcotest.test_case "conflicts: lr2 is lexical" `Quick
      test_lr2_conflict_is_lexical;
    Alcotest.test_case "conflicts: ambiguous expr is prec-resolvable" `Quick
      test_ambig_expr_conflicts_prec_resolvable;
    Alcotest.test_case "conflicts: shortest sentence is minimal" `Quick
      test_shortest_sentence_minimal;
    Alcotest.test_case "sanitizer: accepts good dags" `Quick
      test_sanitizer_accepts_good_dags;
    Alcotest.test_case "sanitizer: rejects bad token count" `Quick
      test_sanitizer_rejects_bad_token_count;
    Alcotest.test_case "sanitizer: rejects broken parent" `Quick
      test_sanitizer_rejects_broken_parent;
    Alcotest.test_case "sanitizer: rejects bad state" `Quick
      test_sanitizer_rejects_bad_state;
    Alcotest.test_case "sanitizer: rejects corrupt production" `Quick
      test_sanitizer_rejects_corrupt_production;
    Alcotest.test_case "sanitizer: rejects duplicate choice" `Quick
      test_sanitizer_rejects_duplicate_choice;
    Alcotest.test_case "sanitizer: rejects text drift" `Quick
      test_sanitizer_rejects_text_drift;
    Alcotest.test_case "sanitizer: assert_dag raises Corrupt" `Quick
      test_assert_dag_raises;
    Alcotest.test_case "session: on_commit hook wiring" `Quick
      test_session_on_commit_hook;
    Alcotest.test_case "gss: validate ok" `Quick test_gss_validate_ok;
    Alcotest.test_case "gss: duplicate states" `Quick
      test_gss_validate_duplicate_states;
    Alcotest.test_case "gss: cycle" `Quick test_gss_validate_cycle;
    Alcotest.test_case "gss: bad state" `Quick test_gss_validate_bad_state;
  ]
