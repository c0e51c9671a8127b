(* Tests for static filter compilation (Lrtab.Compile) and its
   whole-language wrapper with the soundness certifier
   (Analyze.Filtcomp): golden verdict tables for every bundled
   language, table-rewrite invariants, certificate round-trips,
   compiled-vs-dynamic dag equality on the Appendix-B goldens, and the
   zero-residual guarantee observed through the metrics layer. *)

module Cfg = Grammar.Cfg
module Table = Lrtab.Table
module Compile = Lrtab.Compile
module Filtcomp = Analyze.Filtcomp
module Of_language = Analyze.Of_language
module Language = Languages.Language
module Session = Iglr.Session
module Syn_filter = Iglr.Syn_filter
module Json = Metrics.Json

let languages = Languages.Registry.all

(* ------------------------------------------------------------------ *)
(* Golden classification tables.                                       *)

(* Every bundled language must compile to an EMPTY residual set: the
   clike operator-priority rule folds into the table (7 decisions), and
   no other language declares dynamic filters.  A grammar change that
   pushes a rule back to the dynamic path shows up here (and in the
   committed certificates). *)
let golden =
  (* language, (rule-name, verdict) list, decision count, surviving *)
  [
    ("calc", [], 0, 0);
    ("tiny", [], 0, 0);
    ("c", [ ("production-priority", "compiled") ], 7, 2);
    ("cpp", [ ("production-priority", "compiled") ], 7, 2);
    ("lr2", [], 0, 1);
    ("modula2", [], 0, 0);
    ("lisp", [], 0, 0);
    ("java", [], 0, 0);
  ]

let test_golden_verdicts () =
  List.iter
    (fun (name, lang) ->
      let verdicts, decisions, surviving =
        let _, v, d, s = List.find (fun (n, _, _, _) -> n = name) golden in
        (v, d, s)
      in
      let report = Filtcomp.analyze (Of_language.filtcomp lang) in
      let r = report.Filtcomp.r_result in
      Alcotest.(check (list (pair string string)))
        (name ^ " verdicts") verdicts report.Filtcomp.r_verdicts;
      Alcotest.(check int)
        (name ^ " decisions") decisions
        (List.length r.Compile.decisions);
      Alcotest.(check int)
        (name ^ " surviving conflicts") surviving
        (List.length r.Compile.surviving);
      Alcotest.(check (list int)) (name ^ " residual") [] r.Compile.residual;
      Alcotest.(check (list string))
        (name ^ " violations") [] report.Filtcomp.r_violations;
      Alcotest.(check (list int))
        (name ^ " language residual") []
        (Language.compiled lang).Compile.residual)
    languages

(* ------------------------------------------------------------------ *)
(* Table-rewrite invariants.                                           *)

(* Each compiled decision's (state, terminal) entry must become the
   singleton chosen action; every other entry must be untouched; the
   conflict list must shrink by exactly the decided sites. *)
let test_table_rewrite () =
  let lang = Languages.C_subset.language in
  let dyn = Language.conflict_table lang in
  let result = Language.compiled lang in
  let comp = result.Compile.table in
  Alcotest.(check int)
    "conflicts removed"
    (List.length (Table.conflicts dyn) - List.length result.Compile.decisions)
    (List.length (Table.conflicts comp));
  let decided = Hashtbl.create 16 in
  List.iter
    (fun (d : Compile.decision) ->
      Hashtbl.replace decided (d.Compile.d_state, d.Compile.d_term) ();
      Alcotest.(check bool)
        (Printf.sprintf "state %d singleton" d.Compile.d_state)
        true
        (Table.actions comp ~state:d.Compile.d_state ~term:d.Compile.d_term
        = [ d.Compile.d_action ]))
    result.Compile.decisions;
  for state = 0 to Table.num_states dyn - 1 do
    for term = 0 to Cfg.num_terminals (Table.grammar dyn) - 1 do
      if not (Hashtbl.mem decided (state, term)) then
        if
          Table.actions dyn ~state ~term <> Table.actions comp ~state ~term
        then
          Alcotest.failf "undecided entry (%d, %d) changed" state term
    done
  done

(* [Table.with_overrides] must refuse an action that is not already a
   member of the conflicted entry — compilation may only narrow. *)
let test_with_overrides_narrowing () =
  let lang = Languages.C_subset.language in
  let dyn = Language.conflict_table lang in
  match Table.conflicts dyn with
  | [] -> Alcotest.fail "expected conflicts in the clike table"
  | c :: _ ->
      let state = c.Table.c_state and term = c.Table.c_term in
      let foreign = Table.Shift 100_000 in
      Alcotest.check_raises "foreign action rejected"
        (Invalid_argument
           (Printf.sprintf
              "Table.with_overrides: state %d on %s: chosen action absent \
               from entry"
              state
              (Cfg.terminal_name (Table.grammar dyn) term)))
        (fun () -> ignore (Table.with_overrides dyn [ ((state, term), foreign) ]))

(* ------------------------------------------------------------------ *)
(* Certificates.                                                       *)

(* The certificate JSON is deterministic (analyze twice, byte-equal) and
   survives a parse round-trip — the properties `iglrc filtcomp --check`
   relies on for structural comparison against the committed files. *)
let test_certificate_roundtrip () =
  List.iter
    (fun (name, lang) ->
      let certificate () =
        Filtcomp.to_json (Filtcomp.analyze (Of_language.filtcomp lang))
      in
      let j1 = certificate () and j2 = certificate () in
      Alcotest.(check bool) (name ^ " deterministic") true (j1 = j2);
      Alcotest.(check bool)
        (name ^ " round-trips") true
        (Json.of_string (Json.to_string j1) = j1))
    languages

(* Full certification for the language with the richest filter story:
   clike must pass all four checks (Earley oracle, differential corpus,
   mutation fuzz, budget comparison).  The remaining languages are
   certified by @filtcomp-smoke against the committed certificates. *)
let test_certify_clike () =
  let report =
    Filtcomp.certify (Of_language.filtcomp Languages.C_subset.language)
  in
  Alcotest.(check (list string)) "no violations" [] report.Filtcomp.r_violations;
  List.iter
    (fun (c : Filtcomp.check) ->
      if not c.Filtcomp.c_pass then
        Alcotest.failf "check %s failed: %s" c.Filtcomp.c_name
          c.Filtcomp.c_detail)
    report.Filtcomp.r_checks;
  Alcotest.(check bool) "four checks ran" true
    (List.map (fun c -> c.Filtcomp.c_name) report.Filtcomp.r_checks
    = [ "oracle"; "corpus"; "fuzz"; "budget" ]);
  Alcotest.(check bool) "certified" true (Filtcomp.certified report)

(* ------------------------------------------------------------------ *)
(* Compiled-vs-dynamic equality on the Appendix-B golden.              *)

let appendix_b =
  "typedef int a;\nint foo () { int i; a (b); c (d); i = 1; }\n"

let sexp_of lang (s, outcome) text =
  match outcome with
  | Session.Parsed _ ->
      Parsedag.Pp.to_sexp lang.Language.grammar (Session.root s)
  | Session.Recovered _ -> Alcotest.failf "fixture rejected: %S" text

(* The dynamic pipeline: the conflict-retaining table with the declared
   filters applied to every committed tree. *)
let dynamic_sexp lang text = sexp_of lang (Fixtures.dynamic_session lang text) text

(* The production pipeline: the filter-compiled table, no filter. *)
let compiled_session lang text =
  Session.create ~table:(Language.table lang) ~lexer:(Language.lexer lang) text

let compiled_sexp lang text = sexp_of lang (compiled_session lang text) text

(* A text that reaches the compiled sites (call-vs-binop on '('). *)
let firing = "int foo () { int i; i = b (1) + c (2) * d (3); }\n"

let clike =
  [ ("c", Languages.C_subset.language); ("cpp", Languages.Cpp_subset.language) ]

let test_appendix_b_differential () =
  List.iter
    (fun (name, lang) ->
      Alcotest.(check string)
        (name ^ " appendix B dag")
        (dynamic_sexp lang appendix_b)
        (compiled_sexp lang appendix_b);
      (* The dynamic rule must actually fire on the firing text —
         otherwise the differential is vacuous — and the compiled table
         must still agree. *)
      let report =
        Syn_filter.apply lang.Language.grammar
          lang.Language.ambig.Language.syn_filters
          (let s, _ =
             Session.create
               ~table:(Language.conflict_table lang)
               ~lexer:(Language.lexer lang) firing
           in
           Session.root s)
      in
      Alcotest.(check bool)
        (name ^ " firing text is filter-relevant") true
        (report.Syn_filter.filtered > 0);
      Alcotest.(check string)
        (name ^ " firing-text dag")
        (dynamic_sexp lang firing) (compiled_sexp lang firing))
    clike

(* [Language.table] is what every tool and the daemon parse on, so a
   parse on it is already syntactically disambiguated: the firing text
   leaves no choice node and reads as the dynamic pipeline does. *)
let test_production_table_disambiguates () =
  List.iter
    (fun (name, lang) ->
      let s, _ = compiled_session lang firing in
      Alcotest.(check int)
        (name ^ " no choice nodes") 0
        (Fixtures.count_choices (Session.root s));
      Alcotest.(check string)
        (name ^ " production dag = dynamic dag")
        (dynamic_sexp lang firing)
        (Parsedag.Pp.to_sexp lang.Language.grammar (Session.root s)))
    clike

(* ------------------------------------------------------------------ *)
(* Zero-residual guarantee, observed through the metrics layer.        *)

(* With an empty residual set, a session on the compiled table never
   reaches Syn_filter.apply. *)
let test_zero_apply_calls () =
  List.iter
    (fun (name, lang, text) ->
      Alcotest.(check (list int))
        (name ^ " empty residual set") []
        (Language.compiled lang).Compile.residual;
      let before = Metrics.snapshot () in
      let s, outcome = compiled_session lang text in
      (match outcome with
      | Session.Parsed _ -> ()
      | Session.Recovered _ -> Alcotest.failf "%s fixture rejected" name);
      Session.edit s ~pos:0 ~del:0 ~insert:" ";
      (match Session.reparse s with
      | Session.Parsed _ -> ()
      | Session.Recovered _ -> Alcotest.failf "%s reparse rejected" name);
      let d = Metrics.diff (Metrics.snapshot ()) before in
      Alcotest.(check int)
        (name ^ " zero Syn_filter.apply calls") 0
        (Metrics.count d "filter.apply_calls"))
    [
      ("calc", Languages.Calc.language, "v = (1 + 2) * x / 3;");
      ("lr2", Languages.Lr2.language, "x z c");
      ("c", Languages.C_subset.language, appendix_b);
    ]

(* ------------------------------------------------------------------ *)
(* Dead-filter lint.                                                   *)

(* A rule that can never resolve anything — here a prefer-production
   naming a nonterminal no conflicted alternative starts with, on a
   table whose only conflicts the rule declines deterministically —
   must surface as a Dead_filter warning with the rule's name. *)
let test_dead_filter_lint () =
  let lang = Languages.C_subset.language in
  let table = Language.conflict_table lang in
  let rules = [ Syn_filter.Prefer_production "declarator" ] in
  let specs = List.map Language.spec_of_rule rules in
  match Filtcomp.lint_rules table ~rules ~specs with
  | [ (Analyze.Lint.Dead_filter { rule; _ } as diag) ] ->
      Alcotest.(check string) "rule name" "prefer-production:declarator" rule;
      Alcotest.(check bool)
        "warning severity" true
        (Analyze.Lint.severity diag = Analyze.Lint.Warning)
  | ds -> Alcotest.failf "expected one Dead_filter, got %d" (List.length ds)

(* A live rule must NOT be flagged. *)
let test_live_filter_not_flagged () =
  let lang = Languages.C_subset.language in
  let table = Language.conflict_table lang in
  let rules = lang.Language.ambig.Language.syn_filters in
  let specs = List.map Language.spec_of_rule rules in
  Alcotest.(check int)
    "no dead-filter diagnostics" 0
    (List.length (Filtcomp.lint_rules table ~rules ~specs))

(* ------------------------------------------------------------------ *)
(* Opaque rules stay residual and trip the budget.                     *)

let test_opaque_residual () =
  let lang = Languages.C_subset.language in
  let spec = lang.Language.ambig in
  let rules = [ Syn_filter.Fewest_nodes ] in
  (* C with an opaque rule in place of its own, unannotated, under a
     residual budget of [max_residual]. *)
  let opaque max_residual =
    Of_language.filtcomp
      (Language.make ~name:"c" ~grammar:lang.Language.grammar
         ~ambig:
           {
             spec with
             Language.syn_filters = rules;
             filter_expect = [];
             max_residual;
           }
         ~rules:[] ())
  in
  let strict = Filtcomp.analyze (opaque 0) in
  Alcotest.(check (list (pair string string)))
    "opaque rule stays residual"
    [ ("fewest-nodes", "residual") ]
    strict.Filtcomp.r_verdicts;
  Alcotest.(check bool)
    "budget violation reported" true
    (strict.Filtcomp.r_violations <> []);
  let relaxed = Filtcomp.analyze (opaque 1) in
  Alcotest.(check (list string))
    "budget of one admits it" [] relaxed.Filtcomp.r_violations;
  (* Every parse runs on [Language.table], so a bundle whose rules do
     not all compile has no table to parse on. *)
  let residual_lang =
    Language.make ~name:"c-residual" ~grammar:lang.Language.grammar
      ~ambig:{ spec with Language.syn_filters = rules } ~rules:[] ()
  in
  Alcotest.check_raises "Language.table refuses a residual rule"
    (Invalid_argument
       "Language.table: c-residual leaves 1 disambiguation rule(s) residual")
    (fun () -> ignore (Language.table residual_lang))

let suite =
  [
    Alcotest.test_case "golden verdict tables (all languages)" `Quick
      test_golden_verdicts;
    Alcotest.test_case "table rewrite narrows decided entries only" `Quick
      test_table_rewrite;
    Alcotest.test_case "with_overrides rejects foreign actions" `Quick
      test_with_overrides_narrowing;
    Alcotest.test_case "certificates are deterministic and round-trip" `Quick
      test_certificate_roundtrip;
    Alcotest.test_case "clike certifies (oracle/corpus/fuzz/budget)" `Slow
      test_certify_clike;
    Alcotest.test_case "appendix B: compiled dag = dynamic dag" `Quick
      test_appendix_b_differential;
    Alcotest.test_case "production table parses disambiguated" `Quick
      test_production_table_disambiguates;
    Alcotest.test_case "compiled pipeline makes zero apply calls" `Quick
      test_zero_apply_calls;
    Alcotest.test_case "dead filter lints with a warning" `Quick
      test_dead_filter_lint;
    Alcotest.test_case "live filter is not flagged dead" `Quick
      test_live_filter_not_flagged;
    Alcotest.test_case "opaque rules stay residual under the budget" `Quick
      test_opaque_residual;
  ]
