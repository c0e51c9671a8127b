(* Tests for the static ambiguity analyzer (Analyze.Ambig): soundness of
   witnesses against the Earley oracle, certification of unambiguous
   grammars, golden filter-coverage tables for the bundled languages, and
   budget enforcement. *)

module Cfg = Grammar.Cfg
module Table = Lrtab.Table
module Ambig = Analyze.Ambig
module Language = Languages.Language
module Yield = Grammar.Yield

let languages =
  [
    ("calc", Languages.Calc.language);
    ("c", Languages.C_subset.language);
    ("cpp", Languages.Cpp_subset.language);
    ("lr2", Languages.Lr2.language);
  ]

let analyze_lang lang =
  ( Ambig.analyze (Analyze.Of_language.ambig lang),
    Analyze.Of_language.budget lang )

(* ------------------------------------------------------------------ *)
(* Soundness: every reported witness is genuinely ambiguous.           *)

(* Re-verify each witness independently: the raw grammar must give the
   sentence at least two derivations under the Earley oracle.  (The
   analyzer itself only reports witnesses it confirmed, so this guards
   the confirmation logic against regressions.) *)
let test_witnesses_sound () =
  List.iter
    (fun (name, lang) ->
      let report, _ = analyze_lang lang in
      let g = lang.Language.grammar in
      List.iter
        (fun (k : Ambig.klass) ->
          match k.Ambig.k_witness with
          | None -> ()
          | Some w ->
              let terms =
                Array.of_list (List.map fst w.Ambig.w_tokens)
              in
              let count = Earley.count_derivations g terms in
              if count < 2 then
                Alcotest.failf "%s/%s: witness %S has %d derivation(s)" name
                  k.Ambig.k_name w.Ambig.w_text count)
        report.Ambig.r_classes)
    languages

(* A conflict-free table certifies the grammar unambiguous: nothing is
   flagged and no classes are reported. *)
let test_conflict_free_grammar_clean () =
  let g = Fixtures.expr_grammar () in
  let table = Table.build g in
  Alcotest.(check int) "no conflicts" 0 (List.length (Table.conflicts table));
  let report = Ambig.analyze (Ambig.config table) in
  Alcotest.(check (list int)) "nothing flagged" [] report.Ambig.r_flagged;
  Alcotest.(check int) "no classes" 0 (List.length report.Ambig.r_classes)

(* lr2 is LR(2) but unambiguous: the pair automaton must certify its
   reduce/reduce conflict unrealizable, leaving nothing flagged. *)
let test_lr2_certified_unambiguous () =
  let report, budget = analyze_lang Languages.Lr2.language in
  Alcotest.(check (list int)) "nothing flagged" [] report.Ambig.r_flagged;
  (match report.Ambig.r_classes with
  | [ k ] ->
      Alcotest.(check bool) "not realizable" false k.Ambig.k_realizable;
      Alcotest.(check string)
        "resolved statically" "resolved-static"
        (Ambig.resolution_name k.Ambig.k_resolution)
  | ks -> Alcotest.failf "expected one class, got %d" (List.length ks));
  Alcotest.(check (list string))
    "budget holds" []
    (Ambig.check_budget budget report)

(* ------------------------------------------------------------------ *)
(* Golden coverage tables.                                             *)

let coverage report =
  List.map
    (fun (k : Ambig.klass) ->
      (k.Ambig.k_name, Ambig.resolution_name k.Ambig.k_resolution))
    (List.sort
       (fun (a : Ambig.klass) b -> compare a.Ambig.k_name b.Ambig.k_name)
       report.Ambig.r_classes)

(* Calc's precedence declarations kill every ambiguity statically. *)
let test_calc_all_static () =
  let report, budget = analyze_lang Languages.Calc.language in
  Alcotest.(check int) "no unresolved" 0
    (List.length (Ambig.unresolved report));
  List.iter
    (fun (name, res) ->
      Alcotest.(check string) (name ^ " resolution") "resolved-static" res)
    (coverage report);
  Alcotest.(check (list string))
    "budget holds" []
    (Ambig.check_budget budget report)

(* The C/C++ coverage table the paper's pipeline implies: the typedef
   (lexical) class resolves semantically with a concrete witness, the
   retained call-vs-operator shift/reduce classes resolve via the
   dynamic operator-priority filter, everything else statically. *)
let check_clike name lang =
  let report, budget = analyze_lang lang in
  Alcotest.(check int)
    (name ^ " no unresolved")
    0
    (List.length (Ambig.unresolved report));
  let lexical =
    List.filter
      (fun (k : Ambig.klass) ->
        String.length k.Ambig.k_name >= 8
        && String.sub k.Ambig.k_name 0 8 = "lexical:")
      report.Ambig.r_classes
  in
  (match lexical with
  | [ k ] ->
      Alcotest.(check string)
        (name ^ " typedef class") "resolved-semantic"
        (Ambig.resolution_name k.Ambig.k_resolution);
      (match k.Ambig.k_witness with
      | Some w ->
          Alcotest.(check bool)
            (name ^ " witness nonempty")
            true
            (String.length w.Ambig.w_text > 0)
      | None -> Alcotest.failf "%s: typedef class has no witness" name)
  | ks -> Alcotest.failf "%s: expected one lexical class, got %d" name
            (List.length ks));
  List.iter
    (fun ((cname, res) : string * string) ->
      if String.length cname >= 3 && String.sub cname 0 3 = "sr:" then
        Alcotest.(check string) (name ^ " " ^ cname) "resolved-syntactic" res)
    (coverage report);
  Alcotest.(check (list string))
    (name ^ " budget holds")
    []
    (Ambig.check_budget budget report)

let test_c_coverage () = check_clike "c" Languages.C_subset.language
let test_cpp_coverage () = check_clike "cpp" Languages.Cpp_subset.language

(* ------------------------------------------------------------------ *)
(* Filter-coverage stages on the fixture grammar.                      *)

(* The bare ambiguous expression grammar retains unresolved classes; the
   same grammar with precedence declarations resolves all of them
   statically; a dynamic operator-priority filter resolves the
   mixed-operator class syntactically even without precedence. *)
let test_expr_grammar_stages () =
  let bare = Table.build (Fixtures.ambig_expr_grammar ~with_prec:false ()) in
  let bare_report = Ambig.analyze (Ambig.config bare) in
  Alcotest.(check bool)
    "bare grammar has unresolved classes" true
    (Ambig.unresolved bare_report <> []);
  let prec = Table.build (Fixtures.ambig_expr_grammar ~with_prec:true ()) in
  let prec_report = Ambig.analyze (Ambig.config prec) in
  Alcotest.(check int)
    "precedence resolves all" 0
    (List.length (Ambig.unresolved prec_report));
  let filtered =
    Ambig.analyze
      (Ambig.config
         ~syn_filters:
           [ Iglr.Syn_filter.Production_priority [ ("+", 60); ("*", 50) ] ]
         bare)
  in
  let mixed =
    List.filter
      (fun (k : Ambig.klass) -> List.length (List.sort_uniq compare k.Ambig.k_prods) >= 2)
      filtered.Ambig.r_classes
  in
  Alcotest.(check bool) "has mixed-operator classes" true (mixed <> []);
  List.iter
    (fun (k : Ambig.klass) ->
      Alcotest.(check string)
        (k.Ambig.k_name ^ " via filter")
        "resolved-syntactic"
        (Ambig.resolution_name k.Ambig.k_resolution))
    mixed

(* ------------------------------------------------------------------ *)
(* Budget drift.                                                       *)

let test_budget_drift_fails () =
  let bare = Table.build (Fixtures.ambig_expr_grammar ~with_prec:false ()) in
  let report = Ambig.analyze (Ambig.config bare) in
  (* Unresolved classes exceed a zero budget. *)
  let vs =
    Ambig.check_budget { Ambig.b_max_unresolved = 0; b_expect = [] } report
  in
  Alcotest.(check bool) "unresolved over budget" true (vs <> []);
  (* A class resolving differently than expected is a violation. *)
  let lr2_report, _ = analyze_lang Languages.Lr2.language in
  let vs =
    Ambig.check_budget
      {
        Ambig.b_max_unresolved = 0;
        b_expect = [ ("lexical:", "resolved-semantic") ];
      }
      lr2_report
  in
  Alcotest.(check bool) "wrong resolution flagged" true (vs <> []);
  (* A prefix matching no class at all is a violation too. *)
  let vs =
    Ambig.check_budget
      {
        Ambig.b_max_unresolved = 0;
        b_expect = [ ("nonexistent:", "resolved-static") ];
      }
      lr2_report
  in
  Alcotest.(check bool) "missing prefix flagged" true (vs <> [])

(* ------------------------------------------------------------------ *)
(* JSON envelopes.                                                     *)

let member_string key = function
  | Some (Metrics.Json.Obj fields) -> (
      match List.assoc_opt key fields with
      | Some (Metrics.Json.String s) -> Some s
      | _ -> None)
  | _ -> None

let test_json_envelopes () =
  let report, _ = analyze_lang Languages.C_subset.language in
  let j = Ambig.to_json ~language:"c" report in
  Alcotest.(check (option string))
    "ambig schema" (Some "iglr-analysis/1")
    (member_string "schema" (Some j));
  Alcotest.(check (option string))
    "ambig tool" (Some "ambig")
    (member_string "tool" (Some j));
  let table = Language.conflict_table Languages.C_subset.language in
  let lj = Analyze.Lint.to_json table (Analyze.Lint.run table) in
  Alcotest.(check (option string))
    "lint schema" (Some "iglr-analysis/1")
    (member_string "schema" (Some lj));
  Alcotest.(check (option string))
    "lint tool" (Some "lint")
    (member_string "tool" (Some lj))

(* ------------------------------------------------------------------ *)
(* Sentence generation (Grammar.Yield).                                *)

(* Every enumerated sentence is derivable (Earley >= 1), within the
   bound, and the list is shortlex-sorted and duplicate-free. *)
let test_yield_enumerate_sound () =
  let g = Languages.Calc.language.Language.grammar in
  let sentences = Yield.enumerate g ~from:(Cfg.start g) ~max_len:4 in
  Alcotest.(check bool) "nonempty" true (sentences <> []);
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        let la = List.length a and lb = List.length b in
        (la < lb || (la = lb && compare a b < 0)) && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "shortlex sorted, no dups" true (sorted sentences);
  List.iter
    (fun s ->
      Alcotest.(check bool) "within bound" true (List.length s <= 4);
      let count = Earley.count_derivations g (Array.of_list s) in
      if count < 1 then
        Alcotest.failf "underivable sentence of length %d" (List.length s))
    sentences

(* Every occurrence context wrapped around a shortest yield of the
   nonterminal forms a derivable sentence. *)
let test_yield_contexts_sound () =
  let g = Languages.C_subset.language.Language.grammar in
  let yields = Yield.shortest_yields g in
  for nt = 0 to Cfg.num_nonterminals g - 1 do
    match yields (Cfg.N nt) with
    | None -> ()
    | Some y ->
        List.iter
          (fun { Yield.pre; post } ->
            let s = Array.of_list (pre @ y @ post) in
            let count = Earley.count_derivations g s in
            if count < 1 then
              Alcotest.failf "context of %s yields underivable sentence"
                (Cfg.nonterminal_name g nt))
          (Yield.occurrence_contexts ~max_count:8 g nt)
  done

let suite =
  [
    ("witnesses-sound", `Slow, test_witnesses_sound);
    ("conflict-free-clean", `Quick, test_conflict_free_grammar_clean);
    ("lr2-certified", `Quick, test_lr2_certified_unambiguous);
    ("calc-all-static", `Quick, test_calc_all_static);
    ("c-coverage", `Slow, test_c_coverage);
    ("cpp-coverage", `Slow, test_cpp_coverage);
    ("expr-grammar-stages", `Quick, test_expr_grammar_stages);
    ("budget-drift-fails", `Quick, test_budget_drift_fails);
    ("json-envelopes", `Quick, test_json_envelopes);
    ("yield-enumerate-sound", `Quick, test_yield_enumerate_sound);
    ("yield-contexts-sound", `Slow, test_yield_contexts_sound);
  ]
