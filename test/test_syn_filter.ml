(* Tests for dynamic syntactic filters (§4.1, lib/core/syn_filter). *)

module Cfg = Grammar.Cfg
module Node = Parsedag.Node
module Pp = Parsedag.Pp
module Table = Lrtab.Table
module Glr = Iglr.Glr
module Syn_filter = Iglr.Syn_filter
module Session = Iglr.Session

let tokens_of g names =
  List.map
    (fun name ->
      { Lexgen.Scanner.term = Cfg.find_terminal g name; text = name;
        trivia = ""; lookahead = 0 })
    names

(* The ambiguous expression grammar without static precedence: filters do
   the whole disambiguation dynamically. *)
let ambig = Fixtures.ambig_expr_grammar ~with_prec:false ()
let ambig_table = lazy (Table.build ambig)

let parse names =
  let root, _ =
    Glr.parse_tokens (Lazy.force ambig_table) (tokens_of ambig names)
      ~trailing:""
  in
  root

let test_priority_filter () =
  let root = parse [ "id"; "+"; "id"; "*"; "id" ] in
  Alcotest.(check bool) "ambiguous before" true (Fixtures.count_choices root > 0);
  let r =
    Syn_filter.apply ambig
      [ Syn_filter.Production_priority [ ("+", 2); ("*", 1) ] ]
      root
  in
  Alcotest.(check int) "all filtered" 0 r.Syn_filter.remaining;
  Alcotest.(check int) "no choices left" 0 (Fixtures.count_choices root);
  (* Preferring "+" at the top means "*" binds tighter. *)
  Alcotest.(check string) "precedence shape"
    "(root (E (E \"id\") \"+\" (E (E \"id\") \"*\" (E \"id\"))))"
    (Pp.to_sexp ambig root)

let test_priority_tie_stays () =
  let root = parse [ "id"; "+"; "id"; "+"; "id" ] in
  let r =
    Syn_filter.apply ambig
      [ Syn_filter.Production_priority [ ("+", 1) ] ]
      root
  in
  (* Both interpretations have "+" at the top: a tie; the ambiguity is
     retained for later stages. *)
  Alcotest.(check int) "tie not filtered" 1 r.Syn_filter.remaining;
  Alcotest.(check int) "choice survives" 1 (Fixtures.count_choices root)

let test_custom_filter () =
  let root = parse [ "id"; "+"; "id"; "+"; "id" ] in
  (* Left associativity as a custom rule: prefer the alternative whose
     right operand is a plain id. *)
  let left_assoc _g (choice : Node.t) =
    let rec find i =
      if i >= Array.length choice.Node.kids then None
      else
        let alt = choice.Node.kids.(i) in
        if
          Array.length alt.Node.kids = 3
          && Node.token_count alt.Node.kids.(2) = 1
        then Some i
        else find (i + 1)
    in
    find 0
  in
  let r = Syn_filter.apply ambig [ Syn_filter.Custom left_assoc ] root in
  Alcotest.(check int) "filtered" 1 r.Syn_filter.filtered;
  Alcotest.(check string) "left associated"
    "(root (E (E (E \"id\") \"+\" (E \"id\")) \"+\" (E \"id\")))"
    (Pp.to_sexp ambig root)

let test_fewest_nodes_noop_on_equal () =
  let root = parse [ "id"; "+"; "id"; "*"; "id" ] in
  let r = Syn_filter.apply ambig [ Syn_filter.Fewest_nodes ] root in
  (* Both interpretations have the same size: undecided. *)
  Alcotest.(check int) "size tie retained" 1 r.Syn_filter.remaining

let test_prefer_production_cpp () =
  (* The C++ prefer-declaration rule as a syntactic filter on the C++
     subset: "t (x);" keeps only the declaration reading. *)
  let lang = Languages.Cpp_subset.language in
  let s, outcome =
    Fixtures.filtered_session
      ~table:(Languages.Language.conflict_table lang)
      ~lexer:(Languages.Language.lexer lang)
      [ Syn_filter.Prefer_production "decl" ]
      "int f () { t (x); }"
  in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "parse failed");
  Alcotest.(check int) "choice spliced out" 0
    (Fixtures.count_choices (Session.root s));
  (* The surviving statement is the declaration. *)
  let has_decl = ref false in
  Node.iter
    (fun n ->
      match n.Node.kind with
      | Node.Prod p ->
          let prod = Cfg.production lang.Languages.Language.grammar p in
          if
            String.equal
              (Cfg.nonterminal_name lang.Languages.Language.grammar prod.lhs)
              "decl"
          then has_decl := true
      | _ -> ())
    (Session.root s);
  Alcotest.(check bool) "declaration reading kept" true !has_decl

let test_filter_after_reparse () =
  (* The filter must re-run when an edit reconstructs the region. *)
  let lang = Languages.Cpp_subset.language in
  let s, _ =
    Fixtures.filtered_session
      ~table:(Languages.Language.conflict_table lang)
      ~lexer:(Languages.Language.lexer lang)
      [ Syn_filter.Prefer_production "decl" ]
      "int f () { t (x); }"
  in
  Session.edit s ~pos:13 ~del:1 ~insert:"u";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "reparse failed");
  Alcotest.(check int) "still filtered after reconstruction" 0
    (Fixtures.count_choices (Session.root s))

let test_idempotent () =
  let root = parse [ "id"; "+"; "id"; "*"; "id" ] in
  let rules = [ Syn_filter.Production_priority [ ("+", 2); ("*", 1) ] ] in
  ignore (Syn_filter.apply ambig rules root);
  let r2 = Syn_filter.apply ambig rules root in
  Alcotest.(check int) "second run finds nothing" 0 r2.Syn_filter.examined

let suite =
  [
    Alcotest.test_case "operator priorities" `Quick test_priority_filter;
    Alcotest.test_case "priority ties retained" `Quick test_priority_tie_stays;
    Alcotest.test_case "custom rule" `Quick test_custom_filter;
    Alcotest.test_case "fewest-nodes tie" `Quick test_fewest_nodes_noop_on_equal;
    Alcotest.test_case "prefer-decl (C++)" `Quick test_prefer_production_cpp;
    Alcotest.test_case "filter re-runs after reparse" `Quick
      test_filter_after_reparse;
    Alcotest.test_case "idempotent" `Quick test_idempotent;
  ]
