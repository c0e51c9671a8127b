(* Local error isolation and resource-bounded parsing.

   The tentpole invariants under test:

   - a syntax error is confined to the smallest enclosing isolation unit
     (a statement-level sequence element): the damaged run is wrapped in
     an explicit error node, the rest of the document reparses and
     reuses normally, and the committed tree passes the dag sanitizer
     (which knows the error-subtree rules);
   - flagged regions are re-offered on later edits and the session
     converges back to a clean, batch-identical parse once the text is
     repaired;
   - resource budgets (max parsers / max nodes / deadline) degrade
     deterministically — every reparse terminates with an outcome, never
     an uncaught exception. *)

module Session = Iglr.Session
module Glr = Iglr.Glr
module Node = Parsedag.Node
module Language = Languages.Language
module Check = Analyze.Check

let calc = Languages.Calc.language
let clang = Languages.C_subset.language

let base_calc =
  String.concat "\n"
    (List.init 12 (fun i -> Printf.sprintf "v%d = (1%d + 2) * x%d / 3;" i i i))
  ^ "\n"

let make ?budget lang text =
  Session.create ?budget ~table:(Language.table lang)
    ~lexer:(Language.lexer lang) text

(* From-scratch oracle, as in the differential fuzzer. *)
let batch_sexp lang text =
  let tokens, trailing = Lexgen.Scanner.all (Language.lexer lang) text in
  let root, _ = Glr.parse_tokens (Language.table lang) tokens ~trailing in
  Parsedag.Pp.to_sexp lang.Language.grammar root

let assert_sane ?allow_pending lang s =
  Check.assert_dag ?allow_pending ~expect_text:(Session.text s)
    (Language.table lang) (Session.root s)

type rec_info = {
  flagged : int;
  isolated : int;
  degraded : bool;
  error : Glr.error;
  location : Session.location;
}

let recovered = function
  | Session.Recovered { flagged; isolated; degraded; error; location } ->
      { flagged; isolated; degraded; error; location }
  | Session.Parsed _ -> Alcotest.fail "expected a recovered outcome"

let parsed = function
  | Session.Parsed st -> st
  | Session.Recovered _ -> Alcotest.fail "expected a clean parse"

(* Byte offset of the [n]-th (0-based) occurrence of [sub] in [text]. *)
let pos_of text sub n =
  let rec go from n =
    let i = Str.search_forward (Str.regexp_string sub) text from in
    if n = 0 then i else go (i + 1) (n - 1)
  in
  go 0 n

let count_error_nodes root =
  let c = ref 0 in
  Node.iter
    (fun (n : Node.t) ->
      match n.Node.kind with Node.Error _ -> incr c | _ -> ())
    root;
  !c

(* Break statement [i] of [base_calc] by injecting an invalid token run
   after its "=" sign. *)
let break_stmt s i =
  let p = pos_of (Session.text s) "=" i in
  Session.edit s ~pos:(p + 1) ~del:0 ~insert:" ) ("

(* --- isolation ---------------------------------------------------- *)

let test_isolate_one_statement () =
  let s, o0 = make calc base_calc in
  ignore (parsed o0);
  break_stmt s 5;
  let r = recovered (Session.reparse s) in
  Alcotest.(check bool) "isolated" true (r.isolated >= 1);
  Alcotest.(check bool) "damage confined to one statement" true
    (r.flagged <= 14);
  Alcotest.(check bool) "has_errors" true (Session.has_errors s);
  assert_sane calc s

let test_error_node_shape () =
  let s, _ = make calc base_calc in
  break_stmt s 5;
  let r = recovered (Session.reparse s) in
  Alcotest.(check int) "one error node per region" r.isolated
    (count_error_nodes (Session.root s));
  Node.iter
    (fun (n : Node.t) ->
      match n.Node.kind with
      | Node.Error _ ->
          Alcotest.(check bool) "error kids are terminals" true
            (Array.for_all
               (fun (k : Node.t) ->
                 match k.Node.kind with Node.Term _ -> true | _ -> false)
               n.Node.kids);
          Alcotest.(check bool) "error flag set" true n.Node.error
      | _ -> ())
    (Session.root s)

let test_location_line_col () =
  let s, _ = make calc base_calc in
  break_stmt s 5;
  let r = recovered (Session.reparse s) in
  (* The broken statement is on line 6 (1-based); both the outcome
     location and the reported region must land there. *)
  Alcotest.(check int) "error line" 6 r.location.Session.line;
  match Session.error_regions s with
  | [ reg ] ->
      Alcotest.(check int) "region line" 6 reg.Session.r_start.Session.line;
      Alcotest.(check int) "region col" 1 reg.Session.r_start.Session.col;
      Alcotest.(check int) "region tokens" r.flagged reg.Session.r_tokens;
      Alcotest.(check bool) "byte span ordered" true
        (reg.Session.r_start.Session.offset_bytes < reg.Session.r_end_byte)
  | rs -> Alcotest.failf "expected 1 region, got %d" (List.length rs)

let test_error_at_eof () =
  let s, _ = make calc base_calc in
  (* Drop the final ";": the error is only detectable at end of input. *)
  let p = pos_of (Session.text s) ";" 11 in
  Session.edit s ~pos:p ~del:1 ~insert:"";
  let r = recovered (Session.reparse s) in
  Alcotest.(check bool) "reported near eof" true
    (r.error.Glr.offset_tokens >= 12 * 11);
  Alcotest.(check bool) "regions reported" true
    (Session.error_regions s <> []);
  (* Repair converges. *)
  Session.edit s ~pos:(String.length (Session.text s) - 1) ~del:0 ~insert:";";
  ignore (parsed (Session.reparse s));
  Alcotest.(check int) "no regions after repair" 0
    (List.length (Session.error_regions s));
  assert_sane calc s

let test_adjacent_regions_merge () =
  let s, _ = make calc base_calc in
  break_stmt s 5;
  break_stmt s 6;
  let r = recovered (Session.reparse s) in
  Alcotest.(check bool) "isolated" true (r.isolated >= 1);
  assert_sane calc s;
  Alcotest.(check bool) "both lines damaged" true (r.flagged >= 2)

let test_two_distant_regions () =
  let s, _ = make calc base_calc in
  break_stmt s 2;
  break_stmt s 9;
  let r = recovered (Session.reparse s) in
  Alcotest.(check int) "two isolated regions" 2 r.isolated;
  let regions = Session.error_regions s in
  Alcotest.(check int) "two reported regions" 2 (List.length regions);
  (match regions with
  | [ a; b ] ->
      Alcotest.(check bool) "regions in source order" true
        (a.Session.r_start.Session.offset_bytes
        < b.Session.r_start.Session.offset_bytes)
  | _ -> assert false);
  assert_sane calc s

let test_edit_inside_region_converges () =
  let s, _ = make calc base_calc in
  break_stmt s 5;
  ignore (recovered (Session.reparse s));
  (* Remove the injected garbage: the session must converge to a clean,
     batch-identical parse. *)
  let p = pos_of (Session.text s) ") (" 0 in
  Session.edit s ~pos:p ~del:3 ~insert:"";
  ignore (parsed (Session.reparse s));
  Alcotest.(check bool) "has_errors cleared" false (Session.has_errors s);
  Alcotest.(check int) "no regions" 0 (List.length (Session.error_regions s));
  Alcotest.(check int) "no error nodes" 0
    (count_error_nodes (Session.root s));
  Alcotest.(check string) "batch-identical"
    (batch_sexp calc (Session.text s))
    (Parsedag.Pp.to_sexp calc.Language.grammar (Session.root s))

let test_edit_outside_region_keeps_error () =
  let s, _ = make calc base_calc in
  break_stmt s 2;
  ignore (recovered (Session.reparse s));
  (* A distant edit integrates normally; the flagged region persists with
     a stable span. *)
  let p = pos_of (Session.text s) "3;" 10 in
  Session.edit s ~pos:p ~del:1 ~insert:"777";
  let r = recovered (Session.reparse s) in
  Alcotest.(check int) "region stable" 1 r.isolated;
  Alcotest.(check int) "one region reported" 1
    (List.length (Session.error_regions s));
  assert_sane calc s;
  (* Now repair the broken statement: everything converges. *)
  let p = pos_of (Session.text s) ") (" 0 in
  Session.edit s ~pos:p ~del:3 ~insert:"";
  ignore (parsed (Session.reparse s));
  Alcotest.(check string) "batch-identical after repair"
    (batch_sexp calc (Session.text s))
    (Parsedag.Pp.to_sexp calc.Language.grammar (Session.root s))

let test_edit_merges_two_regions () =
  let s, _ = make calc base_calc in
  break_stmt s 4;
  break_stmt s 6;
  let r = recovered (Session.reparse s) in
  Alcotest.(check int) "two regions" 2 r.isolated;
  (* Delete the intact statement between them: the damaged runs become
     adjacent and must merge into a single region. *)
  let lo = pos_of (Session.text s) "v5" 0 in
  let hi = pos_of (Session.text s) "v6" 0 in
  Session.edit s ~pos:lo ~del:(hi - lo) ~insert:"";
  let r = recovered (Session.reparse s) in
  Alcotest.(check int) "merged into one region" 1 r.isolated;
  Alcotest.(check int) "one region reported" 1
    (List.length (Session.error_regions s));
  assert_sane calc s

let test_initial_parse_error_isolated () =
  (* A document that is broken from the start: already the initial parse
     confines the damage (the lone ";" masks away to the empty program). *)
  let s, o = make calc ";" in
  let r = recovered o in
  Alcotest.(check int) "isolated at creation" 1 r.isolated;
  Alcotest.(check int) "one region" 1 (List.length (Session.error_regions s));
  assert_sane calc s;
  Session.edit s ~pos:0 ~del:0 ~insert:"x = 1 ";
  ignore (parsed (Session.reparse s));
  Alcotest.(check int) "clean after repair" 0
    (List.length (Session.error_regions s))

(* --- the reuse criterion ------------------------------------------ *)

(* A document with one (early) syntax error must still reuse >= 90% of
   its tree on edits outside the damaged region — asserted through the
   metrics layer, per the acceptance criterion. *)
let test_reuse_outside_error () =
  let src = Workload.Spec_gen.nested ~depth:9 ~seed:3 in
  let s, o0 = make clang src in
  ignore (parsed o0);
  (* Break an early statement. *)
  let p = pos_of (Session.text s) "=" 0 in
  Session.edit s ~pos:(p + 1) ~del:0 ~insert:" ) (";
  ignore (recovered (Session.reparse s));
  assert_sane clang s;
  let total = Node.count_nodes (Session.root s) in
  (* Edit far from the error: append a statement after the last ";". *)
  let p = String.rindex (Session.text s) ';' in
  let outcome, d =
    Session.measure (fun () ->
        Session.edit s ~pos:(p + 1) ~del:0 ~insert:" zz = 2;";
        Session.reparse s)
  in
  ignore (recovered outcome);
  assert_sane clang s;
  let created = Metrics.count d "glr.nodes_created" in
  let reused_pct =
    100. *. (1. -. (float_of_int created /. float_of_int total))
  in
  if reused_pct < 90. then
    Alcotest.failf
      "edit outside the error region rebuilt %d of %d nodes (%.1f%% reuse, \
       need >= 90%%)"
      created total reused_pct

(* --- budgets ------------------------------------------------------ *)

let test_budget_max_nodes () =
  let budget = { Glr.no_budget with Glr.max_nodes = 5 } in
  let s, o = make ~budget calc base_calc in
  let r = recovered o in
  Alcotest.(check bool) "degraded" true r.degraded;
  Alcotest.(check bool) "reports the budget kind" true
    (String.length r.error.Glr.message > 0
    && Str.string_match (Str.regexp ".*nodes") r.error.Glr.message 0);
  (* The session stays usable: later edits keep terminating with an
     outcome, never an exception. *)
  Session.edit s ~pos:0 ~del:0 ~insert:"q = 1; ";
  ignore (recovered (Session.reparse s));
  Alcotest.(check bool) "has_errors" true (Session.has_errors s)

let test_budget_deadline () =
  let budget = { Glr.no_budget with Glr.deadline_ms = 0. } in
  let s, o = make ~budget calc base_calc in
  let r = recovered o in
  Alcotest.(check bool) "degraded" true r.degraded;
  Alcotest.(check bool) "reports the deadline" true
    (Str.string_match (Str.regexp ".*deadline") r.error.Glr.message 0);
  Session.edit s ~pos:0 ~del:0 ~insert:"q = 1; ";
  ignore (recovered (Session.reparse s))

let test_budget_max_parsers () =
  (* The Figure 1 C program forks parsers on the decl/call ambiguity; a
     width-1 budget forces deterministic pruning.  Whatever the outcome,
     the parse terminates and the pruning is visible in the metrics. *)
  let src = "typedef int a;\nint foo () { int i; a (b); c (d); i = 1; }\n" in
  let budget = { Glr.no_budget with Glr.max_parsers = 1 } in
  Languages.Registry.force clang;
  let (_, o), m = Session.measure (fun () -> make ~budget clang src) in
  (match o with
  | Session.Parsed st ->
      Alcotest.(check bool) "parse marked degraded" true st.Glr.degraded
  | Session.Recovered r ->
      Alcotest.(check bool) "recovery marked degraded" true r.degraded);
  Alcotest.(check bool) "parsers were pruned" true
    (Metrics.count m "glr.pruned_parsers" >= 1)

let test_budget_unbounded_matches_default () =
  (* [no_budget] must be behaviorally invisible. *)
  let s1, o1 = make calc base_calc in
  let s2, o2 = make ~budget:Glr.no_budget calc base_calc in
  ignore (parsed o1);
  ignore (parsed o2);
  Alcotest.(check string) "same tree"
    (Parsedag.Pp.to_sexp calc.Language.grammar (Session.root s1))
    (Parsedag.Pp.to_sexp calc.Language.grammar (Session.root s2))

(* --- sanitizer and GSS validation --------------------------------- *)

let test_check_dag_error_rules () =
  let s, _ = make calc base_calc in
  break_stmt s 5;
  ignore (recovered (Session.reparse s));
  Alcotest.(check int) "sanitizer accepts the recovered dag" 0
    (List.length
       (Check.dag ~expect_text:(Session.text s) (Session.table s)
          (Session.root s)));
  (* Corrupting the error node must be caught specifically. *)
  let e = ref None in
  Node.iter
    (fun (n : Node.t) ->
      match n.Node.kind with Node.Error _ -> e := Some n | _ -> ())
    (Session.root s);
  let e = Option.get !e in
  e.Node.state <- 3;
  Alcotest.(check bool) "stateful error node flagged" true
    (Check.dag (Session.table s) (Session.root s) <> []);
  e.Node.state <- Node.nostate;
  e.Node.error <- false;
  Alcotest.(check bool) "unflagged error node flagged" true
    (Check.dag (Session.table s) (Session.root s) <> []);
  e.Node.error <- true;
  (* A kid whose parent points elsewhere would hide the region from the
     leaves scan that finds error spans. *)
  let kid = e.Node.kids.(Array.length e.Node.kids - 1) in
  kid.Node.parent <- e.Node.parent;
  Alcotest.(check bool) "kid with a foreign parent flagged" true
    (List.exists
       (fun (v : Check.violation) ->
         v.Check.rule = "error-node" && v.Check.nid = e.Node.nid)
       (Check.dag (Session.table s) (Session.root s)));
  kid.Node.parent <- Some e;
  Alcotest.(check int) "repaired dag is clean again" 0
    (List.length (Check.dag (Session.table s) (Session.root s)))

(* Regions as [first token; line; tokens; end byte], compared against
   figures recorded before isolation stopped walking the whole dag. *)
let region_summary s =
  List.map
    (fun (r : Session.region) ->
      [ r.Session.r_start.Session.offset_tokens; r.r_start.line; r.r_tokens;
        r.r_end_byte ])
    (Session.error_regions s)

let attempts_of f =
  let r, d = Session.measure f in
  (r, Metrics.count d "session.isolation_attempts")

let regions = Alcotest.(list (list int))

let test_failures_past_masked_runs () =
  (* Three broken statements: each failed attempt's error offset is in
     the masked stream and lies past every earlier masked run. *)
  let s, _ = make calc base_calc in
  break_stmt s 1;
  break_stmt s 5;
  break_stmt s 9;
  let r, attempts = attempts_of (fun () -> recovered (Session.reparse s)) in
  Alcotest.(check int) "one attempt per statement" 3 attempts;
  Alcotest.(check int) "three regions" 3 r.isolated;
  Alcotest.check regions "recorded regions"
    [ [ 12; 2; 14; 51 ]; [ 62; 6; 14; 151 ]; [ 112; 10; 14; 251 ] ]
    (region_summary s);
  assert_sane calc s;
  (* A dangling "v = (" at the end fails past the last unmasked token:
     the offset maps back to that token and escalation widens from
     there. *)
  let s, _ = make calc base_calc in
  break_stmt s 1;
  let len = String.length (Session.text s) in
  Session.edit s ~pos:len ~del:0 ~insert:"v = ( ";
  let r, attempts = attempts_of (fun () -> recovered (Session.reparse s)) in
  Alcotest.(check int) "escalating attempts" 5 attempts;
  Alcotest.(check int) "two regions" 2 r.isolated;
  Alcotest.check regions "recorded regions"
    [ [ 12; 2; 14; 51 ]; [ 134; 12; 15; 303 ] ]
    (region_summary s);
  assert_sane calc s

let test_edited_region_not_seeded () =
  (* Regions at statements 2 and 9; then statement 2 is repaired while
     statement 6 breaks.  Only the untouched region (9) is seeded, so one
     attempt suffices and the repaired statement integrates. *)
  let s, _ = make calc base_calc in
  break_stmt s 2;
  break_stmt s 9;
  ignore (recovered (Session.reparse s));
  let p = pos_of (Session.text s) ") (" 0 in
  Session.edit s ~pos:p ~del:3 ~insert:"";
  break_stmt s 6;
  let r, attempts = attempts_of (fun () -> recovered (Session.reparse s)) in
  Alcotest.(check int) "one attempt" 1 attempts;
  Alcotest.(check int) "two regions" 2 r.isolated;
  Alcotest.check regions "recorded regions"
    [ [ 72; 7; 14; 172 ]; [ 110; 10; 14; 248 ] ]
    (region_summary s);
  assert_sane calc s

let test_gss_validate_max_parsers () =
  let bottom = Iglr.Gss.make_node ~state:0 [] in
  let label = Node.make_term ~term:1 ~text:"x" ~trivia:"" ~lex_la:0 in
  let top st =
    Iglr.Gss.make_node ~state:st
      [ Iglr.Gss.make_link ~head:bottom ~label ]
  in
  let tops = [ top 1; top 2; top 3 ] in
  Alcotest.(check int) "within budget" 0
    (List.length (Iglr.Gss.validate ~max_parsers:3 ~num_states:4 tops));
  Alcotest.(check bool) "over budget flagged" true
    (Iglr.Gss.validate ~max_parsers:2 ~num_states:4 tops <> [])

(* --- degraded-tree invariants ------------------------------------- *)

let test_token_counts_after_isolation () =
  let s, _ = make calc base_calc in
  break_stmt s 3;
  break_stmt s 8;
  ignore (recovered (Session.reparse s));
  let doc = Session.document s in
  Alcotest.(check int) "root token count spans the document"
    (Vdoc.Document.token_count doc)
    (Node.token_count (Session.root s));
  (* Full-text rewrite from any damaged state converges to batch. *)
  let n = String.length (Session.text s) in
  Session.edit s ~pos:0 ~del:n ~insert:base_calc;
  ignore (parsed (Session.reparse s));
  Alcotest.(check string) "batch-identical"
    (batch_sexp calc base_calc)
    (Parsedag.Pp.to_sexp calc.Language.grammar (Session.root s))

let suite =
  [
    Alcotest.test_case "isolate one broken statement" `Quick
      test_isolate_one_statement;
    Alcotest.test_case "error node shape" `Quick test_error_node_shape;
    Alcotest.test_case "error location line:col" `Quick
      test_location_line_col;
    Alcotest.test_case "error at end of input" `Quick test_error_at_eof;
    Alcotest.test_case "adjacent damaged statements" `Quick
      test_adjacent_regions_merge;
    Alcotest.test_case "two distant regions" `Quick test_two_distant_regions;
    Alcotest.test_case "edit inside region converges" `Quick
      test_edit_inside_region_converges;
    Alcotest.test_case "edit outside region keeps error" `Quick
      test_edit_outside_region_keeps_error;
    Alcotest.test_case "edit merges two regions" `Quick
      test_edit_merges_two_regions;
    Alcotest.test_case "initial parse error isolated" `Quick
      test_initial_parse_error_isolated;
    Alcotest.test_case "reuse >= 90% outside the error" `Quick
      test_reuse_outside_error;
    Alcotest.test_case "budget: max nodes" `Quick test_budget_max_nodes;
    Alcotest.test_case "budget: deadline" `Quick test_budget_deadline;
    Alcotest.test_case "budget: max parsers" `Quick test_budget_max_parsers;
    Alcotest.test_case "budget: unbounded is invisible" `Quick
      test_budget_unbounded_matches_default;
    Alcotest.test_case "failures past masked runs" `Quick
      test_failures_past_masked_runs;
    Alcotest.test_case "edited region is not seeded" `Quick
      test_edited_region_not_seeded;
    Alcotest.test_case "sanitizer error-node rules" `Quick
      test_check_dag_error_rules;
    Alcotest.test_case "gss validate max-parsers" `Quick
      test_gss_validate_max_parsers;
    Alcotest.test_case "token counts + full rewrite converges" `Quick
      test_token_counts_after_isolation;
  ]
