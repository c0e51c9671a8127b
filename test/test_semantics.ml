(* Tests for semantic disambiguation (§4.2): typedef collection, scope
   handling, namespace decisions, the prefer-declaration filter, error
   retention, and incremental re-analysis. *)

module Node = Parsedag.Node
module Session = Iglr.Session
module Language = Languages.Language
module Diag = Semantics.Diag

let c = Languages.C_subset.language
let cpp = Languages.Cpp_subset.language

let session lang text =
  let s, outcome =
    Session.create ~table:(Language.table lang) ~lexer:(Language.lexer lang)
      text
  in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.failf "parse failed for %S" text);
  s

(* One analyzer per document: the decisions, then the analyses over them
   ([Diag.run] validates the decisions clean). *)
let analyze d s =
  let root = Session.root s in
  let r = Diag.decide d root in
  (r, Diag.run d root)

let choices root =
  let acc = ref [] in
  Node.iter
    (fun n ->
      match n.Node.kind with Node.Choice _ -> acc := n :: !acc | _ -> ())
    root;
  List.rev !acc

let selected_kind lang (n : Node.t) =
  match Node.chosen n with
  | None -> `Unresolved
  | Some alt -> (
      match alt.Node.kids.(0).Node.kind with
      | Node.Prod p ->
          let prod = Grammar.Cfg.production lang.Language.grammar p in
          let name =
            Grammar.Cfg.nonterminal_name lang.Language.grammar prod.lhs
          in
          if String.equal name "decl" then `Decl
          else if String.equal name "expr" then `Expr
          else `Other
      | _ -> `Other)

let test_typedef_decides () =
  let s = session c "typedef int a;\nint f () { a (b); c (d); }" in
  let sem = Diag.create c.Language.grammar in
  let r, _ = analyze sem s in
  Alcotest.(check int) "one typedef" 1 r.Diag.typedef_decls;
  Alcotest.(check int) "two choices" 2 r.Diag.choices;
  Alcotest.(check int) "all decided" 0 r.Diag.unresolved;
  match choices (Session.root s) with
  | [ amb_a; amb_c ] ->
      Alcotest.(check bool) "a (b) is a declaration" true
        (selected_kind c amb_a = `Decl);
      Alcotest.(check bool) "c (d) is a call" true
        (selected_kind c amb_c = `Expr)
  | _ -> Alcotest.fail "expected two choice nodes"

let test_scope_shadowing () =
  (* The typedef is declared inside one function; uses in a later function
     are calls (scopes pop). *)
  let s =
    session c
      "int f () { typedef int a; a (b); }\nint g () { a (b); }"
  in
  let sem = Diag.create c.Language.grammar in
  ignore (analyze sem s);
  match choices (Session.root s) with
  | [ inside; outside ] ->
      Alcotest.(check bool) "in scope: declaration" true
        (selected_kind c inside = `Decl);
      Alcotest.(check bool) "out of scope: call" true
        (selected_kind c outside = `Expr)
  | l -> Alcotest.failf "expected two choice nodes, got %d" (List.length l)

let test_order_matters () =
  (* A use before the typedef declaration is a call (declaration order). *)
  let s = session c "int f () { a (b); }\ntypedef int a;" in
  let sem = Diag.create c.Language.grammar in
  ignore (analyze sem s);
  match choices (Session.root s) with
  | [ amb ] ->
      Alcotest.(check bool) "use before decl: call" true
        (selected_kind c amb = `Expr)
  | _ -> Alcotest.fail "expected one choice node"

let test_pointer_decl_form () =
  (* The second classic form: "a * b;" is a pointer declaration when a is
     a type, a multiplication otherwise. *)
  let s = session c "typedef int a;\nint f () { a * b; c * d; }" in
  let sem = Diag.create c.Language.grammar in
  let r, _ = analyze sem s in
  Alcotest.(check int) "two choices" 2 r.Diag.choices;
  Alcotest.(check int) "all decided" 0 r.Diag.unresolved;
  match choices (Session.root s) with
  | [ amb_a; amb_c ] ->
      Alcotest.(check bool) "a * b is a declaration" true
        (selected_kind c amb_a = `Decl);
      Alcotest.(check bool) "c * d is an expression" true
        (selected_kind c amb_c = `Expr)
  | _ -> Alcotest.fail "expected two choice nodes"

let test_prefer_decl_policy () =
  let text = "typedef int a;\nint f () { a (b); }" in
  let s = session cpp text in
  let sem = Diag.create cpp.Language.grammar in
  let r, _ = analyze sem s in
  Alcotest.(check int) "prefer-decl applied once" 1
    r.Diag.prefer_candidates;
  match choices (Session.root s) with
  | [ amb ] ->
      Alcotest.(check bool) "declaration preferred" true
        (selected_kind cpp amb = `Decl)
  | _ -> Alcotest.fail "expected one choice node"

let test_memoization () =
  let s = session c "typedef int a;\nint f () { a (b); c (d); }" in
  let sem = Diag.create c.Language.grammar in
  let r1, _ = analyze sem s in
  Alcotest.(check int) "first run decides" 2 r1.Diag.decided;
  let r2, _ = analyze sem s in
  Alcotest.(check int) "second run memoized" 0 r2.Diag.decided

let test_typedef_removal_reinterprets () =
  let s = session c "typedef int a;\nint f () { a (b); c (d); }" in
  let sem = Diag.create c.Language.grammar in
  ignore (analyze sem s);
  (* Remove the typedef; the dag for the use site is reused verbatim, only
     semantics re-runs. *)
  Session.edit s ~pos:0 ~del:15 ~insert:"";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "reparse failed");
  let r, _ = analyze sem s in
  Alcotest.(check int) "only the dependent choice re-decided" 1
    r.Diag.decided;
  Alcotest.(check int) "interpretation flipped" 1 r.Diag.reinterpreted;
  match choices (Session.root s) with
  | [ amb_a; _ ] ->
      Alcotest.(check bool) "a (b) now a call" true
        (selected_kind c amb_a = `Expr)
  | _ -> Alcotest.fail "expected two choice nodes"

let test_typedef_addition_reinterprets () =
  let s = session c "int f () { c (d); }" in
  let sem = Diag.create c.Language.grammar in
  ignore (analyze sem s);
  Session.edit s ~pos:0 ~del:0 ~insert:"typedef int c;\n";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "reparse failed");
  let r, _ = analyze sem s in
  Alcotest.(check int) "flip on addition" 1 r.Diag.reinterpreted;
  match choices (Session.root s) with
  | [ amb ] ->
      Alcotest.(check bool) "c (d) now a declaration" true
        (selected_kind c amb = `Decl)
  | _ -> Alcotest.fail "expected one choice node"

(* Decision cells are per top-level item: count the engine's computes
   and hits across one re-analysis's decisions (the analyses that
   [Diag.run] then adds are not counted). *)
let recount sem s f =
  let st0 = Query.stats (Diag.engine sem) in
  f ();
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "reparse failed");
  let r = Diag.decide sem (Session.root s) in
  let st1 = Query.stats (Diag.engine sem) in
  let res = Diag.run sem (Session.root s) in
  ( r,
    res,
    st1.Query.computes - st0.Query.computes,
    st1.Query.hits - st0.Query.hits )

let test_token_edit_redecides_one_item () =
  let text =
    "typedef int t ;
\
     int f1 ( ) { t ( a ) ; return 1 ; }
\
     int f2 ( ) { t ( b ) ; return 2 ; }
\
     int f3 ( ) { t ( c ) ; return 3 ; }
\
     int f4 ( ) { t ( d ) ; return 4 ; }
"
  in
  let s = session c text in
  let sem = Diag.create c.Language.grammar in
  ignore (analyze sem s);
  let r, _, computes, hits =
    recount sem s (fun () ->
        let pos = Str.search_forward (Str.regexp_string "return 3") text 0 in
        Session.edit s ~pos:(pos + 7) ~del:1 ~insert:"7")
  in
  Alcotest.(check int) "only f3's decision cell recomputes" 1 computes;
  Alcotest.(check int) "the other four items hit" 4 hits;
  (* f3's choice node is rebuilt with it (an ambiguous region is never
     state-matched, §3.3), so its one choice is decided afresh. *)
  Alcotest.(check int) "f3's choice decided" 1 r.Diag.decided;
  Alcotest.(check int) "still four choices" 4 r.Diag.choices

let test_typedef_deletion_redecides_dependents () =
  let text =
    "typedef int a ;
\
     typedef int b ;
\
     int f1 ( ) { a ( x ) ; return 0 ; }
\
     int f2 ( ) { b ( y ) ; return 0 ; }
\
     int f3 ( ) { a * z ; return 0 ; }
\
     int f4 ( ) { c ( w ) ; return 0 ; }
"
  in
  let s = session c text in
  let sem = Diag.create c.Language.grammar in
  ignore (analyze sem s);
  let r, res, computes, hits =
    recount sem s (fun () ->
        (* Keep the newline: it is the next token's trivia. *)
        Session.edit s ~pos:0 ~del:(String.index text '\n') ~insert:"")
  in
  Alcotest.(check int) "f1 and f3 recompute" 2 computes;
  Alcotest.(check int) "b's item, f2 and f4 hit" 3 hits;
  Alcotest.(check int) "two choices re-decided" 2 r.Diag.decided;
  Alcotest.(check int) "both flipped" 2 r.Diag.reinterpreted;
  Alcotest.(check (list string)) "typedefs" [ "b" ] res.Diag.typedefs

let test_error_retention () =
  (* "a b;" forces the declaration reading even when "a" is unknown: the
     analysis reports an unknown type name but the structure is retained
     for future repair (§4.3). *)
  let s = session c "int f () { a (b); }" in
  let sem = Diag.create c.Language.grammar in
  let r, _ = analyze sem s in
  Alcotest.(check int) "resolved as call (no typedef)" 0
    r.Diag.unresolved;
  (* A region with only a declaration reading and an unknown type. *)
  let s2 = session c "int f () { a * b; }" in
  let r2, _ = analyze sem s2 in
  ignore r2;
  let s3 = session c "typedef int t;\nint f () { t (x); t * y; }" in
  let sem3 = Diag.create c.Language.grammar in
  let r3, _ = analyze sem3 s3 in
  Alcotest.(check int) "no errors with declared type" 0
    (List.length r3.Diag.sem_errors)

let test_global_typedefs () =
  let s = session c "typedef int a;\ntypedef a b;\nint f () { b (x); }" in
  let sem = Diag.create c.Language.grammar in
  let _, res = analyze sem s in
  Alcotest.(check (slist string String.compare)) "chained typedefs visible"
    [ "a"; "b" ] res.Diag.typedefs;
  match choices (Session.root s) with
  | [ amb ] ->
      Alcotest.(check bool) "chained typedef decides decl" true
        (selected_kind c amb = `Decl)
  | _ -> Alcotest.fail "expected one choice node"

let test_workload_all_resolved () =
  (* Every ambiguity the generator emits must be semantically resolvable
     (the paper's observation about gcc/SPEC95). *)
  let profile =
    { Workload.Spec_gen.p_name = "sem-test"; p_lines = 600;
      p_dialect = Workload.Spec_gen.C; p_paper_overhead = 0.5;
      p_ambig_per_kloc = 20.0 }
  in
  let src = Workload.Spec_gen.generate ~seed:71 profile in
  let s = session c src in
  let sem = Diag.create c.Language.grammar in
  let r, _ = analyze sem s in
  Alcotest.(check bool) "found ambiguities" true (r.Diag.choices > 0);
  Alcotest.(check int) "all resolved" 0 r.Diag.unresolved;
  Alcotest.(check int) "no semantic errors" 0 (List.length r.Diag.sem_errors)

(* Diagnostics anchor at their item's absolute first token: the tokens
   an error region holds outside the items shift nothing after it. *)
let test_diag_anchor_after_error () =
  let text = "int a ;\n) )\nint b ;\nint f ( ) { return q ; }" in
  let s, _ =
    Session.create ~table:(Language.table c) ~lexer:(Language.lexer c) text
  in
  let d = Semantics.Diag.create c.Language.grammar in
  let r = Semantics.Diag.run d (Session.root s) in
  let at tok =
    let l = Session.location_of_token s tok in
    (l.Session.line, l.Session.col)
  in
  Alcotest.(check (list (pair string (pair int int))))
    "diagnostics on line 4"
    [ ("unused-binding", (4, 5)); ("unbound-name", (4, 20)) ]
    (List.map
       (fun (d : Semantics.Diag.diag) ->
         (d.Semantics.Diag.d_code, at d.Semantics.Diag.d_token))
       r.Semantics.Diag.diags);
  Alcotest.(check (list (pair string (pair int int))))
    "binding f on line 4"
    [ ("f", (4, 5)) ]
    (List.map
       (fun (b : Semantics.Diag.binding) ->
         (b.Semantics.Diag.b_name, at b.Semantics.Diag.b_token))
       r.Semantics.Diag.bindings)

(* The benchmark replay's shim, driven as the replay drives it: a
   [Typedefs] view bridged into a commit-subscribed [Diag], whose run
   cross-checks the view's typedef names.  Across §4.2's typedef removal
   it renders what one analyzer renders from scratch.  Goes with the
   shim. *)
let test_replay_shim () =
  let s = session c "typedef int a;\nint f () { a (b); c (d); }" in
  let d = Diag.create c.Language.grammar in
  let tds =
    Semantics.Typedefs.create ?policy:c.Language.ambig.Language.sem_policy
      c.Language.grammar
  in
  Semantics.Typedefs.on_select tds (Diag.touch d);
  Session.on_commit s (fun ~watermark root -> Diag.commit d ~watermark root);
  let check label =
    ignore (Semantics.Typedefs.analyze tds (Session.root s));
    let r =
      Diag.run d
        ~typedefs:(Semantics.Typedefs.global_typedefs tds)
        (Session.root s)
    in
    let lone = Diag.run (Diag.create c.Language.grammar) (Session.root s) in
    Alcotest.(check string) label (Diag.render lone) (Diag.render r)
  in
  check "before the edit";
  Session.edit s ~pos:0 ~del:15 ~insert:"";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "reparse failed");
  check "after the typedef removal";
  match choices (Session.root s) with
  | [ amb_a; _ ] ->
      Alcotest.(check bool) "a (b) now a call" true
        (selected_kind c amb_a = `Expr)
  | _ -> Alcotest.fail "expected two choice nodes"

let suite =
  [
    Alcotest.test_case "typedef decides namespaces" `Quick test_typedef_decides;
    Alcotest.test_case "scopes pop" `Quick test_scope_shadowing;
    Alcotest.test_case "declaration order" `Quick test_order_matters;
    Alcotest.test_case "pointer declaration form" `Quick test_pointer_decl_form;
    Alcotest.test_case "prefer-decl policy (C++)" `Quick test_prefer_decl_policy;
    Alcotest.test_case "decisions memoized" `Quick test_memoization;
    Alcotest.test_case "typedef removal flips" `Quick
      test_typedef_removal_reinterprets;
    Alcotest.test_case "typedef addition flips" `Quick
      test_typedef_addition_reinterprets;
    Alcotest.test_case "token edit re-decides one item" `Quick
      test_token_edit_redecides_one_item;
    Alcotest.test_case "typedef deletion re-decides its dependents" `Quick
      test_typedef_deletion_redecides_dependents;
    Alcotest.test_case "errors retained" `Quick test_error_retention;
    Alcotest.test_case "global typedefs" `Quick test_global_typedefs;
    Alcotest.test_case "diag anchors after an error region" `Quick
      test_diag_anchor_after_error;
    Alcotest.test_case "workload fully resolvable" `Quick
      test_workload_all_resolved;
    Alcotest.test_case "replay shim" `Quick test_replay_shim;
  ]
