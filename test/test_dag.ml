(* Tests for the parse-dag substrate: nodes, traversal cursors, stats,
   epsilon unsharing, printing (lib/dag). *)

module Node = Parsedag.Node
module Traverse = Parsedag.Traverse
module Stats = Parsedag.Stats
module Unshare = Parsedag.Unshare

let term text = Node.make_term ~term:1 ~text ~trivia:"" ~lex_la:0

let small_tree () =
  (* root -> [bos; P(a b); eos] with P a two-kid production node. *)
  let a = term "a" and b = term "b" in
  let p = Node.make_prod ~prod:0 ~state:3 [| a; b |] in
  let root =
    Node.make_root [| Node.make_bos (); p; Node.make_eos ~trailing:"" |]
  in
  Node.commit root;
  (root, p, a, b)

let test_token_counts () =
  let root, p, a, _ = small_tree () in
  Alcotest.(check int) "terminal count" 1 (Node.token_count a);
  Alcotest.(check int) "prod count" 2 (Node.token_count p);
  Alcotest.(check int) "root count" 2 (Node.token_count root)

let test_yield () =
  let a = Node.make_term ~term:1 ~text:"x" ~trivia:" " ~lex_la:0 in
  let b = Node.make_term ~term:1 ~text:"y" ~trivia:"\t" ~lex_la:0 in
  let p = Node.make_prod ~prod:0 ~state:0 [| a; b |] in
  let root =
    Node.make_root [| Node.make_bos (); p; Node.make_eos ~trailing:"\n" |]
  in
  Alcotest.(check string) "yield includes trivia" " x\ty\n"
    (Node.text_yield root)

let test_mark_and_commit () =
  let root, p, a, _ = small_tree () in
  Node.mark_changed a;
  Alcotest.(check bool) "leaf changed" true (Node.changed a);
  Alcotest.(check bool) "parent nested" true (Node.nested p);
  Alcotest.(check bool) "root nested" true (Node.nested root);
  Node.commit root;
  Alcotest.(check bool) "flags cleared" false (Node.has_changes a);
  Alcotest.(check bool) "root clean" false (Node.has_changes root);
  Alcotest.(check bool) "parents restored" true
    (a.Node.parent == p)

let test_choice_invariants () =
  (try
     ignore (Node.make_choice ~nt:0 [| term "x" |]);
     Alcotest.fail "choice with one alternative"
   with Invalid_argument _ -> ());
  let a = term "x" in
  let alt1 = Node.make_prod ~prod:0 ~state:0 [| a |] in
  let alt2 = Node.make_prod ~prod:1 ~state:0 [| a |] in
  let c = Node.make_choice ~nt:0 [| alt1; alt2 |] in
  Alcotest.(check int) "choice counts one alternative's tokens" 1
    (Node.token_count c);
  let root =
    Node.make_root [| Node.make_bos (); c; Node.make_eos ~trailing:"" |]
  in
  Node.commit root;
  (* Shared terminal ends up with the first alternative as parent. *)
  Alcotest.(check bool) "shared terminal parent = first alt" true
    (a.Node.parent == alt1)

let test_cursor_walk () =
  let a = term "a" and b = term "b" and c = term "c" in
  let p = Node.make_prod ~prod:0 ~state:0 [| a; b |] in
  let root =
    Node.make_root [| Node.make_bos (); p; c; Node.make_eos ~trailing:"" |]
  in
  Node.commit root;
  let cur = Traverse.cursor_at root in
  Alcotest.(check bool) "starts at p" true (Traverse.current cur == p);
  Traverse.descend cur;
  Alcotest.(check bool) "descend to a" true (Traverse.current cur == a);
  Traverse.advance cur;
  Alcotest.(check bool) "advance to b" true (Traverse.current cur == b);
  Traverse.advance cur;
  Alcotest.(check bool) "climb out to c" true (Traverse.current cur == c);
  Traverse.advance cur;
  (match (Traverse.current cur).Node.kind with
  | Node.Eos _ -> ()
  | _ -> Alcotest.fail "expected eos");
  Alcotest.check_raises "advance past eos"
    (Invalid_argument "Traverse.advance: past eos") (fun () ->
      Traverse.advance cur)

let test_cursor_choice () =
  (* Cursor must not visit the second alternative of a choice. *)
  let a = term "a" in
  let alt1 = Node.make_prod ~prod:0 ~state:0 [| a |] in
  let alt2 = Node.make_prod ~prod:1 ~state:0 [| a |] in
  let c = Node.make_choice ~nt:0 [| alt1; alt2 |] in
  let after = term "z" in
  let root =
    Node.make_root [| Node.make_bos (); c; after; Node.make_eos ~trailing:"" |]
  in
  Node.commit root;
  let cur = Traverse.cursor_at root in
  Traverse.descend cur;
  (* into alt1 *)
  Alcotest.(check bool) "first alternative" true (Traverse.current cur == alt1);
  Traverse.descend cur;
  Alcotest.(check bool) "terminal" true (Traverse.current cur == a);
  Traverse.advance cur;
  Alcotest.(check bool) "skips second alternative" true
    (Traverse.current cur == after)

let test_cursor_epsilon () =
  let eps = Node.make_prod ~prod:0 ~state:0 [||] in
  let z = term "z" in
  let root =
    Node.make_root [| Node.make_bos (); eps; z; Node.make_eos ~trailing:"" |]
  in
  Node.commit root;
  let cur = Traverse.cursor_at root in
  Alcotest.(check bool) "on epsilon" true (Traverse.current cur == eps);
  (* Descending an epsilon subtree skips it. *)
  Traverse.descend cur;
  Alcotest.(check bool) "skipped to z" true (Traverse.current cur == z);
  (* peek_terminal from an epsilon current finds the following terminal. *)
  let cur2 = Traverse.cursor_at root in
  Alcotest.(check bool) "peek over epsilon" true
    (Traverse.peek_terminal cur2 == z)

let test_stats_choice_overhead () =
  let a = term "a" in
  let alt1 = Node.make_prod ~prod:0 ~state:0 [| a |] in
  let alt2 = Node.make_prod ~prod:1 ~state:0 [| a |] in
  let c = Node.make_choice ~nt:0 [| alt1; alt2 |] in
  let root =
    Node.make_root [| Node.make_bos (); c; Node.make_eos ~trailing:"" |]
  in
  let m = Stats.measure root in
  Alcotest.(check int) "one choice" 1 m.Stats.choice_nodes;
  Alcotest.(check int) "two alternatives" 2 m.Stats.choice_alts;
  Alcotest.(check bool) "dag bigger than tree" true
    (m.Stats.dag_words > m.Stats.tree_words);
  Alcotest.(check bool) "positive overhead" true
    (Stats.space_overhead_pct m > 0.);
  (* A plain tree has zero overhead. *)
  let root2, _, _, _ = small_tree () in
  let m2 = Stats.measure root2 in
  Alcotest.(check (float 0.0001)) "no ambiguity, no overhead" 0.0
    (Stats.space_overhead_pct m2)

(* The walk is the heap: with the per-program constants it leaves out
   (the orphan, the empty kid array, one [Prod] value per production)
   added back, it is what the root reaches. *)
let test_stats_heap_oracle () =
  let c = Languages.C_subset.language in
  let text = Workload.Spec_gen.plain ~lines:2000 ~seed:11 in
  let s, _ =
    Iglr.Session.create ~table:(Languages.Language.table c)
      ~lexer:(Languages.Language.lexer c) text
  in
  let root = Iglr.Session.root s in
  let prods = Hashtbl.create 64 in
  Node.iter
    (fun n ->
      match n.Node.kind with
      | Node.Prod p -> Hashtbl.replace prods p ()
      | _ -> ())
    root;
  let constants =
    Obj.reachable_words (Obj.repr Node.orphan) + (2 * Hashtbl.length prods)
  in
  let walked = (Stats.measure root).Stats.dag_words + constants in
  let heap = Obj.reachable_words (Obj.repr root) in
  if abs (walked - heap) * 100 > heap then
    Alcotest.failf "the walk reads %d words, the heap %d" walked heap

let test_unshare () =
  let eps = Node.make_prod ~prod:0 ~state:0 [||] in
  (* The same ε node appears under two parents: over-sharing. *)
  let p1 = Node.make_prod ~prod:1 ~state:0 [| eps; term "x" |] in
  let p2 = Node.make_prod ~prod:1 ~state:0 [| eps; term "y" |] in
  let top = Node.make_prod ~prod:2 ~state:0 [| p1; p2 |] in
  let root =
    Node.make_root [| Node.make_bos (); top; Node.make_eos ~trailing:"" |]
  in
  let duplicated = Unshare.run root in
  Alcotest.(check int) "one duplication" 1 duplicated;
  Alcotest.(check bool) "instances now distinct" true
    (p1.Node.kids.(0) != p2.Node.kids.(0));
  Alcotest.(check bool) "structure preserved" true
    (Node.structural_equal p1.Node.kids.(0) p2.Node.kids.(0))

let test_structural_equal () =
  let t1 = term "x" and t2 = term "x" in
  Alcotest.(check bool) "equal terminals" true (Node.structural_equal t1 t2);
  let t3 = Node.make_term ~term:1 ~text:"x" ~trivia:" " ~lex_la:0 in
  Alcotest.(check bool) "trivia matters" false (Node.structural_equal t1 t3);
  let p1 = Node.make_prod ~prod:0 ~state:1 [| term "a" |] in
  let p2 = Node.make_prod ~prod:0 ~state:9 [| term "a" |] in
  Alcotest.(check bool) "states ignored" true (Node.structural_equal p1 p2);
  let p3 = Node.make_prod ~prod:1 ~state:1 [| term "a" |] in
  Alcotest.(check bool) "productions matter" false (Node.structural_equal p1 p3)

let test_to_dot () =
  let a = term "x" in
  let alt1 = Node.make_prod ~prod:0 ~state:0 [| a |] in
  let alt2 = Node.make_prod ~prod:1 ~state:0 [| a |] in
  let c = Node.make_choice ~nt:0 [| alt1; alt2 |] in
  let root =
    Node.make_root [| Node.make_bos (); c; Node.make_eos ~trailing:"" |]
  in
  (* A tiny grammar supplying names for the dot labels. *)
  let g =
    let b = Grammar.Builder.create () in
    let s = Grammar.Builder.nonterminal b "S" in
    let t = Grammar.Builder.terminal b "x" in
    Grammar.Builder.prod b s [ t ];
    Grammar.Builder.prod b s [ t ];
    Grammar.Builder.set_start b s;
    Grammar.Builder.build b
  in
  let dot = Parsedag.Pp.to_dot g root in
  let has sub =
    let n = String.length dot and m = String.length sub in
    let rec go i = i + m <= n && (String.sub dot i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph header" true (has "digraph parsedag");
  Alcotest.(check bool) "choice is a diamond" true (has "shape=diamond");
  Alcotest.(check bool) "terminal box" true (has "shape=box");
  (* The shared terminal appears once but has two incoming edges.  Ids
     are per-call (not global nids): recover the terminal's id from its
     declaration line, then count edges into it. *)
  ignore a;
  let find sub =
    let n = String.length dot and m = String.length sub in
    let rec go i = if i + m > n then -1
      else if String.sub dot i m = sub then i else go (i + 1) in
    go 0
  in
  let decl = find (Printf.sprintf "[label=%S shape=box" "x") in
  Alcotest.(check bool) "terminal declared" true (decl >= 0);
  let id_start = String.rindex_from dot decl 'n' + 1 in
  let id_end = String.index_from dot id_start ' ' in
  let a_id = String.sub dot id_start (id_end - id_start) in
  let count_edges_to_a =
    let needle = Printf.sprintf "-> n%s;" a_id in
    let n = String.length dot and m = String.length needle in
    let rec go i acc =
      if i + m > n then acc
      else if String.sub dot i m = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "shared terminal has two parents" 2 count_edges_to_a

let test_adjust_token_count () =
  let root, p, _, _ = small_tree () in
  Node.adjust_token_count p 2;
  Alcotest.(check int) "node adjusted" 4 (Node.token_count p);
  Alcotest.(check int) "ancestors adjusted" 4 (Node.token_count root)

let suite =
  [
    Alcotest.test_case "token counts" `Quick test_token_counts;
    Alcotest.test_case "text yield" `Quick test_yield;
    Alcotest.test_case "mark and commit" `Quick test_mark_and_commit;
    Alcotest.test_case "choice invariants" `Quick test_choice_invariants;
    Alcotest.test_case "cursor walk" `Quick test_cursor_walk;
    Alcotest.test_case "cursor skips alternatives" `Quick test_cursor_choice;
    Alcotest.test_case "cursor over epsilon" `Quick test_cursor_epsilon;
    Alcotest.test_case "stats overhead" `Quick test_stats_choice_overhead;
    Alcotest.test_case "stats walk = heap" `Quick test_stats_heap_oracle;
    Alcotest.test_case "epsilon unsharing" `Quick test_unshare;
    Alcotest.test_case "structural equality" `Quick test_structural_equal;
    Alcotest.test_case "graphviz output" `Quick test_to_dot;
    Alcotest.test_case "adjust token count" `Quick test_adjust_token_count;
  ]
