(* Tests for the incremental attribute evaluator (lib/semantics/attrs):
   synthesized attributes over the dag, memoized by node identity, so a
   reparse after an edit re-evaluates only the damage (the payoff of
   shifting unchanged subtrees whole). *)

module Node = Parsedag.Node
module Session = Iglr.Session
module Language = Languages.Language
module Attrs = Semantics.Attrs

let calc = Languages.Calc.language
let g = calc.Language.grammar

let session text =
  let s, outcome =
    Session.create ~table:(Language.table calc) ~lexer:(Language.lexer calc)
      text
  in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.failf "parse failed for %S" text);
  s

(* A constant-evaluation attribute for calc: statements yield an
   association from assigned names to values (ignoring variable reads —
   enough to exercise the machinery). *)
let value_evaluator () =
  let num = Grammar.Cfg.find_terminal g "num" in
  Attrs.create g
    ~leaf:(fun n ->
      match n.Node.kind with
      | Node.Term i when i.Node.term = num -> int_of_string i.Node.text
      | _ -> 0)
    ~rule:(fun prod kids ->
      let op i =
        match (Grammar.Cfg.production g prod.Grammar.Cfg.p_id).rhs.(i) with
        | Grammar.Cfg.T t -> Grammar.Cfg.terminal_name g t
        | Grammar.Cfg.N _ -> ""
      in
      if Array.length kids = 3 && Array.length prod.Grammar.Cfg.rhs = 3 then
        match op 1 with
        | "+" -> kids.(0) + kids.(2)
        | "-" -> kids.(0) - kids.(2)
        | "*" -> kids.(0) * kids.(2)
        | "/" -> if kids.(2) = 0 then 0 else kids.(0) / kids.(2)
        | _ -> Array.fold_left ( + ) 0 kids
      else Array.fold_left ( + ) 0 kids)
    ~choice:(fun vs -> if Array.length vs = 0 then 0 else vs.(0))

let test_constant_evaluation () =
  let s = session "x = 1 + 2 * 3;" in
  let ev = value_evaluator () in
  (* Sum over the program: the single statement's expr value. *)
  Alcotest.(check int) "1 + 2*3" 7 (Attrs.eval ev (Session.root s))

let test_memoization () =
  let s = session "x = 1 + 2;" in
  let ev = value_evaluator () in
  ignore (Attrs.eval ev (Session.root s));
  let before = Attrs.evaluations ev in
  ignore (Attrs.eval ev (Session.root s));
  Alcotest.(check int) "second eval free" before (Attrs.evaluations ev)

let test_incremental_reevaluation () =
  (* After a one-token edit in a 60-statement program, the re-evaluation
     count must be proportional to the damage, not the tree. *)
  let text =
    String.concat ""
      (List.init 60 (fun i -> Printf.sprintf "x%d = %d + 2 * 3;\n" i i))
  in
  let s = session text in
  let ev = value_evaluator () in
  ignore (Attrs.eval ev (Session.root s));
  let full = Attrs.evaluations ev in
  (* Edit statement 30's constant. *)
  let pos = ref 0 in
  for _ = 1 to 30 do
    pos := String.index_from text (!pos + 1) '\n'
  done;
  let stmt_start = !pos + 1 in
  let eq = String.index_from text stmt_start '=' in
  Session.edit s ~pos:(eq + 2) ~del:2 ~insert:"99";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "reparse failed");
  ignore (Attrs.eval ev (Session.root s));
  let incremental = Attrs.evaluations ev - full in
  Alcotest.(check bool)
    (Printf.sprintf "damage-proportional (%d of %d)" incremental full)
    true
    (incremental * 3 < full);
  Alcotest.(check bool) "something re-evaluated" true (incremental > 0)

let test_choice_combination () =
  (* On the ambiguous C statement, the choice combinator sees both
     interpretations until semantics selects one. *)
  let c = Languages.C_subset.language in
  let s, _ =
    Session.create
      ~table:(Language.table c)
      ~lexer:(Language.lexer c)
      "typedef int t;\nint f () { t (x); }"
  in
  let count_nodes_attr selected =
    let ev =
      Attrs.create c.Language.grammar
        ~leaf:(fun _ -> 1)
        ~rule:(fun _ kids -> 1 + Array.fold_left ( + ) 0 kids)
        ~choice:(fun vs -> Array.fold_left max 0 vs)
    in
    if selected then begin
      let d = Semantics.Diag.create c.Language.grammar in
      ignore (Semantics.Diag.decide d (Session.root s));
      ignore (Semantics.Diag.run d (Session.root s))
    end;
    Attrs.eval ev (Session.root s)
  in
  let unresolved = count_nodes_attr false in
  let resolved = count_nodes_attr true in
  (* Once the (larger) declaration interpretation is selected, the value
     follows it deterministically. *)
  Alcotest.(check bool) "both computable" true (unresolved > 0 && resolved > 0)

let test_reset () =
  let s = session "x = 4;" in
  let ev = value_evaluator () in
  ignore (Attrs.eval ev (Session.root s));
  let n1 = Attrs.evaluations ev in
  Attrs.reset ev;
  ignore (Attrs.eval ev (Session.root s));
  Alcotest.(check bool) "recomputed after reset" true
    (Attrs.evaluations ev > n1)

let suite =
  [
    Alcotest.test_case "constant evaluation" `Quick test_constant_evaluation;
    Alcotest.test_case "memoization" `Quick test_memoization;
    Alcotest.test_case "incremental re-evaluation" `Quick
      test_incremental_reevaluation;
    Alcotest.test_case "choice combination" `Quick test_choice_combination;
    Alcotest.test_case "reset" `Quick test_reset;
  ]
