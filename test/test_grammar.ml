(* Tests for Grammar.Cfg / Grammar.Builder / Grammar.Analysis. *)

module Cfg = Grammar.Cfg
module Builder = Grammar.Builder
module Analysis = Grammar.Analysis
module Bitset = Grammar.Bitset

let terms g set = List.map (Cfg.terminal_name g) (Bitset.elements set)

let test_builder_basic () =
  let g = Fixtures.expr_grammar () in
  Alcotest.(check int) "terminals (incl. eof)" 6 (Cfg.num_terminals g);
  Alcotest.(check int) "nonterminals" 3 (Cfg.num_nonterminals g);
  Alcotest.(check int) "productions" 6 (Cfg.num_productions g);
  Alcotest.(check string) "eof name" "<eof>" (Cfg.terminal_name g Cfg.eof);
  Alcotest.(check int) "find E" (Cfg.start g) (Cfg.find_nonterminal g "E");
  let prods_of_e = Cfg.productions_of g (Cfg.find_nonterminal g "E") in
  Alcotest.(check int) "E has two productions" 2 (Array.length prods_of_e)

let test_builder_interning () =
  let b = Builder.create () in
  let t1 = Builder.terminal b "x" in
  let t2 = Builder.terminal b "x" in
  Alcotest.(check bool) "terminal interned" true (Cfg.equal_symbol t1 t2);
  let n1 = Builder.nonterminal b "N" in
  let n2 = Builder.nonterminal b "N" in
  Alcotest.(check bool) "nonterminal interned" true (Cfg.equal_symbol n1 n2)

let test_builder_errors () =
  let b = Builder.create () in
  let n = Builder.nonterminal b "N" in
  let t = Builder.terminal b "t" in
  Builder.prod b n [ t ];
  (* No start symbol. *)
  (try
     ignore (Builder.build b);
     Alcotest.fail "expected failure without start symbol"
   with Invalid_argument _ -> ());
  Builder.set_start b n;
  ignore (Builder.build b);
  (* Undefined nonterminal. *)
  let b2 = Builder.create () in
  let n2 = Builder.nonterminal b2 "N" in
  let m2 = Builder.nonterminal b2 "M" in
  Builder.prod b2 n2 [ m2 ];
  Builder.set_start b2 n2;
  try
    ignore (Builder.build b2);
    Alcotest.fail "expected failure for productionless nonterminal"
  with Invalid_argument _ -> ()

let test_prec_assignment () =
  let g = Fixtures.ambig_expr_grammar ~with_prec:true () in
  let plus = Cfg.find_terminal g "+" in
  let times = Cfg.find_terminal g "*" in
  (match Cfg.term_prec g plus, Cfg.term_prec g times with
  | Some (lp, Cfg.Left), Some (lt, Cfg.Left) ->
      Alcotest.(check bool) "* binds tighter than +" true (lt > lp)
  | _ -> Alcotest.fail "missing precedence");
  (* Production E -> E + E inherits + precedence. *)
  let e_plus_e =
    Array.to_list (Cfg.productions g)
    |> List.find (fun (p : Cfg.production) ->
           Array.length p.rhs = 3 && p.rhs.(1) = Cfg.T plus)
  in
  match e_plus_e.prec with
  | Some (l, Cfg.Left) ->
      Alcotest.(check bool) "prod prec is + level" true
        (Some (l, Cfg.Left) = Cfg.term_prec g plus)
  | _ -> Alcotest.fail "production missing precedence"

let test_seq_desugaring () =
  let g = Fixtures.seq_grammar () in
  let stmts = Cfg.find_nonterminal g "stmt*" in
  Alcotest.(check bool) "flagged as sequence" true
    (Cfg.seq_kind g stmts = Cfg.Seq);
  let prods = Cfg.productions_of g stmts in
  Alcotest.(check int) "star has two productions" 2 (Array.length prods);
  let roles =
    Array.to_list prods
    |> List.map (fun p -> (Cfg.production g p).role)
    |> List.sort compare
  in
  Alcotest.(check bool) "roles are empty+cons" true
    (roles = List.sort compare [ Cfg.Seq_empty; Cfg.Seq_cons ])

let test_plus_with_sep () =
  let b = Builder.create () in
  let item = Builder.nonterminal b "item" in
  let comma = Builder.terminal b "," in
  let x = Builder.terminal b "x" in
  Builder.prod b item [ x ];
  let items = Builder.plus b ~sep:comma ~name:"items" item in
  Builder.set_start b items;
  let g = Builder.build b in
  let nt = Cfg.find_nonterminal g "items" in
  let prods = Cfg.productions_of g nt in
  Alcotest.(check int) "plus has two productions" 2 (Array.length prods);
  let cons =
    Array.to_list prods
    |> List.map (Cfg.production g)
    |> List.find (fun (p : Cfg.production) -> p.role = Cfg.Seq_cons)
  in
  Alcotest.(check int) "separated cons arity 3" 3 (Array.length cons.rhs)

(* Production names are rendered once when the grammar is made; the
   star's empty production renders as ε. *)
let test_production_names () =
  let g = Fixtures.seq_grammar () in
  let names =
    Array.to_list (Cfg.productions_of g (Cfg.find_nonterminal g "stmt*"))
    |> List.map (Cfg.production_name g)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "stmt* productions"
    [ "stmt* -> stmt* stmt"; "stmt* -> ε" ] names;
  Alcotest.(check string) "pp_production prints the name"
    (Cfg.production_name g 0)
    (Format.asprintf "%a" (Cfg.pp_production g) 0)

let test_nullable () =
  let g = Fixtures.nullable_grammar () in
  let a = Analysis.compute g in
  Alcotest.(check bool) "A nullable" true
    (Analysis.nullable a (Cfg.find_nonterminal g "A"));
  Alcotest.(check bool) "B nullable" true
    (Analysis.nullable a (Cfg.find_nonterminal g "B"));
  Alcotest.(check bool) "S not nullable" false
    (Analysis.nullable a (Cfg.find_nonterminal g "S"))

let test_first () =
  let g = Fixtures.nullable_grammar () in
  let a = Analysis.compute g in
  let first_s = Analysis.first a (Cfg.find_nonterminal g "S") in
  Alcotest.(check (slist string String.compare)) "FIRST(S)"
    [ "a"; "b"; "end" ] (terms g first_s)

let test_follow () =
  let g = Fixtures.nullable_grammar () in
  let a = Analysis.compute g in
  let follow_a = Analysis.follow a (Cfg.find_nonterminal g "A") in
  Alcotest.(check (slist string String.compare)) "FOLLOW(A)" [ "b"; "end" ]
    (terms g follow_a);
  let follow_s = Analysis.follow a (Cfg.find_nonterminal g "S") in
  Alcotest.(check (slist string String.compare)) "FOLLOW(S) has eof"
    [ "<eof>" ] (terms g follow_s)

let test_first_expr () =
  let g = Fixtures.expr_grammar () in
  let a = Analysis.compute g in
  let first_e = Analysis.first a (Cfg.find_nonterminal g "E") in
  Alcotest.(check (slist string String.compare)) "FIRST(E)" [ "("; "id" ]
    (terms g first_e);
  let follow_e = Analysis.follow a (Cfg.find_nonterminal g "E") in
  Alcotest.(check (slist string String.compare)) "FOLLOW(E)"
    [ ")"; "+"; "<eof>" ] (terms g follow_e)

let test_first_of_word () =
  let g = Fixtures.nullable_grammar () in
  let a = Analysis.compute g in
  let aa = Cfg.find_nonterminal g "A" in
  let bb = Cfg.find_nonterminal g "B" in
  let tend = Cfg.find_terminal g "end" in
  let word = [| Cfg.N aa; Cfg.N bb; Cfg.T tend |] in
  let set, eps = Analysis.first_of_word g a word ~from:0 in
  Alcotest.(check bool) "not nullable (ends in terminal)" false eps;
  Alcotest.(check (slist string String.compare)) "FIRST(A B end)"
    [ "a"; "b"; "end" ] (terms g set);
  let set2, eps2 = Analysis.first_of_word g a [| Cfg.N aa; Cfg.N bb |] ~from:0 in
  Alcotest.(check bool) "A B nullable" true eps2;
  Alcotest.(check (slist string String.compare)) "FIRST(A B)" [ "a"; "b" ]
    (terms g set2)

(* Property: FIRST(N) of a random grammar always contains the first
   terminal of any sentence derivable from N (checked by random
   derivation). *)
let gen_random_grammar_and_word =
  (* Build a small random grammar guaranteed to terminate: nonterminal i
     may only reference nonterminals with larger index, plus terminals;
     the last nonterminal derives only terminals. *)
  QCheck.Gen.(
    let* num_nts = int_range 2 5 in
    let* num_ts = int_range 2 4 in
    let* seed = int_bound 100000 in
    return (num_nts, num_ts, seed))

let build_random_grammar (num_nts, num_ts, seed) =
  let st = Random.State.make [| seed |] in
  let b = Builder.create () in
  let nts = Array.init num_nts (fun i -> Builder.nonterminal b (Printf.sprintf "N%d" i)) in
  let ts = Array.init num_ts (fun i -> Builder.terminal b (Printf.sprintf "t%d" i)) in
  for i = 0 to num_nts - 1 do
    let num_prods = 1 + Random.State.int st 2 in
    for _ = 1 to num_prods do
      let len = Random.State.int st 4 in
      let rhs =
        List.init len (fun _ ->
            if i < num_nts - 1 && Random.State.bool st then
              nts.(i + 1 + Random.State.int st (num_nts - i - 1))
            else ts.(Random.State.int st num_ts))
      in
      Builder.prod b nts.(i) rhs
    done;
    (* Ensure every nonterminal has at least one all-terminal production. *)
    Builder.prod b nts.(i) [ ts.(Random.State.int st num_ts) ]
  done;
  Builder.set_start b nts.(0);
  Builder.build b

let derive_sentence g st =
  (* Random leftmost derivation from the start symbol; grammar is layered
     so this terminates. *)
  let rec expand sym acc =
    match sym with
    | Cfg.T t -> t :: acc
    | Cfg.N n ->
        let prods = Cfg.productions_of g n in
        let p = Cfg.production g prods.(Random.State.int st (Array.length prods)) in
        Array.fold_left (fun acc s -> expand s acc) acc p.rhs
  in
  List.rev (expand (Cfg.N (Cfg.start g)) [])

let prop_first_sound =
  QCheck.Test.make ~count:100 ~name:"FIRST contains first terminal of derivations"
    (QCheck.make gen_random_grammar_and_word)
    (fun params ->
      let g = build_random_grammar params in
      let a = Analysis.compute g in
      let st = Random.State.make [| 42 |] in
      let ok = ref true in
      for _ = 1 to 20 do
        match derive_sentence g st with
        | [] -> () (* nullable start: nothing to check *)
        | t :: _ ->
            if not (Bitset.mem (Analysis.first a (Cfg.start g)) t) then
              ok := false
      done;
      !ok)

let prop_nullable_sound =
  QCheck.Test.make ~count:100
    ~name:"non-nullable start never derives empty sentence"
    (QCheck.make gen_random_grammar_and_word)
    (fun params ->
      let g = build_random_grammar params in
      let a = Analysis.compute g in
      if Analysis.nullable a (Cfg.start g) then true
      else begin
        let st = Random.State.make [| 7 |] in
        let ok = ref true in
        for _ = 1 to 20 do
          if derive_sentence g st = [] then ok := false
        done;
        !ok
      end)

let suite =
  [
    Alcotest.test_case "builder basics" `Quick test_builder_basic;
    Alcotest.test_case "name interning" `Quick test_builder_interning;
    Alcotest.test_case "builder error cases" `Quick test_builder_errors;
    Alcotest.test_case "precedence assignment" `Quick test_prec_assignment;
    Alcotest.test_case "sequence desugaring" `Quick test_seq_desugaring;
    Alcotest.test_case "separated plus" `Quick test_plus_with_sep;
    Alcotest.test_case "production names" `Quick test_production_names;
    Alcotest.test_case "nullable" `Quick test_nullable;
    Alcotest.test_case "FIRST" `Quick test_first;
    Alcotest.test_case "FOLLOW" `Quick test_follow;
    Alcotest.test_case "FIRST/FOLLOW on expr grammar" `Quick test_first_expr;
    Alcotest.test_case "first_of_word" `Quick test_first_of_word;
    QCheck_alcotest.to_alcotest prop_first_sound;
    QCheck_alcotest.to_alcotest prop_nullable_sound;
  ]
