(* Shared grammar fixtures used across test suites. *)

module Cfg = Grammar.Cfg
module Builder = Grammar.Builder

(* The dragon-book expression grammar:
   E -> E + T | T;  T -> T * F | F;  F -> ( E ) | id.  LALR-deterministic. *)
let expr_grammar () =
  let b = Builder.create () in
  let e = Builder.nonterminal b "E" in
  let t = Builder.nonterminal b "T" in
  let f = Builder.nonterminal b "F" in
  let plus = Builder.terminal b "+" in
  let times = Builder.terminal b "*" in
  let lparen = Builder.terminal b "(" in
  let rparen = Builder.terminal b ")" in
  let id = Builder.terminal b "id" in
  Builder.prod b e [ e; plus; t ];
  Builder.prod b e [ t ];
  Builder.prod b t [ t; times; f ];
  Builder.prod b t [ f ];
  Builder.prod b f [ lparen; e; rparen ];
  Builder.prod b f [ id ];
  Builder.set_start b e;
  Builder.build b

(* Ambiguous expression grammar: E -> E + E | E * E | ( E ) | id.
   With precedence declarations it becomes deterministic; without them the
   table retains shift/reduce conflicts (GLR yields all parse trees). *)
let ambig_expr_grammar ~with_prec () =
  let b = Builder.create () in
  let e = Builder.nonterminal b "E" in
  if with_prec then begin
    Builder.declare_prec b Cfg.Left [ "+" ];
    Builder.declare_prec b Cfg.Left [ "*" ]
  end;
  let plus = Builder.terminal b "+" in
  let times = Builder.terminal b "*" in
  let lparen = Builder.terminal b "(" in
  let rparen = Builder.terminal b ")" in
  let id = Builder.terminal b "id" in
  Builder.prod b e [ e; plus; e ];
  Builder.prod b e [ e; times; e ];
  Builder.prod b e [ lparen; e; rparen ];
  Builder.prod b e [ id ];
  Builder.set_start b e;
  Builder.build b

(* LALR-but-not-SLR grammar (dragon book 4.39):
   S -> L = R | R;  L -> * R | id;  R -> L. *)
let lalr_not_slr_grammar () =
  let b = Builder.create () in
  let s = Builder.nonterminal b "S" in
  let l = Builder.nonterminal b "L" in
  let r = Builder.nonterminal b "R" in
  let eq = Builder.terminal b "=" in
  let star = Builder.terminal b "*" in
  let id = Builder.terminal b "id" in
  Builder.prod b s [ l; eq; r ];
  Builder.prod b s [ r ];
  Builder.prod b l [ star; r ];
  Builder.prod b l [ id ];
  Builder.prod b r [ l ];
  Builder.set_start b s;
  Builder.build b

(* Figure 7 of the paper: an LR(2) grammar.
   A -> B c | D e;  B -> U z;  D -> V z;  U -> x;  V -> x.
   After reading "x", an LALR(1) parser cannot decide between U -> x and
   V -> x (both have lookahead z): a GLR parser forks and the fork
   collapses once "c" or "e" arrives. *)
let lr2_grammar () =
  let b = Builder.create () in
  let a = Builder.nonterminal b "A" in
  let bb = Builder.nonterminal b "B" in
  let d = Builder.nonterminal b "D" in
  let u = Builder.nonterminal b "U" in
  let v = Builder.nonterminal b "V" in
  let c = Builder.terminal b "c" in
  let e = Builder.terminal b "e" in
  let z = Builder.terminal b "z" in
  let x = Builder.terminal b "x" in
  Builder.prod b a [ bb; c ];
  Builder.prod b a [ d; e ];
  Builder.prod b bb [ u; z ];
  Builder.prod b d [ v; z ];
  Builder.prod b u [ x ];
  Builder.prod b v [ x ];
  Builder.set_start b a;
  Builder.build b

(* A grammar with nullable nonterminals exercising FIRST/FOLLOW and
   epsilon handling:  S -> A B end;  A -> a | ε;  B -> b | ε. *)
let nullable_grammar () =
  let b = Builder.create () in
  let s = Builder.nonterminal b "S" in
  let aa = Builder.nonterminal b "A" in
  let bb = Builder.nonterminal b "B" in
  let ta = Builder.terminal b "a" in
  let tb = Builder.terminal b "b" in
  let tend = Builder.terminal b "end" in
  Builder.prod b s [ aa; bb; tend ];
  Builder.prod b aa [ ta ];
  Builder.prod b aa [];
  Builder.prod b bb [ tb ];
  Builder.prod b bb [];
  Builder.set_start b s;
  Builder.build b

(* Statement-list grammar using the sequence notation:
   prog -> stmt* ; stmt -> id = id ; | { stmt* } *)
let seq_grammar () =
  let b = Builder.create () in
  let prog = Builder.nonterminal b "prog" in
  let stmt = Builder.nonterminal b "stmt" in
  let id = Builder.terminal b "id" in
  let eq = Builder.terminal b "=" in
  let semi = Builder.terminal b ";" in
  let lbrace = Builder.terminal b "{" in
  let rbrace = Builder.terminal b "}" in
  let stmts = Builder.star b ~name:"stmt*" stmt in
  Builder.prod b prog [ stmts ];
  Builder.prod b stmt [ id; eq; id; semi ];
  Builder.prod b stmt [ lbrace; stmts; rbrace ];
  Builder.set_start b prog;
  Builder.build b

(* Palindrome-ish truly ambiguous grammar: S -> S S | a.  Exponentially
   many parses; exercises GLR packing (local ambiguity). *)
let sss_grammar () =
  let b = Builder.create () in
  let s = Builder.nonterminal b "S" in
  let a = Builder.terminal b "a" in
  Builder.prod b s [ s; s ];
  Builder.prod b s [ a ];
  Builder.set_start b s;
  Builder.build b

(* The dynamic filter pipeline (§4.1) that filter compilation replaces:
   a session on [table] (a conflict-retaining one) whose committed trees
   all go through [Syn_filter.apply] — the initial tree here, every
   later one through the commit hook. *)
let filtered_session ~table ~lexer filters text =
  let module Session = Iglr.Session in
  let s, outcome = Session.create ~table ~lexer text in
  let apply root =
    ignore (Iglr.Syn_filter.apply (Lrtab.Table.grammar table) filters root)
  in
  (match outcome with
  | Session.Parsed _ -> apply (Session.root s)
  | Session.Recovered { isolated; _ } ->
      if isolated > 0 then apply (Session.root s));
  Session.on_commit s (fun ~watermark:_ root -> apply root);
  (s, outcome)

(* A language's own dynamic pipeline: its conflict-retaining table with
   its declared filters. *)
let dynamic_session lang text =
  let module Language = Languages.Language in
  filtered_session
    ~table:(Language.conflict_table lang)
    ~lexer:(Language.lexer lang) lang.Language.ambig.Language.syn_filters text

let count_choices root = Parsedag.Stats.((measure root).choice_nodes)

(* One digit-bearing program per bundled language that the deterministic
   baselines can parse: every registry language whose parse table is
   conflict-free, so a new deterministic language fails here until it
   brings a program. *)
let deterministic_programs =
  lazy
    (let module Language = Languages.Language in
     let program = function
       | "calc" -> "a = 11;\nb = (a + 22) * 3;\nc = b / 4;\n"
       | "tiny" ->
           "proc f1 ( ) { a = 1 + 2; print a * 3; }\n\
            proc g2 ( ) { if (a1) { b = (4 + a) * 5; } else { print 6; }\n\
           \  while (b) { b = b + 7; } }\n"
       | "modula2" ->
           "MODULE m1;\n\
            VAR x : INTEGER;\n\
            PROCEDURE p2; BEGIN y := y DIV 2; END p2;\n\
            BEGIN\n\
            IF x < 10 THEN x := x + 1; ELSE x := 0; END;\n\
            WHILE x # 0 DO x := x - 3 * x4; END;\n\
            END m1.\n"
       | "lisp" -> "(define (f1 x) (+ x 1 (g2 3)))\n'(a4 5 \"s6\") 78\n"
       | "java" ->
           "class P1 {\n\
           \  int x2;\n\
           \  int d() { int d3 = x2 * 4 + 5; return d3; }\n\
           \  void r() { x2 = 6; if (x2 == 7) x2 = 8; else x2 = 9; }\n\
            }\n"
       | name -> failwith ("no deterministic baseline program for " ^ name)
     in
     List.filter_map
       (fun (name, lang) ->
         if Lrtab.Table.is_deterministic (Language.table lang) then
           Some (name, lang, program name)
         else None)
       Languages.Registry.all)
