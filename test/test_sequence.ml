(* Tests for the sequence utilities (lib/dag/sequence) and the Lisp
   subset. *)

module Node = Parsedag.Node
module Sequence = Parsedag.Sequence
module Session = Iglr.Session
module Language = Languages.Language
module Cfg = Grammar.Cfg

let session lang text =
  let s, outcome =
    Session.create ~table:(Language.table lang) ~lexer:(Language.lexer lang)
      text
  in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.failf "parse failed for %S" text);
  s

let calc = Languages.Calc.language

(* The statement list inside a parsed calc program. *)
let stmt_list s =
  (* root -> program -> stmt* *)
  let root = Session.root s in
  let program = root.Node.kids.(1) in
  program.Node.kids.(0)

let test_elements_star () =
  let s = session calc "a = 1;\nb = 2;\nc = 3;\n" in
  let elems = Sequence.elements calc.Language.grammar (stmt_list s) in
  Alcotest.(check int) "three statements" 3 (List.length elems);
  let texts = List.map (fun e -> String.trim (Node.text_yield e)) elems in
  Alcotest.(check (list string)) "source order"
    [ "a = 1;"; "b = 2;"; "c = 3;" ] texts

let test_elements_empty () =
  let s = session calc "" in
  Alcotest.(check int) "empty sequence" 0
    (List.length (Sequence.elements calc.Language.grammar (stmt_list s)))

let test_separated_plus () =
  (* C argument lists are comma-separated plus-sequences. *)
  let c = Languages.C_subset.language in
  let s = session c "int f () { g(1, 2, 3); }" in
  let arg_list = ref None in
  Node.iter
    (fun n ->
      match n.Node.kind with
      | Node.Prod p ->
          let prod = Grammar.Cfg.production c.Language.grammar p in
          if
            String.equal
              (Grammar.Cfg.nonterminal_name c.Language.grammar prod.lhs)
              "arg_list"
            && !arg_list = None
          then arg_list := Some n
      | _ -> ())
    (Session.root s);
  match !arg_list with
  | None -> Alcotest.fail "no arg_list node"
  | Some node ->
      (* Find the outermost arg_list spine node: walk up while the parent
         is also an arg_list. *)
      let rec outer (n : Node.t) =
        let p = n.Node.parent in
        match p.Node.kind with
        | Node.Prod q
          when (Grammar.Cfg.production c.Language.grammar q).lhs
               = (match node.Node.kind with
                 | Node.Prod r ->
                     (Grammar.Cfg.production c.Language.grammar r).lhs
                 | _ -> -1) ->
            outer p
        | _ -> n
      in
      let elems = Sequence.elements c.Language.grammar (outer node) in
      Alcotest.(check int) "three arguments (separators skipped)" 3
        (List.length elems)

let test_spine_depth_matches () =
  let s = session calc "a = 1;\nb = 2;\n" in
  Alcotest.(check int) "depth = element count" 2
    (List.length (Sequence.elements calc.Language.grammar (stmt_list s)))

(* A choice on the cons chain is reported before the walk follows it,
   so the caller can decide it first: a choice between two calc
   statement lists spliced in as the list kid of the outer cons. *)
let test_walk_decides_chain_choice () =
  let g = calc.Language.grammar in
  let spine = stmt_list (session calc "a = 1;\nb = 2;\n") in
  let other = stmt_list (session calc "c = 3;\n") in
  let nt = match Node.symbol g spine with `N nt -> nt | _ -> assert false in
  spine.Node.kids.(0) <- Node.make_choice ~nt [| spine.Node.kids.(0); other |];
  let walk decide =
    let seen = ref [] in
    Sequence.walk g spine (fun step k ->
        match (step, k.Node.kind) with
        | Sequence.Choice, Node.Choice ci ->
            if decide then ci.Node.selected <- 1;
            seen := "choice" :: !seen
        | Sequence.Choice, _ -> Alcotest.fail "choice step on a non-choice"
        | Sequence.Skip, _ -> seen := "skip" :: !seen
        | Sequence.Element, _ ->
            seen := String.trim (Node.text_yield k) :: !seen);
    List.rev !seen
  in
  Alcotest.(check (list string)) "first alternative while undecided"
    [ "choice"; "a = 1;"; "b = 2;" ] (walk false);
  Alcotest.(check (list string)) "the alternative decided at the step"
    [ "choice"; "c = 3;"; "b = 2;" ] (walk true)

let lisp = Languages.Lisp.language

let test_lisp_parses () =
  let s =
    session lisp "(define (f x) (+ x 1)) ; comment\n'(a b \"str\") 42\n"
  in
  Alcotest.(check string) "yield round-trips"
    "(define (f x) (+ x 1)) ; comment\n'(a b \"str\") 42\n"
    (Node.text_yield (Session.root s))

let test_lisp_incremental () =
  let text = "(a (b (c (d (e 1)))))\n(f 2)\n" in
  let s = session lisp text in
  let pos = String.index text '1' in
  Session.edit s ~pos ~del:1 ~insert:"9";
  (match Session.reparse s with
  | Session.Parsed stats ->
      Alcotest.(check bool) "second toplevel form reused" true
        (stats.Iglr.Glr.shifted_subtrees > 0)
  | Session.Recovered _ -> Alcotest.fail "reparse failed");
  let fresh = session lisp (Session.text s) in
  Alcotest.(check string) "incremental = batch"
    (Parsedag.Pp.to_sexp lisp.Language.grammar (Session.root fresh))
    (Parsedag.Pp.to_sexp lisp.Language.grammar (Session.root s))

let test_lisp_depth () =
  (* [session] fails the test unless the text parses with no recovery. *)
  let deep = String.make 50 '(' ^ "x" ^ String.make 50 ')' in
  let s = session lisp deep in
  Alcotest.(check string) "deep nesting round-trips" deep
    (Node.text_yield (Session.root s))

(* The one spine reader under random damage.  Programs are sentences of
   every bundled grammar (shortest first, rendered with the ambiguity
   analyzer's lexemes); edits insert garbage token runs, other sentences
   and deletions, so error isolation splices error nodes into spines,
   cons nodes included.  After every reparse, on every spine root of the
   committed dag: the walk reports each token once, in document order,
   and its elements with choices resolved are [elements]; the element
   test agrees with the parent-path check it replaced; and every
   sequence node lies on the cons chain of exactly one spine root, so
   the sanitizer's spine check visits each spine once. *)

let render (lang : Language.t) terms =
  let g = lang.Language.grammar in
  String.concat " "
    (List.map
       (fun t ->
         let name = Cfg.terminal_name g t in
         match List.assoc_opt name lang.Language.ambig.Language.lexemes with
         | Some l -> l
         | None -> (
             match name with "id" -> "x" | "num" -> "1" | _ -> name))
       terms)

let sentences =
  lazy
    (List.map
       (fun (name, (lang : Language.t)) ->
         let g = lang.Language.grammar in
         let typedefs =
           (* Statements that read as a declaration or a call: choice
              nodes between an element and its spine. *)
           if name = "c" || name = "cpp" then
             String.split_on_char '\n' Test_edit_fuzz.base_typedefs
           else []
         in
         Grammar.Yield.enumerate ~max_count:200 g ~from:(Cfg.start g)
           ~max_len:9
         |> List.map (render lang)
         |> fun l -> (lang, Array.of_list (typedefs @ l)))
       Languages.Registry.all)

(* The reading [Sequence.elements] had before it was built on the walk,
   kept as its oracle. *)
let reference_elements g node =
  let spine_role (n : Node.t) =
    let n = Node.alt n in
    match n.Node.kind with
    | Node.Prod p ->
        let prod = Cfg.production g p in
        if Cfg.seq_kind g prod.Cfg.lhs = Cfg.Seq then Some (prod, n) else None
    | _ -> None
  in
  let rec collect (n : Node.t) acc =
    match spine_role n with
    | None -> Node.alt n :: acc
    | Some (prod, n) -> (
        match prod.Cfg.role with
        | Cfg.Seq_empty -> acc
        | Cfg.Seq_one -> Node.alt n.Node.kids.(0) :: acc
        | Cfg.Seq_cons ->
            let elem = n.Node.kids.(Array.length n.Node.kids - 1) in
            collect n.Node.kids.(0) (Node.alt elem :: acc)
        | Cfg.Plain ->
            if Array.length n.Node.kids = 1 then collect n.Node.kids.(0) acc
            else Node.alt n :: acc)
  in
  collect node []

let same xs ys = List.compare_lengths xs ys = 0 && List.for_all2 ( == ) xs ys

let check_spines g root =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let on_chain = Hashtbl.create 64 in
  Node.iter
    (fun n ->
      if Sequence.is_element g n <> Test_edit_fuzz.reference_is_element g n
      then fail "element test disagrees on node %d" n.Node.nid;
      if Sequence.is_spine_root g n then begin
        let yield = Buffer.create 64 and elems = ref [] in
        Sequence.walk g n (fun step k ->
            match step with
            | Sequence.Choice -> ()
            | Sequence.Skip -> Buffer.add_string yield (Node.text_yield k)
            | Sequence.Element ->
                Buffer.add_string yield (Node.text_yield k);
                elems := k :: !elems);
        if Buffer.contents yield <> Node.text_yield n then
          fail "walk of spine %d misses or repeats tokens" n.Node.nid;
        let resolved = List.rev_map Node.alt !elems in
        if not (same resolved (reference_elements g n)) then
          fail "elements of spine %d differ from the reading it replaced"
            n.Node.nid;
        if not (same resolved (Sequence.elements g n)) then
          fail "walk's elements of spine %d differ from elements" n.Node.nid;
        let rec chain (k : Node.t) =
          if Hashtbl.mem on_chain k.Node.nid then
            fail "sequence node %d on two spine roots' chains" k.Node.nid;
          Hashtbl.replace on_chain k.Node.nid ();
          match k.Node.kind with
          | Node.Prod p when (Cfg.production g p).Cfg.role = Cfg.Seq_cons ->
              if Sequence.is_sequence g k.Node.kids.(0) then
                chain k.Node.kids.(0)
          | _ -> ()
        in
        chain n
      end)
    root;
  Node.iter
    (fun n ->
      if Sequence.is_sequence g n && not (Hashtbl.mem on_chain n.Node.nid)
      then fail "sequence node %d lies on no spine root's chain" n.Node.nid)
    root

let garbage =
  [| " ) ("; " ; ;"; " * /"; " = ="; " ( ;"; " ) ) )"; " + *"; " }" |]

let spine_replay (seed, count) =
  let rng = Random.State.make [| seed |] in
  List.iter
    (fun ((lang : Language.t), pool) ->
      let g = lang.Language.grammar in
      let pick () = pool.(Random.State.int rng (Array.length pool)) in
      let text =
        String.concat "\n"
          (List.init (1 + Random.State.int rng 3) (fun _ -> pick ()))
      in
      match
        Session.create ~table:(Language.table lang)
          ~lexer:(Language.lexer lang) text
      with
      | exception Lexgen.Scanner.Lex_error _ -> ()
      | s, _ ->
          check_spines g (Session.root s);
          for _ = 1 to count do
            let len = String.length (Session.text s) in
            let pos = Random.State.int rng (len + 1) in
            let del, insert =
              match Random.State.int rng 3 with
              | 0 -> (0, garbage.(Random.State.int rng (Array.length garbage)))
              | 1 -> (0, " " ^ pick () ^ " ")
              | _ -> (min (1 + Random.State.int rng 4) (len - pos), "")
            in
            (match Session.edit s ~pos ~del ~insert with
            | () -> ignore (Session.reparse s)
            | exception Lexgen.Scanner.Lex_error _ -> ());
            check_spines g (Session.root s)
          done)
    (Lazy.force sentences);
  true

let prop_spines =
  QCheck.Test.make ~count:100
    ~name:"one spine reader: walk = elements, element test, one root per spine"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 12))
    spine_replay

let suite =
  [
    Alcotest.test_case "star elements" `Quick test_elements_star;
    Alcotest.test_case "empty sequence" `Quick test_elements_empty;
    Alcotest.test_case "separated plus" `Quick test_separated_plus;
    Alcotest.test_case "spine depth" `Quick test_spine_depth_matches;
    Alcotest.test_case "walk decides a chain choice first" `Quick
      test_walk_decides_chain_choice;
    Alcotest.test_case "lisp parses" `Quick test_lisp_parses;
    Alcotest.test_case "lisp incremental" `Quick test_lisp_incremental;
    Alcotest.test_case "lisp deep nesting" `Quick test_lisp_depth;
    Test_seed.to_alcotest prop_spines;
  ]
