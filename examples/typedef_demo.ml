(* The paper's running example, end to end (Figures 1, 3, 8; Appendix B).

   A C++ statement "a (b);" is ambiguous between a declaration and a
   function call.  The IGLR parser retains both interpretations in the
   abstract parse dag; semantic analysis collects typedef binding contours
   and selects the right one.  Deleting the typedef later flips the
   interpretation without reparsing the region.

   Run with:  dune exec examples/typedef_demo.exe *)

module Session = Iglr.Session
module Node = Parsedag.Node
module Language = Languages.Language
module Diag = Semantics.Diag

let lang = Languages.Cpp_subset.language
let g = lang.Language.grammar

let show_choices root =
  Node.iter
    (fun n ->
      match n.Node.kind with
      | Node.Choice ci ->
          Printf.printf "  ambiguous region %S:\n" (Node.text_yield n);
          Array.iteri
            (fun i alt ->
              Printf.printf "   %s[%d] %s\n"
                (if i = ci.Node.selected then "*" else " ")
                i
                (Parsedag.Pp.to_sexp g alt))
            n.Node.kids
      | _ -> ())
    root

let () =
  let source =
    "typedef int a;\nint foo () { int i; int j; a (b); c (d); i = 1; j = 2; }\n"
  in
  print_endline "--- source (Figure 1) ---";
  print_string source;

  let session, outcome =
    Session.create ~table:(Language.table lang)
      ~lexer:(Language.lexer lang) source
  in
  (match outcome with
  | Session.Parsed stats ->
      Printf.printf
        "--- parsed: %d parser(s) at peak (forked on the typedef \
         conflict) ---\n"
        stats.Iglr.Glr.max_parsers
  | Session.Recovered _ -> failwith "parse failed");

  print_endline "--- interpretations before semantic analysis ---";
  show_choices (Session.root session);

  (* Semantic disambiguation (§4.2): typedef contours decide namespaces. *)
  let sem = Diag.create g in
  let report = Diag.decide sem (Session.root session) in
  Printf.printf
    "--- semantic pass: %d typedefs, %d choices decided, %d unresolved ---\n"
    report.Diag.typedef_decls report.Diag.decided report.Diag.unresolved;
  show_choices (Session.root session);

  (* Appendix B: delete the ";" after "a (b)" and put it back.  The
     non-deterministic region is reconstructed atomically; the rest of the
     program is reused. *)
  let semi = String.index_from source (String.index source 'b') ';' in
  print_endline "--- appendix B: delete and re-insert the semicolon ---";
  Session.edit session ~pos:semi ~del:1 ~insert:"";
  (match Session.reparse session with
  | Session.Parsed _ -> print_endline "  (without the semicolon it still parses)"
  | Session.Recovered _ ->
      print_endline "  (without the semicolon the edit is held back)");
  Session.edit session ~pos:semi ~del:0 ~insert:";";
  (match Session.reparse session with
  | Session.Parsed stats ->
      Printf.printf
        "  reparsed: %d subtrees reused whole, only %d nodes rebuilt\n"
        stats.Iglr.Glr.shifted_subtrees stats.Iglr.Glr.nodes_created
  | Session.Recovered _ -> failwith "reparse failed");
  (* Re-establish the semantic decisions on the reconstructed region. *)
  ignore (Diag.decide sem (Session.root session));

  (* §4.2's closing scenario: removing the typedef declaration changes the
     namespace of "a"; the next semantic pass re-filters only the affected
     region — the parser does not touch the use site at all. *)
  print_endline "--- delete 'typedef int a;' and re-analyze ---";
  Session.edit session ~pos:0 ~del:15 ~insert:"";
  (match Session.reparse session with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> failwith "reparse failed");
  let report2 = Diag.decide sem (Session.root session) in
  Printf.printf
    "  re-analysis: %d decisions recomputed, %d interpretation(s) flipped\n"
    report2.Diag.decided report2.Diag.reinterpreted;
  show_choices (Session.root session)
