(* Direct unit tests for the incremental relexer (lib/document/relex) and
   the GSS path enumeration (lib/core/gss). *)

module Node = Parsedag.Node
module Relex = Vdoc.Relex
module Scanner = Lexgen.Scanner
module Gss = Iglr.Gss

let lexer = lazy (Languages.Language.lexer Languages.Calc.language)

(* The relexer's inputs for [text], as a fresh document holds them: the
   leaves, their start offsets, and the exact lookahead maximum. *)
let relex text ~pos ~del ~insert =
  let starts, _, tokens =
    Test_edit_fuzz.scratch_index (Lazy.force lexer) text
  in
  let leaves =
    Array.of_list
      (List.map
         (fun (t : Scanner.token) ->
           Node.make_term ~term:t.Scanner.term ~text:t.Scanner.text
             ~trivia:t.Scanner.trivia ~lex_la:t.Scanner.lookahead)
         tokens)
  in
  let la_bound =
    List.fold_left (fun m (t : Scanner.token) -> max m t.Scanner.lookahead) 0
      tokens
  in
  let new_text =
    String.sub text 0 pos ^ insert
    ^ String.sub text (pos + del) (String.length text - pos - del)
  in
  ( Relex.relex ~lexer:(Lazy.force lexer) ~leaves ~starts ~la_bound ~pos ~del
      ~insert ~new_text,
    new_text )

let texts r = List.map (fun (t : Scanner.token) -> t.Scanner.text) r.Relex.tokens

let test_replace_middle () =
  (* "a = 1 + 2;" — replace the "1" (leaf index 2).  The preceding "="
     did not examine byte 4 (its lookahead stopped at the space), so the
     damage is exactly one token. *)
  let r, _ = relex "a = 1 + 2;" ~pos:4 ~del:1 ~insert:"77" in
  Alcotest.(check int) "damage starts at leaf 2" 2 r.Relex.first;
  Alcotest.(check (list string)) "replacement tokens" [ "77" ] (texts r);
  Alcotest.(check int) "replaces one leaf" 1 r.Relex.replaced;
  Alcotest.(check (option string)) "no trailing change" None r.Relex.trailing

let test_resync_is_minimal () =
  (* An edit at the front must not replace the distant suffix. *)
  let text = "aa = 1; bb = 2; cc = 3;" in
  let r, _ = relex text ~pos:0 ~del:1 ~insert:"zz" in
  Alcotest.(check bool) "replaces only the first token region" true
    (r.Relex.first = 0 && r.Relex.replaced <= 2)

let test_unterminated_comment_stays_tokens () =
  (* "/*" with no closing "*/" is not a comment; it lexes as "/" "*" and
     resynchronizes right after the damaged "=". *)
  let text = "a = 1; b = 2;" in
  let r, _ = relex text ~pos:2 ~del:0 ~insert:"/*" in
  Alcotest.(check int) "minimal damage" 1 r.Relex.first;
  Alcotest.(check int) "one leaf replaced" 1 r.Relex.replaced;
  Alcotest.(check (list string)) "opener is two operator tokens"
    [ "/"; "*"; "=" ] (texts r)

let test_insert_at_boundary () =
  (* Appending after the final token: the ";" is rescanned (its lookahead
     reached end-of-input) and the new statement runs to the end, setting
     the trailing trivia. *)
  let r, _ = relex "a = 1;" ~pos:6 ~del:0 ~insert:" b = 2;" in
  Alcotest.(check int) "rescan from the final leaf" 3 r.Relex.first;
  Alcotest.(check (list string)) "appended tokens"
    [ ";"; "b"; "="; "2"; ";" ] (texts r);
  Alcotest.(check (option string)) "trailing updated" (Some "")
    r.Relex.trailing

let test_empty_edit () =
  (* A no-op edit still rescans the token whose lookahead covered the
     position; the replacement is identical (the Document layer trims it
     so the old node survives). *)
  let r, _ = relex "a = 1;" ~pos:3 ~del:0 ~insert:"" in
  Alcotest.(check (list string)) "identical rescan" [ "=" ] (texts r);
  Alcotest.(check int) "one leaf" 1 r.Relex.replaced

let test_long_lookahead_reaches_back () =
  (* The comment-reopening text of the document tests with its closer not
     yet typed: the unterminated "/*" lexes as "/" "*", and the "/"
     examined every byte to the end.  Typing the closer before "c"
     damages that "/", five tokens before the edit and reached only
     through its lookahead. *)
  let r, _ = relex "a = 1; /* b = 2; c;" ~pos:17 ~del:0 ~insert:"*/ " in
  Alcotest.(check int) "damage starts at the \"/\"" 4 r.Relex.first;
  Alcotest.(check int) "through the \"c\"" 7 r.Relex.replaced;
  Alcotest.(check (list string)) "the comment is trivia again" [ "c" ]
    (texts r);
  Alcotest.(check (option string)) "resyncs at the final \";\"" None
    r.Relex.trailing

let test_edit_in_trailing_trivia () =
  (* Past the last token and beyond its lookahead: no leaf is damaged,
     nothing is rescanned, only the trailing trivia changes. *)
  let r, _ = relex "a = 1;  " ~pos:8 ~del:0 ~insert:" " in
  Alcotest.(check int) "first is the token count" 4 r.Relex.first;
  Alcotest.(check int) "nothing replaced" 0 r.Relex.replaced;
  Alcotest.(check (list string)) "no tokens" [] (texts r);
  Alcotest.(check (option string)) "trailing updated" (Some "   ")
    r.Relex.trailing

(* GSS unit tests. *)

let label text = Node.make_term ~term:1 ~text ~trivia:"" ~lex_la:0

let test_gss_paths () =
  (* bottom <-A- mid1 <-C- top
            <-B- mid2 <-D-      (top has two links: to mid1 and mid2) *)
  let bottom = Gss.make_node ~state:0 [] in
  let a = label "A" and b = label "B" and c = label "C" and d = label "D" in
  let mid1 = Gss.make_node ~state:1 [ Gss.make_link ~head:bottom ~label:a ] in
  let mid2 = Gss.make_node ~state:2 [ Gss.make_link ~head:bottom ~label:b ] in
  let lc = Gss.make_link ~head:mid1 ~label:c in
  let ld = Gss.make_link ~head:mid2 ~label:d in
  let top = Gss.make_node ~state:3 [ lc ] in
  Gss.add_link top ld;
  let paths = Gss.paths top ~arity:2 in
  Alcotest.(check int) "two paths of length 2" 2 (List.length paths);
  List.iter
    (fun ((q : Gss.node), labels) ->
      Alcotest.(check int) "paths end at bottom" 0 q.Gss.state;
      Alcotest.(check int) "two labels" 2 (List.length labels))
    paths;
  (* Labels come out in yield order (bottom-to-top). *)
  let yields =
    List.map
      (fun (_, labels) ->
        String.concat ""
          (List.map
             (fun (n : Node.t) ->
               match n.Node.kind with Node.Term i -> i.Node.text | _ -> "?")
             labels))
      paths
    |> List.sort compare
  in
  Alcotest.(check (list string)) "yield order" [ "AC"; "BD" ] yields;
  (* Restricted enumeration. *)
  let through_c = Gss.paths_through top ~arity:2 ~link:lc in
  Alcotest.(check int) "one path through C" 1 (List.length through_c);
  let zero = Gss.paths top ~arity:0 in
  Alcotest.(check int) "empty path" 1 (List.length zero)

let suite =
  [
    Alcotest.test_case "replace middle token" `Quick test_replace_middle;
    Alcotest.test_case "minimal resync" `Quick test_resync_is_minimal;
    Alcotest.test_case "unterminated comment" `Quick
      test_unterminated_comment_stays_tokens;
    Alcotest.test_case "insert at boundary" `Quick test_insert_at_boundary;
    Alcotest.test_case "no-op edit" `Quick test_empty_edit;
    Alcotest.test_case "long lookahead reaches back" `Quick
      test_long_lookahead_reaches_back;
    Alcotest.test_case "edit in trailing trivia" `Quick
      test_edit_in_trailing_trivia;
    Alcotest.test_case "gss path enumeration" `Quick test_gss_paths;
  ]
