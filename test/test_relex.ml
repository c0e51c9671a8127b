(* Direct unit tests for the incremental relexer (lib/document/relex) and
   the GSS reduction walker (lib/core/gss). *)

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
  ( Relex.relex ~lexer:(Lazy.force lexer) ~count:(Array.length leaves)
      ~leaf:(Array.get leaves) ~start:(Array.get starts) ~la_bound ~pos ~del
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

(* The path enumeration the reduction walker replaced, kept as its
   oracle: every downward path of exactly [arity] links as [(bottom,
   labels)], labels in yield order, the last path found first. *)
let ref_paths node ~arity =
  let acc = ref [] in
  let rec go (n : Gss.node) depth labels =
    if depth = 0 then acc := (n, labels) :: !acc
    else
      List.iter
        (fun (l : Gss.link) -> go l.Gss.head (depth - 1) (l.Gss.label :: labels))
        n.Gss.links
  in
  go node arity [];
  !acc

(* Only the paths using [link] at least once. *)
let ref_paths_through node ~arity ~link =
  let acc = ref [] in
  let rec go (n : Gss.node) depth labels used =
    if depth = 0 then begin
      if used then acc := (n, labels) :: !acc
    end
    else
      List.iter
        (fun (l : Gss.link) ->
          go l.Gss.head (depth - 1) (l.Gss.label :: labels) (used || l == link))
        n.Gss.links
  in
  go node arity [] false;
  !acc

(* The walker's calls, in order: bottom, kid array and [many] flag. *)
let walk ?through top ~arity =
  let calls = ref [] in
  Gss.iter_paths top ~arity ~through
    (fun calls _ ~many q kids -> calls := (q, kids, many) :: !calls)
    calls 0;
  List.rev !calls

let paths_of calls = List.map (fun (q, kids, _) -> (q, Array.to_list kids)) calls

(* A path list by identity: bottom gid and label nids. *)
let ids paths =
  List.map
    (fun ((q : Gss.node), labels) ->
      (q.Gss.gid, List.map (fun (n : Node.t) -> n.Node.nid) labels))
    paths

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
  let paths = paths_of (walk top ~arity:2) in
  Alcotest.(check int) "two paths of length 2" 2 (List.length paths);
  List.iter
    (fun ((q : Gss.node), labels) ->
      Alcotest.(check int) "paths end at bottom" 0 q.Gss.state;
      Alcotest.(check int) "two labels" 2 (List.length labels))
    paths;
  Alcotest.(check bool) "same order as the enumeration" true
    (ids paths = ids (ref_paths top ~arity:2));
  (* Labels come out in yield order (bottom-to-top). *)
  let yields =
    List.map
      (fun (_, labels) ->
        String.concat ""
          (List.map
             (fun (n : Node.t) ->
               match n.Node.kind with Node.Term i -> i.text | _ -> "?")
             labels))
      paths
    |> List.sort compare
  in
  Alcotest.(check (list string)) "yield order" [ "AC"; "BD" ] yields;
  (* Restricted enumeration. *)
  let through_c = walk top ~arity:2 ~through:lc in
  Alcotest.(check int) "one path through C" 1 (List.length through_c);
  let zero = walk top ~arity:0 in
  Alcotest.(check int) "empty path" 1 (List.length zero)

(* Property: on random small forked GSSs — dead ends, ε-labelled links and
   shared nodes included — the walker yields exactly the enumeration's
   (bottom, kids) sequence, in its order, for every arity 0–4, with and
   without a must-use link; [many] reports two or more paths, and every
   call gets its own kid array. *)
let prop_walker_is_enumeration =
  QCheck.Test.make ~count:300 ~name:"gss walker = path enumeration"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let size = 2 + Random.State.int st 7 in
      let nodes = Array.make size (Gss.make_node ~state:0 []) in
      let links = ref [] in
      for i = 1 to size - 1 do
        let n = Gss.make_node ~state:i [] in
        (* Up to three links, each toward a lower node: acyclic. *)
        for _ = 1 to Random.State.int st 4 do
          let lbl =
            if Random.State.int st 4 = 0 then
              Node.make_prod ~prod:0 ~state:Node.nostate [||]
            else label (string_of_int i)
          in
          let l =
            Gss.make_link ~head:nodes.(Random.State.int st i) ~label:lbl
          in
          Gss.add_link n l;
          links := l :: !links
        done;
        nodes.(i) <- n
      done;
      let top = nodes.(size - 1) in
      let ok = ref true in
      for arity = 0 to 4 do
        let check through expected =
          let calls = walk ?through top ~arity in
          let got = ids (paths_of calls) in
          let n = List.length calls in
          let fresh =
            List.for_all
              (fun (_, k, _) ->
                Array.length k = 0
                || List.length (List.filter (fun (_, k', _) -> k' == k) calls)
                   = 1)
              calls
          in
          if
            got <> ids expected
            || List.exists (fun (_, _, many) -> many <> (n >= 2)) calls
            || not fresh
          then ok := false
        in
        check None (ref_paths top ~arity);
        List.iter
          (fun l -> check (Some l) (ref_paths_through top ~arity ~link:l))
          !links
      done;
      !ok)

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
    QCheck_alcotest.to_alcotest prop_walker_is_enumeration;
  ]
