(* Tests for the self-versioning document: edits, incremental relexing,
   change tracking (lib/document). *)

module Node = Parsedag.Node
module Document = Vdoc.Document
module Language = Languages.Language

let calc = Languages.Calc.language
let lexer () = Language.lexer calc

let mk text = Document.create ~lexer:(lexer ()) text
let leaves doc = Array.init (Document.token_count doc) (Document.leaf doc)

let leaf_texts doc =
  leaves doc |> Array.to_list
  |> List.map (fun (l : Node.t) ->
         match l.Node.kind with
         | Node.Term i -> i.text
         | _ -> assert false)

let test_create () =
  let doc = mk "a = 1 + 2;" in
  Alcotest.(check string) "text" "a = 1 + 2;" (Document.text doc);
  Alcotest.(check (list string)) "tokens"
    [ "a"; "="; "1"; "+"; "2"; ";" ] (leaf_texts doc);
  Alcotest.(check string) "tree yield" "a = 1 + 2;"
    (Node.text_yield (Document.root doc))

let test_edit_replace_token () =
  let doc = mk "a = 1 + 2;" in
  (* Replace "1" with "42". *)
  let replaced = Document.edit doc ~pos:4 ~del:1 ~insert:"42" in
  Alcotest.(check string) "text" "a = 42 + 2;" (Document.text doc);
  Alcotest.(check (list string)) "tokens"
    [ "a"; "="; "42"; "+"; "2"; ";" ] (leaf_texts doc);
  Alcotest.(check bool) "replaced >= 1" true (replaced >= 1);
  Alcotest.(check string) "yield still matches" "a = 42 + 2;"
    (Node.text_yield (Document.root doc))

let test_edit_damage_is_local () =
  let doc = mk "aa = bb + cc * dd;" in
  let before = leaves doc in
  ignore (Document.edit doc ~pos:5 ~del:2 ~insert:"xx");
  let after = leaves doc in
  (* Only the "bb" token is replaced; all other terminals are the same
     physical nodes. *)
  Alcotest.(check int) "same token count" (Array.length before)
    (Array.length after);
  Array.iteri
    (fun i (old : Node.t) ->
      if i = 2 then
        Alcotest.(check bool) "damaged token is fresh" true (old != after.(i))
      else
        Alcotest.(check bool)
          (Printf.sprintf "token %d reused" i)
          true
          (old == after.(i)))
    before

let test_edit_splits_token () =
  let doc = mk "abc;" in
  (* Insert "+" inside the identifier: "ab+c;". *)
  ignore (Document.edit doc ~pos:2 ~del:0 ~insert:"+");
  Alcotest.(check (list string)) "token split" [ "ab"; "+"; "c"; ";" ]
    (leaf_texts doc)

let test_edit_joins_tokens () =
  let doc = mk "ab + c;" in
  (* Delete " + " so identifiers fuse: "abc;". *)
  ignore (Document.edit doc ~pos:2 ~del:3 ~insert:"");
  Alcotest.(check (list string)) "tokens joined" [ "abc"; ";" ]
    (leaf_texts doc);
  Alcotest.(check string) "text" "abc;" (Document.text doc)

let test_edit_trivia_only () =
  let doc = mk "a + b;" in
  let before = leaves doc in
  (* Insert spaces between "+" and "b": damages only the "b" token (its
     trivia changes). *)
  ignore (Document.edit doc ~pos:3 ~del:0 ~insert:"   ");
  Alcotest.(check string) "text" "a +    b;" (Document.text doc);
  let after = leaves doc in
  Alcotest.(check bool) "prefix reused" true (before.(0) == after.(0));
  Alcotest.(check bool) "suffix reused" true (before.(3) == after.(3))

let test_edit_trailing () =
  let doc = mk "a;  " in
  ignore (Document.edit doc ~pos:4 ~del:0 ~insert:" ");
  Alcotest.(check string) "text" "a;   " (Document.text doc);
  (* Appending a token at the end. *)
  ignore (Document.edit doc ~pos:5 ~del:0 ~insert:"b;");
  Alcotest.(check (list string)) "appended" [ "a"; ";"; "b"; ";" ]
    (leaf_texts doc)

let test_edit_at_start () =
  let doc = mk "b = 1;" in
  ignore (Document.edit doc ~pos:0 ~del:0 ~insert:"a");
  Alcotest.(check (list string)) "prefixed id" [ "ab"; "="; "1"; ";" ]
    (leaf_texts doc)

let test_empty_document () =
  let doc = mk "" in
  Alcotest.(check int) "no tokens" 0 (Document.token_count doc);
  ignore (Document.edit doc ~pos:0 ~del:0 ~insert:"x;");
  Alcotest.(check (list string)) "insert into empty" [ "x"; ";" ]
    (leaf_texts doc)

let test_delete_all () =
  let doc = mk "a + b;" in
  ignore (Document.edit doc ~pos:0 ~del:6 ~insert:"");
  Alcotest.(check int) "empty" 0 (Document.token_count doc);
  Alcotest.(check string) "text empty" "" (Document.text doc)

let test_changed_marking () =
  let doc = mk "a = 1 + 2;" in
  Node.commit (Document.root doc);
  ignore (Document.edit doc ~pos:4 ~del:1 ~insert:"9");
  let changed = Document.changed_tokens doc in
  Alcotest.(check int) "one changed token" 1 (List.length changed);
  Alcotest.(check bool) "root sees nested change" true
    (Node.has_changes (Document.root doc))

let test_out_of_bounds () =
  let doc = mk "ab" in
  Alcotest.check_raises "oob"
    (Invalid_argument "Document.edit: range out of bounds") (fun () ->
      ignore (Document.edit doc ~pos:1 ~del:5 ~insert:""))

(* Property: any single edit keeps (a) text = spliced text, (b) tree yield
   = text, (c) token stream = batch relex of the new text. *)
let gen_edit_case =
  QCheck.Gen.(
    let frag =
      oneofl [ "ab"; "x"; "12"; "+"; "*"; "("; ")"; " "; ";"; "=" ]
    in
    let* base = map (String.concat "") (list_size (int_range 1 30) frag) in
    let* pos = int_bound (String.length base) in
    let* del = int_bound (String.length base - pos) in
    let* ins = map (String.concat "") (list_size (int_bound 4) frag) in
    return (base, pos, del, ins))

let prop_edit_consistent =
  QCheck.Test.make ~count:500 ~name:"edit = batch relex of new text"
    (QCheck.make gen_edit_case)
    (fun (base, pos, del, ins) ->
      let doc = mk base in
      ignore (Document.edit doc ~pos ~del ~insert:ins);
      let expected_text =
        String.sub base 0 pos ^ ins
        ^ String.sub base (pos + del) (String.length base - pos - del)
      in
      let batch_tokens, _ = Lexgen.Scanner.all (lexer ()) expected_text in
      Document.text doc = expected_text
      && Node.text_yield (Document.root doc) = expected_text
      && leaf_texts doc
         = List.map (fun (t : Lexgen.Scanner.token) -> t.Lexgen.Scanner.text)
             batch_tokens)

let prop_multi_edit =
  QCheck.Test.make ~count:200 ~name:"sequences of edits stay consistent"
    QCheck.(pair (QCheck.make gen_edit_case) (int_bound 1000))
    (fun ((base, _, _, _), seed) ->
      let doc = mk base in
      let st = Random.State.make [| seed |] in
      let ok = ref true in
      for _ = 1 to 5 do
        let len = Document.length doc in
        let pos = if len = 0 then 0 else Random.State.int st (len + 1) in
        let del = if len - pos = 0 then 0 else Random.State.int st (len - pos) in
        let ins = List.nth [ "a"; "1"; "+"; " "; "" ] (Random.State.int st 5) in
        ignore (Document.edit doc ~pos ~del ~insert:ins);
        if Node.text_yield (Document.root doc) <> Document.text doc then
          ok := false
      done;
      !ok)

let test_comment_reopening () =
  (* Inserting a comment opener swallows everything up to the stray "*/"
     into trivia: the damage cannot resync inside the commented span, so
     all of its tokens are replaced at once. *)
  let doc = mk "a = 1; b = 2; */ c;" in
  Alcotest.(check (list string)) "before"
    [ "a"; "="; "1"; ";"; "b"; "="; "2"; ";"; "*"; "/"; "c"; ";" ]
    (leaf_texts doc);
  ignore (Document.edit doc ~pos:7 ~del:0 ~insert:"/* ");
  Alcotest.(check string) "text preserved" "a = 1; /* b = 2; */ c;"
    (Document.text doc);
  Alcotest.(check (list string)) "span swallowed into trivia"
    [ "a"; "="; "1"; ";"; "c"; ";" ] (leaf_texts doc);
  (* Deleting the opener re-exposes the tokens. *)
  ignore (Document.edit doc ~pos:7 ~del:3 ~insert:"");
  Alcotest.(check (list string)) "tokens restored"
    [ "a"; "="; "1"; ";"; "b"; "="; "2"; ";"; "*"; "/"; "c"; ";" ]
    (leaf_texts doc)

let test_comment_split () =
  (* Deleting the comment opener re-tokenizes its body. *)
  let doc = mk "a /* b */ c;" in
  Alcotest.(check (list string)) "comment is trivia" [ "a"; "c"; ";" ]
    (leaf_texts doc);
  ignore (Document.edit doc ~pos:2 ~del:2 ~insert:"");
  Alcotest.(check (list string)) "body re-tokenized"
    [ "a"; "b"; "*"; "/"; "c"; ";" ] (leaf_texts doc)

(* Line starts through the edits that move them the most: after each,
   the index equals a scratch one and the first and last token's
   line/col equal the linear reference location. *)
module Session = Iglr.Session

let session text =
  fst (Session.create ~table:(Language.table calc) ~lexer:(lexer ()) text)

let check_positions what s =
  let doc = Session.document s in
  let starts, bols, _ = Test_edit_fuzz.scratch_index (lexer ()) (Session.text s) in
  Alcotest.(check (array int)) (what ^ ": leaf starts") starts
    (Test_edit_fuzz.leaf_starts_of doc);
  Alcotest.(check (array int)) (what ^ ": line starts") bols
    (Test_edit_fuzz.line_starts_of doc);
  let n = Document.token_count doc in
  List.iter
    (fun k ->
      let want = Test_edit_fuzz.reference_location doc k
      and got = Session.location_of_token s k in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "%s: token %d byte/line/col" what k)
        (want.Session.offset_bytes, want.Session.line, want.Session.col)
        (got.Session.offset_bytes, got.Session.line, got.Session.col))
    [ 0; max 0 (n - 1) ]

let three_lines = "a = 1;\nb = 2;\nc = 3;\n"

let test_lines_newline_at_line_start () =
  let s = session three_lines in
  Session.edit s ~pos:7 ~del:0 ~insert:"\n";
  check_positions "newline at a line start" s;
  Session.edit s ~pos:0 ~del:0 ~insert:"\n\n";
  check_positions "newlines at the first line start" s

let test_lines_delete_newline () =
  let s = session three_lines in
  Session.edit s ~pos:6 ~del:1 ~insert:"";
  check_positions "deleted newline" s;
  Session.edit s ~pos:(String.length (Session.text s) - 1) ~del:1 ~insert:"";
  check_positions "deleted final newline" s

let test_lines_delete_across_lines () =
  let s = session (three_lines ^ "d = 4;\n") in
  Session.edit s ~pos:4 ~del:13 ~insert:"7;\nx = ";
  check_positions "deletion spanning lines" s

let test_lines_delete_all () =
  let s = session three_lines in
  Session.edit s ~pos:0 ~del:(String.length three_lines) ~insert:"";
  check_positions "delete all" s;
  Session.edit s ~pos:0 ~del:0 ~insert:"\n\ne = 5;";
  check_positions "refill" s

let test_lines_empty_document () =
  let s = session "" in
  check_positions "empty" s;
  Session.edit s ~pos:0 ~del:0 ~insert:"\n";
  check_positions "one newline, no tokens" s;
  Session.edit s ~pos:1 ~del:0 ~insert:"x;";
  check_positions "first token" s

let test_lines_recovery_round () =
  (* Recovery detaches leaves and splices error nodes, leaving the leaves
     array and the text alone: the index stays valid through it. *)
  let s = session three_lines in
  Session.edit s ~pos:11 ~del:0 ~insert:") (";
  (match Session.reparse s with
  | Session.Recovered { isolated; _ } ->
      Alcotest.(check bool) "isolated" true (isolated > 0)
  | Session.Parsed _ -> Alcotest.fail "broken statement parsed");
  check_positions "after isolation" s;
  Session.edit s ~pos:11 ~del:3 ~insert:"";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "repaired text recovered");
  check_positions "after repair" s

(* An unterminated comment opener makes its "/" look ahead to the end of
   the text, which raises the lookahead bound; once the closer is typed
   that token is gone and the bound comes back down to the leaves'
   maximum, as a scratch scan computes it. *)
let test_lookahead_bound_drops () =
  let scratch_max doc =
    let _, _, tokens =
      Test_edit_fuzz.scratch_index (lexer ()) (Document.text doc)
    in
    List.fold_left
      (fun m (t : Lexgen.Scanner.token) -> max m t.Lexgen.Scanner.lookahead)
      0 tokens
  in
  let doc = mk "a = 1; b = 2; c = 3; d = 4;" in
  let before = Document.lookahead_bound doc in
  Alcotest.(check int) "exact at creation" (scratch_max doc) before;
  ignore (Document.edit doc ~pos:7 ~del:0 ~insert:"/*");
  let opened = Document.lookahead_bound doc in
  Alcotest.(check int) "exact with the opener" (scratch_max doc) opened;
  Alcotest.(check bool) "opener raised it" true (opened > before);
  ignore (Document.edit doc ~pos:15 ~del:0 ~insert:"*/");
  Alcotest.(check string) "closed" "a = 1; /*b = 2;*/ c = 3; d = 4;"
    (Document.text doc);
  Alcotest.(check int) "back down once closed" before
    (Document.lookahead_bound doc);
  Alcotest.(check int) "exact once closed" (scratch_max doc)
    (Document.lookahead_bound doc)

(* [Document.create] fills the root's kids, the leaves, their starts and
   the lookahead bound in one pass; the oracle builds each of them the
   straightforward way from [Scanner.all].  Programs come from the
   workload generators (C, C++) and from seeded fragment soups for every
   bundled language, plus the empty text and a trivia-only one. *)
let test_create_oracle () =
  let frags =
    [| "ab"; "x1"; "12"; " "; "\n"; ";"; "("; ")"; "+"; "*"; "="; "{"; "}";
       "if"; "while"; "\t"; "," |]
  in
  let soup rng =
    String.concat ""
      (List.init
         (1 + Random.State.int rng 60)
         (fun _ -> frags.(Random.State.int rng (Array.length frags))))
  in
  let rng = Random.State.make [| 19 |] in
  let texts lang =
    [ ""; "  \n\t \n  " ]
    @ (match Languages.Registry.name_of lang with
      | "c" -> [ Workload.Spec_gen.plain ~lines:40 ~seed:5 ]
      | "cpp" ->
          [
            Workload.Spec_gen.generate ~seed:5 ~scale:0.002
              (Workload.Spec_gen.find "idl");
          ]
      | _ -> [])
    @ List.init 20 (fun _ -> soup rng)
  in
  List.iter
    (fun (name, lang) ->
      let lexer = Language.lexer lang in
      let programs = ref 0 in
      List.iter
        (fun text ->
          match Lexgen.Scanner.all lexer text with
          | exception Lexgen.Scanner.Lex_error _ -> ()
          | tokens, trailing ->
              if tokens <> [] then incr programs;
              let doc = Document.create ~lexer text in
              let what = Printf.sprintf "%s %S" name text in
              let leaves = leaves doc in
              let n = List.length tokens in
              Alcotest.(check int) ("token count " ^ what) n
                (Array.length leaves);
              List.iteri
                (fun i (tok : Lexgen.Scanner.token) ->
                  match leaves.(i).Node.kind with
                  | Node.Term t ->
                      if
                        t.term <> tok.Lexgen.Scanner.term
                        || t.text <> tok.Lexgen.Scanner.text
                        || t.trivia <> tok.Lexgen.Scanner.trivia
                        || t.lex_la <> tok.Lexgen.Scanner.lookahead
                      then Alcotest.failf "leaf %d differs in %s" i what
                  | _ -> Alcotest.failf "leaf %d is not a terminal in %s" i what)
                tokens;
              let starts, bols, _ = Test_edit_fuzz.scratch_index lexer text in
              Alcotest.(check (array int)) ("leaf starts " ^ what) starts
                (Test_edit_fuzz.leaf_starts_of doc);
              Alcotest.(check (array int)) ("line starts " ^ what) bols
                (Test_edit_fuzz.line_starts_of doc);
              Alcotest.(check int) ("lookahead bound " ^ what)
                (List.fold_left
                   (fun m (t : Lexgen.Scanner.token) ->
                     max m t.Lexgen.Scanner.lookahead)
                   0 tokens)
                (Document.lookahead_bound doc);
              (* The root's kids are [bos :: leaves @ [eos]], eos carrying
                 the trailing trivia; ids follow the leaves, then eos, bos
                 and the root. *)
              let root = Document.root doc in
              let kids = Array.to_list root.Node.kids in
              let bos = List.hd kids and eos = List.nth kids (n + 1) in
              Alcotest.(check bool) ("root kids " ^ what) true
                (List.length kids = n + 2
                && List.for_all2 ( == ) (List.tl kids)
                     (Array.to_list leaves @ [ eos ]));
              (match (bos.Node.kind, eos.Node.kind) with
              | Node.Bos, Node.Eos e ->
                  Alcotest.(check string) ("trailing " ^ what) trailing
                    e.Node.trailing
              | _ -> Alcotest.failf "sentinels out of place in %s" what);
              let first = if n = 0 then eos.Node.nid else leaves.(0).Node.nid in
              Alcotest.(check (list int)) ("node ids " ^ what)
                (List.init (n + 3) (fun i -> first + i))
                (List.map (fun (k : Node.t) -> k.Node.nid)
                   (Array.to_list leaves @ [ eos; bos; root ]));
              Alcotest.(check string) ("yield " ^ what) text
                (Node.text_yield root))
        (texts lang);
      if !programs < 5 then
        Alcotest.failf "%s: only %d lexable programs checked" name !programs)
    Languages.Registry.all

(* Error-isolation surgery, driven as [Session]'s isolation loop drives
   it: runs are sorted, disjoint and non-adjacent, and are detached as
   one undo stack.  The generated C programs mix plain statements with
   [t (v);] and [f (x);], each a choice between a declaration and a call,
   so choice nodes sit on the anchor climbs. *)
let c = Languages.C_subset.language

let parsed_c seed =
  let st = Random.State.make [| seed |] in
  let stmts = [| "t (v);"; "f (x);"; "x = x + 1;"; "int y;"; "{ x = 2; }" |] in
  let body () =
    String.concat " "
      (List.init
         (2 + Random.State.int st 6)
         (fun _ -> stmts.(Random.State.int st (Array.length stmts))))
  in
  let text =
    "typedef int t;\n"
    ^ String.concat ""
        (List.init 6 (fun i ->
             Printf.sprintf "int g%d () { int x; %s }\n" i (body ())))
  in
  fst
    (Iglr.Session.create ~table:(Language.table c) ~lexer:(Language.lexer c)
       text)

let normalize_runs rs =
  let rec merge = function
    | (l1, h1) :: (l2, h2) :: rest when l2 <= h1 + 1 ->
        merge ((l1, max h1 h2) :: rest)
    | r :: rest -> r :: merge rest
    | [] -> []
  in
  merge (List.sort_uniq compare rs)

let detach_runs doc rs =
  List.fold_left
    (fun acc (lo, hi) -> Document.detach_leaves doc ~lo ~hi @ acc)
    [] rs

let test_detach_reattach () =
  for seed = 1 to 20 do
    let s = parsed_c seed in
    let doc = Iglr.Session.document s in
    let n = Document.token_count doc in
    let st = Random.State.make [| seed |] in
    let runs =
      normalize_runs
        (List.init
           (1 + Random.State.int st 3)
           (fun _ ->
             let lo = Random.State.int st n in
             (lo, min (n - 1) (lo + Random.State.int st 8))))
    in
    let before = ref [] in
    Node.iter
      (fun (k : Node.t) ->
        before :=
          (k, Array.copy k.Node.kids, k.Node.parent, k.Node.tcount) :: !before)
      (Document.root doc);
    Document.reattach (detach_runs doc runs);
    List.iter
      (fun ((k : Node.t), kids, parent, tcount) ->
        let what = Printf.sprintf "seed %d node %d" seed k.Node.nid in
        Alcotest.(check bool) ("kids " ^ what) true
          (Array.length kids = Array.length k.Node.kids
          && Array.for_all2 ( == ) kids k.Node.kids);
        Alcotest.(check bool) ("parent " ^ what) true
          (parent == k.Node.parent);
        Alcotest.(check int) ("tcount " ^ what) tcount k.Node.tcount)
      !before
  done

(* Each run is the isolation unit around a random leaf; when the masked
   program parses, the runs are spliced back as error nodes. *)
let test_splice_error () =
  let table = Language.table c in
  let spliced = ref 0 in
  for seed = 1 to 40 do
    let s = parsed_c seed in
    let doc = Iglr.Session.document s in
    let text = Document.text doc in
    let n = Document.token_count doc in
    let st = Random.State.make [| seed |] in
    let runs =
      normalize_runs
        (List.init
           (1 + Random.State.int st 3)
           (fun _ -> Iglr.Session.isolation_unit s (Random.State.int st n)))
    in
    let undo = detach_runs doc runs in
    match Iglr.Glr.parse table (Document.root doc) with
    | exception Iglr.Glr.Parse_error _ -> Document.reattach undo
    | _ ->
        incr spliced;
        List.iter
          (fun (lo, hi) ->
            ignore (Document.splice_error doc ~message:"masked" ~lo ~hi))
          runs;
        let root = Document.root doc in
        List.iter
          (fun v ->
            Alcotest.failf "seed %d: %a" seed Analyze.Check.pp_violation v)
          (Analyze.Check.dag ~allow_pending:true ~expect_text:text table root);
        Alcotest.(check string)
          (Printf.sprintf "yield, seed %d" seed)
          text (Node.text_yield root)
  done;
  if !spliced < 20 then
    Alcotest.failf "only %d of 40 masked programs parsed" !spliced

(* Gap arrays against the plain-array splice they replace: random
   replaces at the front, the back and in between move the gap both ways
   and, from a few slots of slack, past its capacity.  After every step
   every read equals the reference, whose suffix an [Ints] replace also
   shifts. *)
module Gap = Vdoc.Gap

let test_gap_reference () =
  for seed = 1 to 300 do
    let st = Random.State.make [| seed |] in
    let n = Random.State.int st 40 in
    let reference = Array.init n (fun i -> 3 * i) in
    let slack = Random.State.int st 4 in
    let prefix () = Array.append reference (Array.make slack 0) in
    let g = Gap.of_prefix (prefix ()) ~len:n ~fill:(-1) in
    let ints = Gap.Ints.of_prefix (prefix ()) ~len:n in
    let reference = ref reference and shifted = ref reference in
    for step = 1 to 20 do
      let len = Array.length !reference in
      let at =
        match Random.State.int st 3 with
        | 0 -> 0
        | 1 -> len
        | _ -> Random.State.int st (len + 1)
      in
      let del = Random.State.int st (len - at + 1) in
      let src = Array.init (Random.State.int st 12) (fun _ -> Random.State.int st 1000) in
      let shift = Random.State.int st 21 - 10 in
      let splice a ~shift =
        Array.concat
          [
            Array.sub a 0 at;
            src;
            Array.map (( + ) shift) (Array.sub a (at + del) (len - at - del));
          ]
      in
      reference := splice !reference ~shift:0;
      shifted := splice !shifted ~shift;
      Gap.replace g ~at ~del src;
      Gap.Ints.replace ints ~at ~del src ~shift;
      let what = Printf.sprintf "seed %d step %d" seed step in
      Alcotest.(check (array int)) (what ^ ": gap") !reference
        (Array.init (Gap.length g) (Gap.get g));
      Alcotest.(check (array int)) (what ^ ": ints") !shifted
        (Array.init (Gap.Ints.length ints) (Gap.Ints.get ints))
    done
  done

(* An edit costs its damage, not the document: on a 2 000-line program a
   one-byte edit allocates the new text (one copy) and a bounded amount
   besides, however far the position index is from the edit. *)
let test_edit_allocates_damage () =
  let c = Languages.C_subset.language in
  let text = Workload.Spec_gen.plain ~lines:2000 ~seed:11 in
  let s =
    fst
      (Iglr.Session.create ~table:(Language.table c) ~lexer:(Language.lexer c)
         text)
  in
  let bound = (String.length text / 8) + 1_000 in
  (* Empty the minor heap first: [Gc.allocated_bytes] would otherwise
     charge the edit with a collection that runs inside it.  Large
     arrays go straight to the major heap and still count. *)
  let edit ~pos ~del ~insert =
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    Iglr.Session.edit s ~pos ~del ~insert;
    int_of_float (Gc.allocated_bytes () -. before) / 8
  in
  let mid = String.length text / 2 in
  ignore (edit ~pos:mid ~del:0 ~insert:" ");
  ignore (edit ~pos:mid ~del:1 ~insert:"");
  for i = 1 to 20 do
    let pos = mid + ((if i mod 2 = 0 then 1 else -1) * 97 * i) in
    let check what words =
      if words > bound then
        Alcotest.failf "%s at %d allocated %d words, bound %d" what pos words
          bound
    in
    check "insert" (edit ~pos ~del:0 ~insert:" ");
    check "delete" (edit ~pos ~del:1 ~insert:"")
  done;
  Alcotest.(check string) "text restored" text (Iglr.Session.text s)

(* Opening a document allocates about what it keeps: a leaf per token
   (node, terminal block, lexeme, trivia) and no scanner garbage — no
   token record, list cell or per-byte option.  Parent figure 67.7 minor
   words per token. *)
let test_create_allocates_what_it_keeps () =
  let c = Languages.C_subset.language in
  let text = Workload.Spec_gen.plain ~lines:2000 ~seed:11 in
  let lexer = Language.lexer c in
  (* Empty the minor heap first, as in "edit allocates its damage". *)
  Gc.minor ();
  let before = Gc.minor_words () in
  let doc = Document.create ~lexer text in
  let words = Gc.minor_words () -. before in
  let per_token = words /. float_of_int (Document.token_count doc) in
  if per_token > 36. then
    Alcotest.failf "Document.create allocated %.1f minor words per token" per_token

(* §5: the dag should cost about a sentential-form tree plus a state
   word.  Everything the session's root reaches — nodes, kid arrays,
   terminal blocks, strings — stays at or under 30 words per token
   (parent figure 37.4). *)
let test_dag_footprint () =
  let c = Languages.C_subset.language in
  let text = Workload.Spec_gen.plain ~lines:2000 ~seed:11 in
  let s, _ =
    Iglr.Session.create ~table:(Language.table c) ~lexer:(Language.lexer c) text
  in
  let root = Iglr.Session.root s in
  let per_token =
    float_of_int (Obj.reachable_words (Obj.repr root))
    /. float_of_int (Node.token_count root)
  in
  if per_token > 30. then
    Alcotest.failf "the dag keeps %.1f words per token" per_token

let suite =
  [
    Alcotest.test_case "create" `Quick test_create;
    Alcotest.test_case "comment reopening" `Quick test_comment_reopening;
    Alcotest.test_case "comment split" `Quick test_comment_split;
    Alcotest.test_case "replace token" `Quick test_edit_replace_token;
    Alcotest.test_case "damage locality" `Quick test_edit_damage_is_local;
    Alcotest.test_case "token split" `Quick test_edit_splits_token;
    Alcotest.test_case "token join" `Quick test_edit_joins_tokens;
    Alcotest.test_case "trivia-only edit" `Quick test_edit_trivia_only;
    Alcotest.test_case "trailing trivia" `Quick test_edit_trailing;
    Alcotest.test_case "edit at start" `Quick test_edit_at_start;
    Alcotest.test_case "empty document" `Quick test_empty_document;
    Alcotest.test_case "delete all" `Quick test_delete_all;
    Alcotest.test_case "change marking" `Quick test_changed_marking;
    Alcotest.test_case "bounds checking" `Quick test_out_of_bounds;
    Alcotest.test_case "lines: newline at line start" `Quick
      test_lines_newline_at_line_start;
    Alcotest.test_case "lines: delete newline" `Quick test_lines_delete_newline;
    Alcotest.test_case "lines: delete across lines" `Quick
      test_lines_delete_across_lines;
    Alcotest.test_case "lines: delete all" `Quick test_lines_delete_all;
    Alcotest.test_case "lines: empty document" `Quick
      test_lines_empty_document;
    Alcotest.test_case "lookahead bound drops" `Quick
      test_lookahead_bound_drops;
    Alcotest.test_case "lines: recovery round" `Quick
      test_lines_recovery_round;
    QCheck_alcotest.to_alcotest prop_edit_consistent;
    QCheck_alcotest.to_alcotest prop_multi_edit;
    Alcotest.test_case "create = scratch build, every language" `Quick
      test_create_oracle;
    Alcotest.test_case "surgery: detach then reattach restores" `Quick
      test_detach_reattach;
    Alcotest.test_case "surgery: splice_error keeps the dag sane" `Quick
      test_splice_error;
    Alcotest.test_case "gap index = reference splice" `Quick
      test_gap_reference;
    Alcotest.test_case "edit allocates its damage" `Quick
      test_edit_allocates_damage;
    Alcotest.test_case "create allocates what it keeps" `Quick
      test_create_allocates_what_it_keeps;
    Alcotest.test_case "dag at the paper's footprint" `Quick
      test_dag_footprint;
  ]
