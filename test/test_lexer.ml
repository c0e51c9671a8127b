(* Tests for the lexer generator (lib/lexer). *)

module Regex = Lexgen.Regex
module Spec = Lexgen.Spec
module Scanner = Lexgen.Scanner

(* A small C-ish lexer over a fixed terminal numbering. *)
let t_id = 1
let t_num = 2
let t_plus = 3
let t_star = 4
let t_lparen = 5
let t_rparen = 6
let t_if = 7
let t_eq = 8
let t_eqeq = 9

let resolve = function
  | "id" -> t_id
  | "num" -> t_num
  | "+" -> t_plus
  | "*" -> t_star
  | "(" -> t_lparen
  | ")" -> t_rparen
  | "if" -> t_if
  | "=" -> t_eq
  | "==" -> t_eqeq
  | s -> Alcotest.failf "unknown terminal %s" s

let lexer () =
  let letter = Regex.alt [ Regex.range 'a' 'z'; Regex.range 'A' 'Z'; Regex.chr '_' ] in
  let digit = Regex.range '0' '9' in
  Spec.compile ~resolve
    [
      { re = Regex.str "if"; action = Tok "if" };
      { re = Regex.seq [ letter; Regex.star (Regex.alt [ letter; digit ]) ];
        action = Tok "id" };
      { re = Regex.plus digit; action = Tok "num" };
      { re = Regex.str "=="; action = Tok "==" };
      { re = Regex.chr '='; action = Tok "=" };
      { re = Regex.chr '+'; action = Tok "+" };
      { re = Regex.chr '*'; action = Tok "*" };
      { re = Regex.chr '('; action = Tok "(" };
      { re = Regex.chr ')'; action = Tok ")" };
      { re = Regex.plus (Regex.set " \t\n"); action = Skip };
      { re = Regex.seq [ Regex.str "/*";
                         Regex.star (Regex.alt [ Regex.not_set "*";
                                                 Regex.seq [ Regex.plus (Regex.chr '*');
                                                             Regex.not_set "*/" ] ]);
                         Regex.plus (Regex.chr '*'); Regex.chr '/' ];
        action = Skip };
    ]

let kinds toks = List.map (fun (t : Scanner.token) -> t.term) toks
let texts toks = List.map (fun (t : Scanner.token) -> t.text) toks

let test_basic () =
  let toks, trailing = Scanner.all (lexer ()) "ab + 12 * (cd)" in
  Alcotest.(check (list int)) "kinds"
    [ t_id; t_plus; t_num; t_star; t_lparen; t_id; t_rparen ]
    (kinds toks);
  Alcotest.(check (list string)) "texts"
    [ "ab"; "+"; "12"; "*"; "("; "cd"; ")" ]
    (texts toks);
  Alcotest.(check string) "no trailing" "" trailing

let test_longest_match () =
  (* "ifx" is an identifier, not keyword-then-id. *)
  let toks, _ = Scanner.all (lexer ()) "ifx if" in
  Alcotest.(check (list int)) "longest match wins" [ t_id; t_if ] (kinds toks);
  (* "==" beats "=" "=" by longest match. *)
  let toks2, _ = Scanner.all (lexer ()) "= == =" in
  Alcotest.(check (list int)) "== preferred" [ t_eq; t_eqeq; t_eq ] (kinds toks2)

let test_priority () =
  (* "if" alone matches both the keyword and the id rule at the same
     length; the earlier rule (keyword) wins. *)
  let toks, _ = Scanner.all (lexer ()) "if" in
  Alcotest.(check (list int)) "keyword priority" [ t_if ] (kinds toks)

let test_trivia () =
  let toks, trailing = Scanner.all (lexer ()) "  a /* c */ b  " in
  (match toks with
  | [ a; b ] ->
      Alcotest.(check string) "leading trivia" "  " a.Scanner.trivia;
      Alcotest.(check string) "comment trivia" " /* c */ " b.Scanner.trivia
  | _ -> Alcotest.fail "expected two tokens");
  Alcotest.(check string) "trailing trivia" "  " trailing;
  (* Full text reconstructs. *)
  let reconstructed =
    String.concat ""
      (List.map (fun (t : Scanner.token) -> t.Scanner.trivia ^ t.Scanner.text) toks)
    ^ trailing
  in
  Alcotest.(check string) "reconstruction" "  a /* c */ b  " reconstructed

let test_lookahead () =
  (* Scanning "=" when followed by something that is not "=" examines one
     extra byte. *)
  let toks, _ = Scanner.all (lexer ()) "=+" in
  (match toks with
  | [ eq; _plus ] -> Alcotest.(check int) "la of = before +" 1 eq.Scanner.lookahead
  | _ -> Alcotest.fail "expected two tokens");
  (* At end of input, a token that could extend records sensitivity to
     appended text. *)
  let toks2, _ = Scanner.all (lexer ()) "ab" in
  match toks2 with
  | [ id ] ->
      Alcotest.(check bool) "la at eof positive" true (id.Scanner.lookahead >= 1)
  | _ -> Alcotest.fail "expected one token"

let test_error () =
  match Scanner.all (lexer ()) "a # b" with
  | exception Scanner.Lex_error e ->
      Alcotest.(check int) "error position" 2 e.Scanner.error_pos
  | _ -> Alcotest.fail "expected lex error"

let test_empty_input () =
  let toks, trailing = Scanner.all (lexer ()) "" in
  Alcotest.(check int) "no tokens" 0 (List.length toks);
  Alcotest.(check string) "no trailing" "" trailing

let test_only_trivia () =
  let toks, trailing = Scanner.all (lexer ()) "   \n " in
  Alcotest.(check int) "no tokens" 0 (List.length toks);
  Alcotest.(check string) "all trailing" "   \n " trailing

(* Property: for identifier/number/operator soup, lexing then concatenating
   trivia+text reproduces the input. *)
let gen_source =
  QCheck.Gen.(
    let frag =
      oneof
        [ return "ab"; return "x1"; return "12"; return "+"; return "*";
          return "("; return ")"; return " "; return "\n"; return "if";
          return "=="; return "=" ]
    in
    map (String.concat "") (list_size (int_bound 40) frag))

let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"lex round-trips text"
    (QCheck.make gen_source)
    (fun s ->
      let toks, trailing = Scanner.all (lexer ()) s in
      String.concat ""
        (List.map (fun (t : Scanner.token) -> t.Scanner.trivia ^ t.Scanner.text) toks)
      ^ trailing
      = s)

let prop_tokens_nonempty =
  QCheck.Test.make ~count:200 ~name:"no empty lexemes"
    (QCheck.make gen_source)
    (fun s ->
      let toks, _ = Scanner.all (lexer ()) s in
      List.for_all (fun (t : Scanner.token) -> String.length t.Scanner.text > 0) toks)

(* The scanner as it was before its one-loop rewrite, kept as the
   reference: each step of the DFA reads [Dfa.next] and [Dfa.accept]'s
   option, a match is an option of a tuple, and every token is a fresh
   record. *)
module Reference = struct
  let run_dfa dfa s ~pos =
    let len = String.length s in
    let last_accept = ref None in
    let state = ref 0 in
    let i = ref pos in
    let stuck = ref false in
    while (not !stuck) && !i < len do
      let next = Lexgen.Dfa.next dfa !state s.[!i] in
      if next < 0 then stuck := true
      else begin
        state := next;
        incr i;
        match Lexgen.Dfa.accept dfa next with
        | Some rule -> last_accept := Some (rule, !i)
        | None -> ()
      end
    done;
    match !last_accept with
    | None -> None
    | Some (rule, lexeme_end) ->
        let furthest = if !stuck then !i + 1 else len + 1 in
        Some (rule, lexeme_end, furthest)

  let next lexer s ~pos =
    let dfa = Spec.dfa lexer in
    let len = String.length s in
    let rec scan trivia_start pos =
      if pos >= len then None
      else
        match run_dfa dfa s ~pos with
        | None -> raise (Scanner.Lex_error { Scanner.error_pos = pos })
        | Some (rule, lexeme_end, furthest) ->
            let term = Spec.rule_terminal lexer rule in
            if term < 0 then scan trivia_start lexeme_end
            else
              Some
                ( {
                    Scanner.term;
                    text = String.sub s pos (lexeme_end - pos);
                    trivia = String.sub s trivia_start (pos - trivia_start);
                    lookahead = furthest - lexeme_end;
                  },
                  lexeme_end )
    in
    scan pos pos

  let all lexer s =
    let rec go acc pos =
      match next lexer s ~pos with
      | Some (tok, pos') -> go (tok :: acc) pos'
      | None -> (List.rev acc, String.sub s pos (String.length s - pos))
    in
    go [] 0
end

(* Outcomes compared between scanners: a value, or the position of the
   lexical error. *)
let outcome f = match f () with v -> Ok v | exception Scanner.Lex_error e -> Error e.Scanner.error_pos

(* The streaming path, read token by token through a cursor: the tokens
   with the offset each ends at, and the trailing trivia. *)
let stream lexer s =
  let c = Scanner.cursor lexer s ~pos:0 in
  let rec go acc =
    if Scanner.advance c then
      go
        (( {
             Scanner.term = Scanner.term c;
             text = Scanner.text c;
             trivia = Scanner.trivia c;
             lookahead = Scanner.lookahead c;
           },
           Scanner.stop c )
        :: acc)
    else (List.rev acc, Scanner.trailing c)
  in
  go []

(* The reference's tokens with their end offsets, chained the way relex
   drives [next]. *)
let reference_chain lexer s =
  let rec go acc pos =
    match Reference.next lexer s ~pos with
    | Some (tok, pos') -> go ((tok, pos') :: acc) pos'
    | None -> (List.rev acc, String.sub s pos (String.length s - pos))
  in
  go [] 0

(* The lexers under test: every bundled language, each with the
   spellings of its terminals, and this file's lexer, which has no
   catch-all error rule (the bundled ones lex any byte as <error>), so
   its texts reach [Lex_error]. *)
let lexers =
  lazy
    (Array.of_list
       (( "test",
          lexer (),
          [| "if"; "id"; "num"; "=="; "="; "+"; "*"; "("; ")" |] )
       :: List.map
            (fun (name, lang) ->
              let g = lang.Languages.Language.grammar in
              ( name,
                Languages.Language.lexer lang,
                List.filter_map
                  (fun t ->
                    let n = Grammar.Cfg.terminal_name g t in
                    if n = "" || n.[0] = '$' then None else Some n)
                  (List.init (Grammar.Cfg.num_terminals g) Fun.id)
                |> Array.of_list ))
            Languages.Registry.all))

(* Texts for each lexer: random runs of its terminals' spellings
   (identifiers and numbers drawn fresh) between trivia pieces from
   several comment conventions, the C and C++ workload generators'
   programs, and byte soup. *)
let gen_text st =
  let trivia =
    [| ""; " "; "  "; "\n"; "\t"; "/* c */"; "// x\n"; "(* c *)"; "; c\n";
       "-- c\n"; "{ c }"; "/*"; "*/" |]
  in
  let soup_chars = "abz019_ \n\t/*(){};+-=<>\"'\\#.,:" in
  QCheck.Gen.(
    let lexers = Lazy.force lexers in
    int_bound (Array.length lexers - 1) >>= fun li ->
    let name, _, spellings = lexers.(li) in
    let word =
      int_bound (Array.length spellings - 1) >>= fun k ->
      match spellings.(k) with
      | "id" | "ident" -> map (fun i -> "v" ^ string_of_int i) (int_bound 99)
      | "num" | "int" | "number" -> map string_of_int (int_bound 999)
      | s -> return s
    in
    let program =
      list_size (int_bound 40)
        (pair (oneofa trivia) word >|= fun (t, w) -> t ^ w)
      >>= fun parts ->
      oneofa trivia >|= fun tail -> String.concat "" parts ^ tail
    in
    let bytes =
      string_size
        ~gen:
          (frequency
             [
               (9, map (String.get soup_chars) (int_bound (String.length soup_chars - 1)));
               (1, char);
             ])
        (int_bound 40)
    in
    let generated =
      int_bound 1000 >|= fun seed ->
      match name with
      | "c" -> Workload.Spec_gen.plain ~lines:(5 + (seed mod 20)) ~seed
      | "cpp" ->
          Workload.Spec_gen.generate ~seed ~scale:0.0005
            (Workload.Spec_gen.find "idl")
      | _ -> ""
    in
    frequency [ (6, program); (3, bytes); (1, generated) ] >|= fun text ->
    (name, text))
    st

let prop_reference =
  QCheck.Test.make ~count:400
    ~name:"scanner = reference: all, next from every offset, stream"
    (QCheck.make ~print:(fun (l, s) -> Printf.sprintf "%s %S" l s) gen_text)
    (fun (name, text) ->
      let _, lexer, _ =
        List.find (fun (n, _, _) -> n = name) (Array.to_list (Lazy.force lexers))
      in
      let want = outcome (fun () -> Reference.all lexer text) in
      if outcome (fun () -> Scanner.all lexer text) <> want then
        QCheck.Test.fail_report "Scanner.all differs";
      if
        outcome (fun () -> stream lexer text)
        <> outcome (fun () -> reference_chain lexer text)
      then QCheck.Test.fail_report "the stream differs";
      for pos = 0 to String.length text do
        if
          outcome (fun () -> Scanner.next lexer text ~pos)
          <> outcome (fun () -> Reference.next lexer text ~pos)
        then QCheck.Test.fail_reportf "Scanner.next differs at %d" pos
      done;
      true)

let suite =
  [
    Alcotest.test_case "basic scanning" `Quick test_basic;
    Alcotest.test_case "longest match" `Quick test_longest_match;
    Alcotest.test_case "rule priority" `Quick test_priority;
    Alcotest.test_case "trivia attachment" `Quick test_trivia;
    Alcotest.test_case "lookahead accounting" `Quick test_lookahead;
    Alcotest.test_case "lex error" `Quick test_error;
    Alcotest.test_case "empty input" `Quick test_empty_input;
    Alcotest.test_case "only trivia" `Quick test_only_trivia;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_tokens_nonempty;
    Test_seed.to_alcotest prop_reference;
  ]
