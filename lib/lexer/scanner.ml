type token = { term : int; text : string; trivia : string; lookahead : int }

type error = { error_pos : int }

exception Lex_error of error

(* Run the DFA from [pos]; longest match, earliest rule on ties (already
   encoded in DFA accept sets).  Returns (rule, lexeme_end, furthest_read)
   or None when no prefix matches.  [furthest_read] counts one past the
   last byte whose value influenced the decision; reaching end-of-input
   with a live DFA counts as one extra byte of sensitivity (appending text
   could change the token). *)
let run_dfa dfa s ~pos =
  let len = String.length s in
  let last_accept = ref None in
  let state = ref 0 in
  let i = ref pos in
  (* Note: [last_accept] is only set after consuming at least one byte, so
     empty matches are impossible (lex convention; avoids livelock). *)
  let stuck = ref false in
  while (not !stuck) && !i < len do
    let next = Dfa.next dfa !state s.[!i] in
    if next < 0 then stuck := true
    else begin
      state := next;
      incr i;
      match Dfa.accept dfa next with
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
      | None -> raise (Lex_error { error_pos = pos })
      | Some (rule, lexeme_end, furthest) ->
          let term = Spec.rule_terminal lexer rule in
          if term < 0 then (* skip rule: extend trivia *)
            scan trivia_start lexeme_end
          else
            let token =
              {
                term;
                text = String.sub s pos (lexeme_end - pos);
                trivia = String.sub s trivia_start (pos - trivia_start);
                lookahead = furthest - lexeme_end;
              }
            in
            Some (token, lexeme_end)
  in
  scan pos pos

let all lexer s =
  let rec go acc pos =
    match next lexer s ~pos with
    | Some (tok, pos') -> go (tok :: acc) pos'
    | None ->
        (* Remaining bytes (if any) are trailing trivia: re-scan them to
           verify they are skippable. *)
        let trailing =
          let dfa = Spec.dfa lexer in
          let rec skip p =
            if p >= String.length s then ()
            else
              match run_dfa dfa s ~pos:p with
              | Some (rule, lexeme_end, _)
                when Spec.rule_terminal lexer rule < 0 ->
                  skip lexeme_end
              | _ -> raise (Lex_error { error_pos = p })
          in
          skip pos;
          String.sub s pos (String.length s - pos)
        in
        (List.rev acc, trailing)
  in
  go [] 0
