type token = { term : int; text : string; trivia : string; lookahead : int }

type error = { error_pos : int }

exception Lex_error of error

type cursor = {
  lexer : Spec.t;
  src : string;
  trans : int array;
  rules : int array;
  mutable trivia_start : int;
  mutable start : int;
  mutable stop : int;
  mutable term : int;
  mutable lookahead : int;
}

let cursor lexer src ~pos =
  if pos < 0 then invalid_arg "Scanner.cursor: negative position";
  let dfa = Spec.dfa lexer in
  {
    lexer;
    src;
    trans = Dfa.transitions dfa;
    rules = Dfa.rules dfa;
    trivia_start = pos;
    start = pos;
    stop = pos;
    term = -1;
    lookahead = 0;
  }

(* The one DFA loop: longest match from [p], earliest rule on ties
   (already encoded in the accept table).  Returns the rule, -1 when no
   prefix matches; sets [c.stop] to the lexeme's end and [c.lookahead]
   to the bytes examined past it.  The loop reads one byte past the last
   live state (the byte that stuck it) or, at end of input with the DFA
   still live, counts one extra byte of sensitivity (appending text could
   change the token): either way it examined [i + 1 - stop] bytes past
   the lexeme.  A rule is only accepted after at least one byte, so
   empty matches are impossible (lex convention; avoids livelock).  The
   table reads are unchecked: a state is below [num_states] and a byte
   below 256, which is how the flat tables are sized. *)
let longest c p =
  let s = c.src and trans = c.trans and rules = c.rules in
  let len = String.length s in
  let state = ref 0 and i = ref p and rule = ref (-1) and stop = ref p in
  while
    !i < len
    &&
    let t =
      Array.unsafe_get trans
        ((!state lsl 8) lor Char.code (String.unsafe_get s !i))
    in
    t >= 0
    && begin
         state := t;
         incr i;
         let r = Array.unsafe_get rules t in
         if r >= 0 then begin
           rule := r;
           stop := !i
         end;
         true
       end
  do
    ()
  done;
  c.stop <- !stop;
  c.lookahead <- !i + 1 - !stop;
  !rule

let advance c =
  let len = String.length c.src in
  let p = ref c.stop and found = ref false in
  c.trivia_start <- !p;
  while (not !found) && !p < len do
    let rule = longest c !p in
    if rule < 0 then raise (Lex_error { error_pos = !p });
    let term = Spec.rule_terminal c.lexer rule in
    if term >= 0 then begin
      c.term <- term;
      c.start <- !p;
      found := true
    end
    else p := c.stop
  done;
  if not !found then begin
    c.term <- -1;
    c.start <- len;
    c.stop <- len
  end;
  !found

let sub s lo hi = if lo = hi then "" else String.sub s lo (hi - lo)
let term c = c.term
let text c = sub c.src c.start c.stop
let trivia c = sub c.src c.trivia_start c.start
let lookahead c = c.lookahead
let stop c = c.stop
let trailing c = sub c.src c.trivia_start (String.length c.src)

let token c =
  { term = c.term; text = text c; trivia = trivia c; lookahead = c.lookahead }

let next lexer s ~pos =
  let c = cursor lexer s ~pos in
  if advance c then Some (token c, c.stop) else None

let all lexer s =
  let c = cursor lexer s ~pos:0 in
  let rec go acc = if advance c then go (token c :: acc) else List.rev acc in
  let tokens = go [] in
  (tokens, trailing c)
