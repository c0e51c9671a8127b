(** Longest-match scanning with lookahead accounting.

    Each produced token records how many bytes beyond its lexeme the DFA
    examined ([lookahead]); the incremental lexer uses this to decide which
    existing tokens an edit invalidates (the paper's "lexical lookahead",
    Appendix A's [process_modifications]).

    One loop scans: a {!cursor} runs the DFA over the flat tables of
    {!Dfa.transitions} and {!Dfa.rules} and leaves its answer in mutable
    fields, so it allocates nothing per byte and nothing per token until
    a caller asks for the lexeme ({!text}) or its trivia ({!trivia}).
    [Document.create] streams a whole text through one cursor into dag
    leaves; {!next} and {!all} are thin wrappers over the same loop that
    build {!token} records. *)

type token = {
  term : int;  (** terminal id *)
  text : string;  (** the lexeme *)
  trivia : string;  (** skipped bytes preceding the lexeme *)
  lookahead : int;  (** bytes examined beyond the lexeme's end *)
}

type error = {
  error_pos : int;  (** byte offset where no rule matched *)
}

exception Lex_error of error

(** {1 Streaming} *)

type cursor
(** A scan position in one text, holding the last token found. *)

(** [cursor lexer s ~pos] — the next {!advance} scans from [pos].
    @raise Invalid_argument when [pos] is negative. *)
val cursor : Spec.t -> string -> pos:int -> cursor

(** [advance c] skips trivia (matches of skip rules) and scans the next
    token, [true] when there is one; [false] when only trivia remains up
    to the end of the text (then {!trailing} is it).  Each call starts
    where the last token ended.
    @raise Lex_error when a byte cannot start any rule. *)
val advance : cursor -> bool

(** The last token's terminal id; [-1] after [advance] returned [false]. *)
val term : cursor -> int

(** The last token's lexeme (a fresh string). *)
val text : cursor -> string

(** The trivia before the last token: a fresh string, or the shared [""]
    when there is none. *)
val trivia : cursor -> string

(** Bytes the DFA examined past the last token's lexeme. *)
val lookahead : cursor -> int

(** The offset just past the last token (its lexeme's end), where the
    next scan starts; the text's length once [advance] returned
    [false]. *)
val stop : cursor -> int

(** The trivia after the last token, once [advance] returned [false]
    (the shared [""] when there is none). *)
val trailing : cursor -> string

(** {1 Token records} *)

(** [next lexer s ~pos] scans one token starting at [pos] (trivia
    first): [Some (token, end)], or [None] when only trivia remains up to
    the end of [s].
    @raise Lex_error on a byte that cannot start any rule.
    @raise Invalid_argument when [pos] is negative. *)
val next : Spec.t -> string -> pos:int -> (token * int) option

(** [all lexer s] scans the whole string.
    Returns the tokens and the trailing trivia (skipped bytes after the
    last token).  @raise Lex_error on an unmatchable byte. *)
val all : Spec.t -> string -> token list * string
