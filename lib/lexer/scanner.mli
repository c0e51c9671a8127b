(** Longest-match scanning with lookahead accounting.

    Each produced token records how many bytes beyond its lexeme the DFA
    examined ([lookahead]); the incremental lexer uses this to decide which
    existing tokens an edit invalidates (the paper's "lexical lookahead",
    Appendix A's [process_modifications]). *)

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

(** [next lexer s ~pos] scans one token starting at [pos].
    Returns [Ok (Some (token, pos'))], [Ok None] at end of input (any
    trailing trivia is in the second component of {!all}), or
    [Error e] when a byte cannot start any rule. *)
val next :
  Spec.t -> string -> pos:int -> (token * int) option

(** [all lexer s] scans the whole string.
    Returns the tokens and the trailing trivia (skipped bytes after the
    last token).  @raise Lex_error on an unmatchable byte. *)
val all : Spec.t -> string -> token list * string
