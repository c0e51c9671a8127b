(** Incremental relexing.

    Given the old token sequence (the tree's terminal leaves), its
    position index, and one textual edit, computes the minimal damaged
    token range and the replacement tokens, resynchronizing with the old
    stream at the first clean boundary past the edit.

    A token is damaged when the bytes it {e examined} — its trivia, its
    lexeme, and its recorded lookahead — intersect the edit.  Resynchron-
    ization happens at a new-text offset that coincides with the start
    boundary of an old token lying entirely after the edited region; lexing
    is boundary-deterministic (no cross-token scanner state), so the rest
    of the old stream is guaranteed to reproduce and can be reused.

    The index makes the work proportional to the damage, not the
    document: [start] (the old leaves' byte offsets) locates the edit by
    binary search, [la_bound] (an upper bound on every leaf's lookahead)
    bounds how far back a damaged leaf can lie, and resynchronization
    walks [start] from the end of the edit. *)

type result = {
  first : int;  (** index of the first replaced leaf *)
  replaced : int;  (** how many old leaves are replaced *)
  tokens : Lexgen.Scanner.token list;  (** replacement tokens *)
  trailing : string option;
      (** new trailing trivia when the edit ran to end of text *)
}

(** [relex ~lexer ~count ~leaf ~start ~la_bound ~pos ~del ~insert
    ~new_text] — the old text has [count] leaves, [leaf i] for [i] in
    [\[0, count)]; [start i] is the byte offset where leaf [i] (its trivia
    first) begins in the old text, and [start count] the end of the last
    leaf; [la_bound] is at least every leaf's [lex_la].
    @raise Lexgen.Scanner.Lex_error when the new text is unscannable and
    the spec has no catch-all rule. *)
val relex :
  lexer:Lexgen.Spec.t ->
  count:int ->
  leaf:(int -> Parsedag.Node.t) ->
  start:(int -> int) ->
  la_bound:int ->
  pos:int ->
  del:int ->
  insert:string ->
  new_text:string ->
  result

(** [first_above get ~lo ~hi x] — the least [i] in [\[lo, hi)] with
    [get i > x], or [hi] if there is none; [get] must be ascending on
    that range.  Binary search, shared with the document's line index. *)
val first_above : (int -> int) -> lo:int -> hi:int -> int -> int
