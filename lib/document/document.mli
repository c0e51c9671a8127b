(** Self-versioning documents (the OCaml analogue of reference [26]).

    A document owns the parse dag for one source text, supports textual
    edits at byte offsets, and keeps the tree consistent with the text by
    incremental relexing: damaged tokens are replaced by fresh terminal
    nodes spliced into the {e previous} tree structure, with change bits
    marking the damage for the incremental parser.  The tree's terminal
    yield (trivia + lexemes + trailing trivia) is always exactly the
    current text.

    The parser consumes the document root ({!root}) and commits a new tree
    over the same terminals; leaf indices ({!leaf}) stay valid across
    parses because parsing never creates or destroys terminals. *)

type t

(** [create ~lexer text] lexes [text] and builds an unparsed document
    (root's children are the flat token list between the sentinels).
    @raise Lexgen.Scanner.Lex_error on unscannable input. *)
val create : lexer:Lexgen.Spec.t -> string -> t

val root : t -> Parsedag.Node.t
val text : t -> string
val length : t -> int

val token_count : t -> int

val leaf : t -> int -> Parsedag.Node.t
(** [leaf t i] — the [i]th terminal in source order (no sentinels),
    [0 <= i < token_count t].  O(1). *)

(** {1 Position index}

    Each text version carries an index of its positions, built by
    {!create} and spliced (never rebuilt) by {!edit}.  Invariant:
    {!leaf_start} and {!line_start} equal those computed from scratch
    from [Scanner.all] of {!text}, and {!lookahead_bound} is the
    leaves' largest [lex_la].  Reads are O(1), line lookups O(lg N).
    The leaves, their starts and the line starts each live in a gap
    array ({!Gap}) whose gap sits at the last edit: an edit moves the
    gap there and writes its damage, so it costs the distance from the
    previous edit plus the damage, and allocates only when a gap
    fills up.  The one O(N) step of an edit left is copying the new
    text. *)

val leaf_start : t -> int -> int
(** [leaf_start t i] for [0 <= i <= token_count t]: the byte offset where
    leaf [i] (its leading trivia first) begins; [leaf_start t
    (token_count t)] is the end of the last leaf.  O(1). *)

val line_start : t -> int -> int
(** [line_start t l] — the byte offset where 1-based line [l] begins:
    [0] for line 1, then one past each newline;
    [1 <= l <= line_of t (length t)].  O(1). *)

val lookahead_bound : t -> int
(** The largest [lex_la] of the current leaves (0 without leaves).  An
    edit keeps it in O(edit) time, except when it removes the last leaf
    holding the maximum: then one pass over the leaves recomputes it. *)

val line_of : t -> int -> int
(** [line_of t byte] — the 1-based line holding byte offset [byte]
    ([0 <= byte <= length t]); it starts at
    [line_start t (line_of t byte)].  O(lg N). *)

(** [edit t ~pos ~del ~insert] replaces [del] bytes at [pos] with
    [insert].  Relexes the damaged region, splices replacement terminals
    into the tree and marks changes.  Several edits may be applied before
    a reparse.  Returns the number of tokens replaced (diagnostic).
    @raise Invalid_argument if the range is out of bounds.
    @raise Lexgen.Scanner.Lex_error if the resulting text is unscannable
    (the document is left unchanged). *)
val edit : t -> pos:int -> del:int -> insert:string -> int

(** Terminals whose change bit is set (pending modifications). *)
val changed_tokens : t -> Parsedag.Node.t list

(** {1 Error-isolation surgery}

    Local error recovery masks a damaged token run out of the tree,
    reparses the remainder, and splices the run back as an explicit error
    node.  Every kid-array rewrite here and in {!edit} goes through
    {!Parsedag.Node.splice_kids}, which keeps token counts and parent
    links exact; each operation marks changes itself.  The leaves
    ({!leaf}) and the text are never touched (masked terminals stay in the
    document, only their tree attachment changes). *)

type detach
(** Undo record for one detached leaf. *)

(** [detach_leaves t ~lo ~hi] unlinks leaves [lo..hi] (inclusive, leaf
    indices) from their parents, marking the parents changed.  Returns an
    undo stack for {!reattach}. *)
val detach_leaves : t -> lo:int -> hi:int -> detach list

(** [reattach undo] — exact inverse of the {!detach_leaves} that produced
    [undo]: every leaf returns to its recorded parent and slot, and every
    touched kid array, parent link and count is as before.  The parents
    stay marked changed. *)
val reattach : detach list -> unit

(** [splice_error t ~message ~lo ~hi] wraps (currently detached) leaves
    [lo..hi] in a fresh error node and splices it into the tree at the
    token-order position just before leaf [hi+1] (or before eos), at the
    highest ancestor whose yield starts there.  Choice nodes on the climb
    and above the insertion point are flattened to the on-path
    alternative, so the error node never sits under a choice.  Ancestor
    states are cleared to {!Parsedag.Node.nostate} so the region is
    re-offered to the parser on every later reparse; the error subtree's
    change bits are cleared (it is part of the committed version) and
    nothing is marked changed.  Returns the error node. *)
val splice_error :
  t -> message:string -> lo:int -> hi:int -> Parsedag.Node.t
