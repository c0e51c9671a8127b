(** Input-stream traversal over the previous version of the tree
    (Appendix A).

    During a reparse the old tree stays intact; the parser's input stream
    is produced by walking it left to right.  Alternatives of a choice
    node are not siblings of each other — the traversal descends into the
    first alternative and climbs {e past} the choice node, so each
    ambiguous region contributes its terminal yield exactly once.

    Appendix A's stream operations are cursor operations: [pop_lookahead]
    is {!advance}, [left_breakdown] is {!descend}, and the reduction
    lookahead [redLa] is {!peek_terminal}.  A cursor materializes the
    path from the root to the current input subtree with explicit child
    indices, so [advance] is amortized O(1) and [descend] O(1), where
    parent-pointer navigation would scan the parent's child array per
    step — quadratic over a freshly lexed document, whose root holds
    every token.  The incremental parsers drive their input stream
    through one. *)

type cursor

(** [cursor_at root] — positioned on the first subtree after [bos].
    The previous-version structure must not be spliced while a cursor is
    live. *)
val cursor_at : Node.t -> cursor

(** Current input subtree (the [Eos] sentinel at end). *)
val current : cursor -> Node.t

(** Move past the current subtree: its right sibling, or the nearest
    ancestor's right sibling, climbing past choice nodes. *)
val advance : cursor -> unit

(** Replace the current subtree by its first child (first alternative of
    a choice); a node with no children (an ε production) is skipped. *)
val descend : cursor -> unit

(** Leftmost terminal at or after the cursor, without moving it. *)
val peek_terminal : cursor -> Node.t
