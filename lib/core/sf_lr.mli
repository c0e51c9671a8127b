(** Sentential-form incremental parsing (Petrone, ref [19]; Wagner &
    Graham, ref [25]).

    The other deterministic incremental technique discussed in §3.2: the
    grammar itself, not a recorded parse state, validates subtree reuse.
    The input stream is a sentential form (terminals and nonterminals);
    when the lookahead is an unmodified subtree rooted at [N] and the
    automaton has a goto on [N], the subtree is shifted whole — no state
    stored in the node is consulted at all.

    Compared with state-matching ({!Inc_lr}):
    - no per-node state word is needed (the §5 space comparison: the dag
      costs one word per node more than this representation);
    - reuse is {e more} aggressive — a subtree built in one context is
      reusable in any context that accepts its symbol (the paper's
      footnote 6) — measured by the [breakdowns] statistic;
    - it requires a conflict-free table: with conflicts retained, the
      "shift the subtree whenever goto is defined" rule can commit to a
      wrong fork, which is why the IGLR parser needs state-matching
      (§3.2: "the stronger test of state-matching is needed to expose the
      possibility of non-deterministic splitting"). *)

exception Error of { offset_tokens : int; message : string }

val usable : Lrtab.Table.t -> bool
(** Whether the table is deterministic enough for sentential-form
    parsing.  Filter compilation ([Lrtab.Compile]) can turn a conflicted
    table into a usable one — a second payoff of static disambiguation
    beyond skipping the dynamic filter pass. *)

(** [parse table root] — incremental reparse in place, like
    {!Inc_lr.parse}.  @raise Error on syntax errors or conflicted
    entries. *)
val parse : Lrtab.Table.t -> Parsedag.Node.t -> Glr.stats
