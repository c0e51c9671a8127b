(** The deterministic incremental LR baselines of §3.2: state-matching
    (Jalili & Gallier, ref [8]) and sentential-form parsing (Petrone,
    ref [19]; Wagner & Graham, ref [25]).

    The single-stack baselines the IGLR parser is compared against in §5:
    identical input-stream traversal, but no GSS and no support for
    conflicted tables.  Both operate on the same document representation
    as {!Glr} (the parsers can even alternate on one document) and share
    one driver; they differ only in how a reused subtree is validated.

    State-matching ({!parse}) records the parse state in every node it
    shifts or builds, and shifts an unmodified subtree whole only when the
    current state is the recorded one — the IGLR parser's reuse test.

    Sentential-form parsing ({!parse_sentential}) lets the grammar, not a
    recorded state, validate reuse.  The input stream is a sentential form
    (terminals and nonterminals): pending reductions, decided by the
    leftmost terminal, fire first; then an unmodified subtree rooted at
    [N] is shifted whole whenever the automaton has a goto on [N].
    Compared with state-matching:
    - no per-node state word is needed (the §5 space comparison: the dag
      costs one word per node more than this representation);
    - reuse is {e more} aggressive — a subtree built in one context is
      reusable in any context that accepts its symbol (the paper's
      footnote 6) — measured by the [breakdowns] statistic;
    - it requires a conflict-free table: with conflicts retained, the
      "shift the subtree whenever goto is defined" rule can commit to a
      wrong fork, which is why the IGLR parser needs state-matching
      (§3.2: "the stronger test of state-matching is needed to expose the
      possibility of non-deterministic splitting").  Filter compilation
      ([Lrtab.Compile]) can turn a conflicted table into a deterministic
      one ([Lrtab.Table.is_deterministic]) — a second payoff of static
      disambiguation beyond skipping the dynamic filter pass. *)

exception
  Error of {
    offset_tokens : int;
    message : string;
  }

(** [parse table root] — incremental reparse in place by state-matching,
    like {!Glr.parse}.
    @raise Error on syntax errors or a conflicted table entry. *)
val parse : Lrtab.Table.t -> Parsedag.Node.t -> Glr.stats

(** [parse_sentential table root] — incremental reparse in place by
    sentential-form parsing.
    @raise Error on syntax errors or a conflicted table entry. *)
val parse_sentential : Lrtab.Table.t -> Parsedag.Node.t -> Glr.stats
