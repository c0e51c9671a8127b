(** Parse-dag sanitizer (the [iglrc check] pass).

    Validates the structural invariants the abstract parse dag must
    preserve after every (incremental) parse — the properties the rest of
    the system silently relies on:

    - root shape: a {!Parsedag.Node.Root} with leading [Bos], trailing
      [Eos], and no sentinels in between (sentinels appear nowhere else);
    - yield consistency: every node's cached terminal count matches its
      kids; optionally, the root's text yield reproduces the document;
    - link symmetry: every reachable node's parent holds it among its
      kids (shared terminals point along the first-alternative spine),
      and no change bits survive a commit;
    - production shape: a [Prod p] node has exactly the kids prescribed by
      production [p]'s right-hand side, symbol for symbol (isolated error
      regions spliced among the kids are transparent to this rule);
    - error nodes: ≥ 1 kids, all raw terminals (the isolated token run,
      covered exactly by the cached count), carrying
      {!Parsedag.Node.nostate}, and never an alternative of a choice;
    - choice nodes: ≥ 2 alternatives, none itself a choice, pairwise
      structurally distinct, sharing one yield, carrying
      {!Parsedag.Node.nostate};
    - state validity: every parse state is {!Parsedag.Node.nostate} or a
      real state of the table;
    - sequence balance: left-recursive sequence spines are well-formed and
      agree with {!Parsedag.Sequence}'s flattened view.
    - the no-parent sentinel {!Parsedag.Node.orphan} is as [Node] made
      it: nothing wrote to it (node id 0, rule ["orphan"]).

    Run it after every edit in the incremental tests: dag corruption is
    caught at the edit that introduces it, not at a later crash. *)

type violation = {
  nid : int;  (** offending node id *)
  rule : string;  (** short rule name, e.g. ["token-count"] *)
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

(** [dag ?allow_pending ?expect_text table root] — all violations found
    (empty = sane).  [expect_text] additionally checks the root's text
    yield against the document text.  [allow_pending] skips the
    change-bit rule: use it to inspect a recovered dag whose damage is
    deliberately left pending for the next reparse. *)
val dag :
  ?allow_pending:bool ->
  ?expect_text:string ->
  Lrtab.Table.t ->
  Parsedag.Node.t ->
  violation list

exception Corrupt of violation list

(** [assert_dag ?allow_pending ?expect_text table root] — @raise Corrupt
    on the first sweep that finds violations.  The exception message
    lists them all. *)
val assert_dag :
  ?allow_pending:bool ->
  ?expect_text:string ->
  Lrtab.Table.t ->
  Parsedag.Node.t ->
  unit
