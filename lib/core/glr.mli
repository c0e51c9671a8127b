(** The incremental GLR (IGLR) parser — the paper's main algorithm
    (§3.3, Appendix A).

    One engine serves both batch and incremental parsing: the input stream
    is a left-to-right traversal of the previous version of the parse dag
    (fresh documents are a flat list of terminals under the root, so the
    initial parse degenerates to batch GLR).  Deterministic regions reuse
    whole subtrees via state-matching; conflicts fork parsers over a
    graph-structured stack; ambiguous regions are merged into choice nodes
    with optimal sharing and are decomposed and reconstructed atomically on
    later parses (their nodes carry {!Parsedag.Node.nostate}).

    Invariants required of the input dag:
    - [root] has kind {!Parsedag.Node.Root} with [bos]/[eos] sentinels;
    - textual edits have been applied by relexing (changed terminals are
      fresh nodes with their [changed] bit set);
    - parent pointers describe the previous version (as left by
      {!Parsedag.Node.commit}). *)

type error = {
  offset_tokens : int;  (** token position where every parser died *)
  message : string;
}

exception Parse_error of error

(** Resource budget for one (re)parse: on exhaustion the parser degrades
    deterministically instead of running away.  [max_parsers] is a soft
    limit — the shifter prunes the excess GSS tops (lowest state ids
    survive) and flags the parse [degraded]; [max_nodes] and
    [deadline_ms] are hard limits — crossing one raises
    {!Budget_exhausted} with the previous tree left structurally intact,
    so the caller can fall back to isolation-unit recovery. *)
type budget = {
  max_parsers : int;  (** max simultaneously active parsers *)
  max_nodes : int;  (** max dag nodes created per reparse *)
  deadline_ms : float;  (** wall-clock deadline, relative to parse start *)
}

val no_budget : budget
(** All limits off ([max_int]/[infinity]). *)

type budget_kind = Parsers | Nodes | Deadline

val budget_kind_name : budget_kind -> string

exception Budget_exhausted of { kind : budget_kind; offset_tokens : int }

type stats = {
  mutable shifted_subtrees : int;
  mutable shifted_terminals : int;
  mutable reductions : int;
  mutable breakdowns : int;
  mutable max_parsers : int;  (** peak simultaneously active parsers *)
  mutable forks : int;
      (** table interrogations that returned multiple actions *)
  mutable nodes_created : int;
  mutable degraded : bool;
      (** some GSS branches were pruned by the parser budget *)
  mutable pruned_parsers : int;  (** parsers dropped by [max_parsers] *)
}

val fresh_stats : unit -> stats

(** [term_of n] — the terminal id a peeked terminal stands for: its
    terminal, or end of input at the [eos] sentinel.
    @raise Invalid_argument on any other node. *)
val term_of : Parsedag.Node.t -> int

type config = {
  state_matching : bool;
      (** subtree reuse via state-matching; [false] decomposes every
          lookahead to terminals (ablation: only terminals are reused) *)
}
(** Parser actions are no longer traced through a string callback: when
    the {!Trace} sink is enabled the engine emits structured events —
    [glr.shift]/[glr.reduce] instants, [gss.fork]/[gss.merge]/[gss.pack]
    for stack splits and local-ambiguity packing, [gss.snapshot] DOT
    captures of a multi-parser stack, [reuse.accept]/[reuse.reject]
    (with the rejection reason: state mismatch, lookahead change,
    pending edit, ...) and a [glr.parse] root span.
    {!Trace.to_legacy_string} renders the Appendix B strings the old
    [trace] callback produced. *)

val default_config : config

(** [parse table root] reparses the document in place: on success
    [root.kids] becomes [[bos; top; eos]], parents are repaired and change
    bits cleared.  On failure the old tree is left structurally intact and
    {!Parse_error} is raised.  Returns parse statistics.

    [budget] bounds the reparse (see {!type:budget}); [deadline] overrides
    the budget's relative deadline with an absolute wall-clock instant in
    {!Metrics.now_ms} milliseconds, so a sequence of recovery attempts can
    share one overall deadline.

    [cancel] is polled at every budget check (once per shifted symbol):
    when it returns [true] the parse aborts exactly as an expired
    deadline would ({!Budget_exhausted} with kind [Deadline], previous
    tree intact).  The parse service folds per-request cancellation
    flags in here so an overdue request degrades through the recovery
    ladder instead of running long. *)
val parse :
  ?config:config ->
  ?budget:budget ->
  ?deadline:float ->
  ?cancel:(unit -> bool) ->
  Lrtab.Table.t ->
  Parsedag.Node.t ->
  stats

(** [parse_tokens table tokens] — batch parse: builds a fresh document
    root over the token list and parses it.  The token list excludes
    sentinels. *)
val parse_tokens :
  ?config:config ->
  ?budget:budget ->
  ?deadline:float ->
  ?cancel:(unit -> bool) ->
  Lrtab.Table.t ->
  Lexgen.Scanner.token list ->
  trailing:string ->
  Parsedag.Node.t * stats

(** Expose the damage pass for tests: marks every node whose yield or
    one-terminal right context contains a modified terminal (Appendix A's
    [process_modifications]). *)
val process_modifications : Parsedag.Node.t -> unit
