(** Editing sessions: document + table + incremental parser + recovery.

    The convenience layer a tool builds on: create a session from source
    text, apply edits, reparse incrementally.  Failed parses go through a
    degradation ladder:

    + {e local error isolation} — the damaged token run (widened to the
      smallest enclosing isolation unit: an element of an associative
      ECFG sequence, i.e. a statement or declaration) is masked out of
      the stream, the remainder is reparsed with full reuse, and the run
      is spliced back as an explicit error node in the committed tree;
    + {e flag-only recovery} (§4.3) — when isolation fails or runs out of
      budget, the previous structure is retained and the unincorporated
      modifications stay marked (their change bits survive).  A document
      with no pending modifications (an initial parse) flags the failure
      token itself, so the damage always shows in {!error_regions}.

    Both forms converge: isolated regions sit under state-cleared spines
    and are re-offered to the parser on every later reparse, so the
    session returns to a clean parse — identical to a batch parse — once
    the text is repaired.

    Resource budgets ({!Glr.budget}) bound every reparse: the full parse
    and all isolation attempts share one absolute deadline, and GSS
    width / dag allocation limits apply to each parse, so [reparse]
    always terminates with a well-formed tree. *)

type t

(** A position in the document, redundantly encoded: token offset, byte
    offset of the token's text (after leading trivia), and 1-based
    line/column (column in bytes). *)
type location = {
  offset_tokens : int;
  offset_bytes : int;
  line : int;
  col : int;
}

(** One damaged region of the current tree: either an isolated error
    node (message from the parse failure) or a maximal run of terminals
    flagged by flag-only recovery (message ["unincorporated edit"]). *)
type region = {
  r_start : location;
  r_end_byte : int;  (** byte offset one past the last token's text *)
  r_tokens : int;  (** tokens covered *)
  r_message : string;
}

type outcome =
  | Parsed of Glr.stats  (** clean parse; tree committed *)
  | Recovered of {
      flagged : int;  (** tokens inside error regions / flagged *)
      isolated : int;
          (** error regions spliced (0 = flag-only fallback) *)
      degraded : bool;
          (** a resource budget was hit (GSS pruned or parse aborted) *)
      error : Glr.error;
      location : location;  (** [error]'s position in the document *)
    }
      (** the parse failed; damage confined to error regions (or left
          pending), rest of the tree reparsed and committed normally *)

(** [create ~table ~lexer text] parses [text] on [table].  The session
    applies no syntactic filter (§4.1) of its own: a language's filters
    are compiled into the table it parses on
    ([Languages.Language.table]).  A caller that replays a dynamic
    filter pipeline on a conflict-retaining table applies
    [Syn_filter.apply] to the initial tree and subscribes it with
    {!on_commit}.

    [budget] bounds every reparse (default {!Glr.no_budget}): exhaustion
    degrades deterministically instead of raising. *)
val create :
  ?config:Glr.config ->
  ?budget:Glr.budget ->
  table:Lrtab.Table.t ->
  lexer:Lexgen.Spec.t ->
  string ->
  t * outcome

(** [on_commit t hook] — subscribe to tree commits.  After every reparse
    that commits a tree (clean parses and successful isolations, whose
    tree contains error nodes), each subscriber runs with the committed
    root and the node-allocation watermark captured before the parse:
    retained nodes have [nid <= watermark], freshly built structure sits
    above it.  This is the push half of the incremental query engine's
    invalidation — subscribers typically call [Query.commit_tree] to
    dirty exactly the changed subtrees; a sanity check such as
    [Analyze.Check.assert_dag] catches dag corruption at the edit that
    introduces it.  Hooks run in subscription order, inside the
    session's ownership token (calling {!edit}/{!reparse} from a hook
    raises {!Busy}); an exception a hook raises propagates to the caller
    of {!reparse}. *)
val on_commit : t -> (watermark:int -> Parsedag.Node.t -> unit) -> unit

(** [set_budget t b] — replace the budget applied to subsequent
    reparses.  The parse-service daemon uses this to honour per-request
    budgets on a long-lived session. *)
val set_budget : t -> Glr.budget -> unit

(** A session's document and parse dag are single-owner mutable state:
    {!edit} and {!reparse} take an internal ownership token for their
    whole duration and raise [Busy] when entered concurrently (or
    re-entrantly, e.g. from an {!on_commit} hook).  Callers that multiplex
    sessions across domains must serialise requests per session — the
    daemon's scheduler guarantees per-document ordering, so [Busy]
    indicates a scheduling bug rather than a recoverable condition. *)
exception Busy

val measure : (unit -> 'a) -> 'a * Metrics.snapshot
(** [measure f] runs [f] and returns its result with the domain-local
    metric activity it caused ({!Metrics.local_snapshot} diffed around
    the call).  Because the registry is sharded per domain and a
    scheduled request runs entirely on one domain, the delta is exact
    even while other domains parse concurrently — the substrate of the
    daemon's request-correlated metric diffs. *)

val document : t -> Vdoc.Document.t
val root : t -> Parsedag.Node.t
val text : t -> string
val table : t -> Lrtab.Table.t
val budget : t -> Glr.budget

(** [edit t ~pos ~del ~insert] — textual edit (no reparse). *)
val edit : t -> pos:int -> del:int -> insert:string -> unit

(** [reparse t] — incremental reparse of all pending edits.  Never raises
    {!Glr.Parse_error} or {!Glr.Budget_exhausted}: failures surface as
    [Recovered].

    [cancel] is polled by the parser alongside its deadline budget (full
    parse and every isolation attempt): when it reports [true] the
    reparse degrades through the recovery ladder and returns a
    [Recovered] outcome with [degraded = true] — the parse service's
    deadline-cancellation hook. *)
val reparse : ?cancel:(unit -> bool) -> t -> outcome

(** [has_errors t] — true after a [Recovered] outcome until a later clean
    parse. *)
val has_errors : t -> bool

(** [error_regions t] — the damaged regions of the current tree, in
    source order: isolated error nodes plus maximal runs of terminals
    flagged by flag-only recovery.  Empty after a clean parse. *)
val error_regions : t -> region list

(** [isolation_unit t k] — the leaf-index span [(lo, hi)] that error
    isolation masks first when a parse fails at token [k] (which must be
    in [0..token_count - 1]): the enclosing error node's run when [k] is
    already isolated, else the smallest enclosing sequence element
    (statement, declaration), else [(k, k)].  Read-only; found by
    walking [k]'s parent path, so it costs that path's length. *)
val isolation_unit : t -> int -> int * int

(** [location_of_token t k] — position of token [k] (clamped to
    [0..token_count]); [k = token_count] is the end of input. *)
val location_of_token : t -> int -> location
