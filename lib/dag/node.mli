(** Abstract parse dag nodes (§2 of the paper).

    The deterministic parts of the program are a conventional parse tree of
    production nodes; where the parse is ambiguous, a {e choice} (symbol)
    node holds one child per interpretation (Rekers-style splitting only
    where multiple interpretations actually exist — Figure 2f).  Terminals
    in an ambiguous region are shared between the alternatives, so a
    terminal can have several parents; parent pointers follow the
    first-alternative spine, which is the path the incremental parser's
    input-stream traversal uses.

    Every node carries the parse state recorded when it was shifted
    (state-matching incremental parsing, §3.2); nodes built while several
    parsers were active carry {!nostate}, the equivalence class of all
    non-deterministic states (§3.3) — the matching test always fails on
    them, forcing decomposition and full reconstruction of ambiguous
    regions.

    Change bits ({!changed} for local edits, {!nested} for edits below)
    implement the self-versioning document's damage tracking: the previous
    tree remains intact during a reparse, reused subtrees are shared by
    reference into the new tree, and parent pointers are repaired by
    {!val:commit}.  Flag-only recovery's marks are not node state: the
    editing session lists them until its next commit.

    Layout.  A node is one 8-word block (header and seven fields); what
    it keeps besides is its kid array and, for a terminal, its [Term]
    block (header and four fields, no separate info record) and strings.
    A production node's [kind] is the one [Prod p] value of its
    production, shared by every such node; the two change bits share one
    [flags] word; a parent is a direct pointer, {!orphan} standing for
    "none". *)

type kind =
  | Term of {
      term : int;  (** terminal id *)
      mutable text : string;  (** the lexeme *)
      mutable trivia : string;  (** preceding whitespace/comments *)
      mutable lex_la : int;  (** bytes of lexical lookahead past the lexeme *)
    }
  | Prod of int
      (** production id; kids are the rhs instances.  {!make_prod} shares
          one value per id. *)
  | Choice of choice_info
  | Error of err_info
      (** isolated error region: kids are the raw terminal run that could
          not be incorporated into the parse (local error isolation) *)
  | Bos  (** beginning-of-stream sentinel *)
  | Eos of eos_info  (** end-of-stream sentinel, owns trailing trivia *)
  | Root  (** document root: kids = [bos; top; eos] *)

and choice_info = {
  nt : int;  (** the symbol (phylum) this node represents *)
  mutable selected : int;  (** disambiguated child index, or -1 *)
}

and err_info = { mutable message : string }
and eos_info = { mutable trailing : string }

type t = {
  nid : int;  (** unique id, usable as a side-table key *)
  mutable kind : kind;
  mutable state : int;  (** parse state at construction, or {!nostate} *)
  mutable kids : t array;
  mutable parent : t;  (** {!orphan} for a root or an unlinked node *)
  mutable flags : int;
      (** change bits; read with {!changed} and {!nested}, set with
          {!mark_changed}, cleared by {!commit} and {!clear_changes} *)
  mutable tcount : int;
      (** cached terminal count; maintained by constructors,
          {!refresh_token_count} and {!adjust_token_count} *)
}

val nostate : int
(** The equivalence class of all non-deterministic states (-1). *)

val orphan : t
(** The parent of a root and of every node not linked under another:
    compare with [==].  It is no node of any dag, and nothing may write
    to it ({!Analyze.Check.dag} reports it if anything did).  Its kind is
    [Root] and it has no kids, so a climb that stops at a [Root] parent,
    or at a parent not listing the child, stops at it too. *)

val has_parent : t -> bool
(** [n.parent != orphan]. *)

val allocated : unit -> int
(** Total nodes ever allocated in this process; node ids are assigned
    from this counter, so the value taken before a reparse is a
    watermark separating reused nodes ([nid <=] it) from freshly built
    ones (used by [iglrc dot] to shade reused subtrees). *)

(** {1 Construction} *)

val make_term : term:int -> text:string -> trivia:string -> lex_la:int -> t
val make_prod : prod:int -> state:int -> t array -> t

(** [make_choice ~nt alts] — a symbol node over ≥2 interpretations; its
    state is always {!nostate}. *)
val make_choice : nt:int -> t array -> t

(** [make_error ~message kids] — an error-region node over ≥1 terminal
    kids (the unincorporated token run); its state is always {!nostate},
    and its kind is all that marks it as erroneous.  The incremental
    parser decomposes error nodes unconditionally, so the region is
    re-offered to the parser on every later reparse until the text is
    fixed. *)
val make_error : message:string -> t array -> t

val make_bos : unit -> t
val make_eos : trailing:string -> t

(** [make_root kids] — [kids] must start with a {!Bos} and end with an
    {!Eos}. *)
val make_root : t array -> t

(** {1 Inspection} *)

val arity : t -> int
val is_terminal : t -> bool
val is_sentinel : t -> bool

(** The grammar symbol this node stands for, given the production table:
    [`T t] for terminals, [`N nt] for production/choice nodes, [`Other]
    for sentinels and the root. *)
val symbol : Grammar.Cfg.t -> t -> [ `T of int | `N of int | `Other ]

(** Concatenated source text of the subtree (trivia + lexemes).  For a
    choice node, the first alternative (all alternatives share the same
    terminal yield). *)
val text_yield : t -> string

(** Number of terminal leaves under the node (first alternative of
    choices; sentinels count as 0).  O(1): reads the cached count. *)
val token_count : t -> int

(** Recompute this node's cached count from its kids (after replacing the
    kid array wholesale). *)
val refresh_token_count : t -> unit

(** [adjust_token_count n delta] — add [delta] to [n]'s count and every
    ancestor's (used by {!splice_kids}). *)
val adjust_token_count : t -> int -> unit

(** [splice_kids p ~at ~del nodes] replaces kids [at .. at+del-1] of [p]
    with [nodes] (one new kid array), points each inserted node's parent
    at [p], and adjusts the counts of [p] and its ancestors by the net
    change.  It marks nothing as changed: callers mark what their edit
    means.  Removed kids keep their parent pointers.  The one way the
    document rewrites a kid array.
    @raise Invalid_argument when the range is not within [p]'s kids. *)
val splice_kids : t -> at:int -> del:int -> t array -> unit

(** Leftmost terminal descendant (via first alternatives), if any. *)
val first_terminal : t -> t option

(** The selected interpretation of a disambiguated choice node; [None]
    while it is unresolved, and for every other kind of node.  After
    selection, tools can treat choice nodes as transparent: this is the
    embedded-tree view of §4.2(d). *)
val chosen : t -> t option

(** The selected (else the first) alternative of a choice node; any other
    node itself.  The path every one-reading walk follows. *)
val alt : t -> t

(** {1 Change tracking} *)

(** [mark_changed n] sets the local bit and propagates [nested] to the
    root via parent pointers. *)
val mark_changed : t -> unit

val changed : t -> bool
(** The local change bit: the node itself was edited or rebuilt. *)

val nested : t -> bool
(** The nested change bit: something below the node changed. *)

val has_changes : t -> bool
(** Local or nested changes. *)

val clear_changes : t -> unit
(** Clear both change bits of one node. *)

(** [commit root] repairs parent pointers along the (possibly partially
    fresh) tree and clears all change bits: the tree becomes the new
    "previous version".  Alternatives of a choice node are walked
    last-to-first so shared terminals end with first-alternative
    parents. *)
val commit : t -> unit

(** {1 Structure comparison} *)

(** Structural equality of kinds, production ids, terminal text/trivia and
    choice alternatives; ignores ids, states, and change bits.  Used by
    tests to compare incremental against from-scratch parses. *)
val structural_equal : t -> t -> bool

(** {1 Counting} *)

(** [count_nodes root] — nodes reachable through kids (each shared node
    counted once). *)
val count_nodes : t -> int

val iter : (t -> unit) -> t -> unit
(** Pre-order over all reachable nodes, visiting shared nodes once. *)
