(** Incremental semantic diagnostics: typedef disambiguation and three
    static analyses layered on the {!Query} engine.

    + {e Typedef decisions} (C subsets, §4.2) — per top-level item, a
      decision cell selects every choice node's interpretation from the
      namespace of its leading identifier.  Its one input is the item's
      {e visible-typedef restriction}: the file-scope typedef names
      declared before the item, restricted to the leading identifiers of
      its choices.  Typedef names local to a block are resolved inside
      the cell.  A keystroke re-decides the rebuilt item and any item whose
      restriction changed; every other decision validates clean.
    + {e Scope graph construction} — per top-level item (a statement of
      [calc], an external declaration of the C-like subsets), a summary
      cell that reads no environment (only the item's decisions) records
      the bindings the item exports, the free names it references, and
      the diagnostics decidable without looking outside the item (a
      local variable never read, a local read before its declaration).
    + {e Name resolution} — a second cell per item resolves the free
      names against an {e environment restriction} input: only the
      visible bindings whose names the item actually mentions.  An edit
      elsewhere that does not change that restricted view leaves the cell
      untouched (early cutoff at the input).
    + {e Type checking} — a third cell per item types expressions against
      the (equally restricted) typing environment, reporting mismatches.
      [calc] follows the paper's toy arithmetic — [/] is true division
      and yields [float], mixing [int] and [float] operands is a
      mismatch; the C subsets type through [typedef]-introduced names
      nominally for display and structurally for checking.

    Aggregation across items (which diagnostics a free name earns, which
    exported bindings are never used anywhere) is plain per-run driver
    code: it is linear in the number of items and never re-walks their
    subtrees — the tree-walking work all lives in cells keyed by the
    item's dag node, so a reparse that rebuilds one statement recomputes
    that statement's cells and validates everything else clean.

    The scope cell of an item fetches its decision cell before walking
    the selected alternatives, so one engine and one walk per keystroke
    serve both disambiguation and diagnostics.  The analyzer is wired to
    a session from outside this library (the layering keeps [semantics]
    below the parser runtime): subscribe {!commit} via
    [Session.on_commit]. *)

(** Types of the simple checker.  [Named] is the display type of a
    variable declared through a typedef (checking is structural, against
    the resolved underlying type). *)
type ty = Int | Float | Char | Void | Named of string | Unknown

val ty_name : ty -> string

type def_kind = Var | Func | Type | Param

val kind_name : def_kind -> string

(** An exported (top-level) binding, in source order.  [b_token] is the
    absolute token offset of the defining occurrence. *)
type binding = {
  b_name : string;
  b_kind : def_kind;
  b_ty : ty;
  b_token : int;
}

(** One diagnostic.  [d_code] is one of ["unbound-name"],
    ["use-before-decl"], ["unused-binding"], ["type-mismatch"];
    [d_token] the absolute token offset it is anchored to. *)
type diag = { d_code : string; d_token : int; d_message : string }

type result = {
  bindings : binding list;  (** exported bindings, source order *)
  diags : diag list;  (** sorted by token offset, then code *)
  types : (int * ty) list;
      (** computed types of statement expressions and initializers,
          keyed by the expression's first token offset *)
  typedefs : string list;  (** file-scope typedef names in force, sorted *)
}

(** Every typedef decision of one run, totalled over the document
    ({!decide}). *)
type decisions = {
  typedef_names : string list;  (** file-scope typedef names, sorted *)
  typedef_decls : int;  (** typedef declarations walked, any scope *)
  choices : int;  (** choice nodes on the selected path *)
  decided : int;  (** choices (re)decided this run; validated ones count 0 *)
  reinterpreted : int;  (** decisions that flipped an earlier selection *)
  unresolved : int;  (** choices left with every interpretation *)
  prefer_candidates : int;
      (** decisions this run where the name is a type and both readings
          exist — where C++'s prefer-declaration rule applies *)
  sem_errors : (string * string) list;
      (** (kind, name) in walk order: ["type-in-expression-position"],
          ["unknown-type-name"] *)
}

type t

val supported : Grammar.Cfg.t -> bool
(** The analyses understand the [calc] grammar and the C-like subsets
    (recognised by their nonterminal vocabulary); other languages are
    not supported and [create] refuses them. *)

val create : Grammar.Cfg.t -> t
(** @raise Invalid_argument when the grammar is not {!supported}. *)

val engine : t -> Query.t
(** The backing query engine (stats, tests, metrics). *)

val commit : t -> watermark:int -> Parsedag.Node.t -> unit
(** Forward a session commit into the engine: dirty the cells that read
    freshly built subtrees ([Query.commit_tree]).  Subscribe as
    [Session.on_commit s (fun ~watermark root -> Diag.commit d ~watermark root)]. *)

val touch : t -> Parsedag.Node.t -> unit
(** Dirty cells that read [n]: a choice node whose selection something
    outside this analyzer flipped in place.  Its item re-decides it on
    the next run. *)

val decide : t -> ?on_select:(Parsedag.Node.t -> unit) -> Parsedag.Node.t -> decisions
(** Run the typedef decisions alone over the tree rooted at [root]:
    fetch every item's decision cell and total the counters.  [on_select]
    sees each choice node whose selection a decision changed.  On a
    grammar without a typedef namespace nothing is decided.

    [decide] then {!run} on the same tree is one pass and one engine:
    [run] validates the decisions clean and sweeps the cells neither
    used.  [decide] sweeps nothing itself, so the analysis cells of the
    previous [run] survive it; a long-lived analyzer that only decides
    sweeps with [Query.collect (engine t)]. *)

val run : t -> ?typedefs:string list -> Parsedag.Node.t -> result
(** Analyze the committed tree rooted at [root] (pass the session
    root).  Makes the typedef decisions, fetches the per-item cells —
    recomputing only what the edits since the last run invalidated —
    aggregates, and garbage collects cells for items no longer in the
    tree.

    [typedefs] is deprecated: the result computes its own [typedefs].
    When given, it must equal them up to order and duplicates (a
    cross-check of an external view), otherwise [Invalid_argument] is
    raised. *)

val render : result -> string
(** Deterministic s-expression rendering: equal results render equal —
    the differential oracle's comparison key and the CLI's [--sexp]
    output. *)

val json_fields :
  loc:(int -> int * int) -> result -> (string * Metrics.Json.t) list
(** The [diagnostics], [bindings] and [typedefs] fields of the
    [iglrc diag --json] document and of the daemon's [diag] response.
    [loc] maps a token offset to its 1-based (line, column). *)
