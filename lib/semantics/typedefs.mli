(** Semantic disambiguation of the C-like subsets (§4.2 of the paper).

    The analysis follows the paper's staging: typedef declarations are
    gathered into per-scope binding contours in document order; the
    contour in force at each choice node determines the namespace of the
    region's leading identifier, which selects the declaration or the
    expression interpretation.  Unselected alternatives are {e retained}
    in the dag (semantic filters may need to flip when distant bindings
    change — §4.2's typedef-removal scenario), and regions that cannot be
    resolved (unknown names, missing interpretations) keep all their
    interpretations indefinitely (§4.3).

    The decisions are {!Diag}'s: one cell per top-level item, whose
    input is the file-scope typedef names declared before the item,
    restricted to the leading identifiers of its choices.  This module
    is a view of them — an analyzer owns a [Diag] analyzer that runs only
    those cells, and reports their counters.  A re-run after an edit
    re-decides only rebuilt items and items whose restriction changed —
    the incremental behaviour of the paper's semantic filters. *)

type policy =
  | Namespace_only
      (** C: the identifier's namespace decides; a type name in
          expression position (or vice versa) is a semantic error. *)
  | Prefer_decl
      (** C++: when both interpretations remain plausible (the leading
          identifier names a type), prefer the declaration (§4.1 / ref
          [3]). *)

type report = {
  typedefs : int;  (** typedef declarations in scope-collection order *)
  choices : int;  (** choice nodes visited *)
  decided : int;  (** decisions computed this run (not memoized) *)
  reinterpreted : int;  (** decisions that flipped an earlier selection *)
  unresolved : int;  (** choices left with multiple interpretations *)
  prefer_decl_applied : int;  (** C++ rule applications *)
  errors : (string * string) list;  (** (kind, detail) semantic errors *)
}

type t
(** Analyzer with memoized decisions; reuse across runs on the same
    document for incremental behaviour.  The policy only decides whether
    [prefer_decl_applied] counts: both policies select the same
    alternative. *)

val create : ?policy:policy -> Grammar.Cfg.t -> t
val analyze : t -> Parsedag.Node.t -> report

val engine : t -> Query.t
(** The query engine backing the decisions (stats, tests). *)

val on_select : t -> (Parsedag.Node.t -> unit) -> unit
(** Install a hook invoked with each choice node whose selection a
    decision actually changed.  A [Diag] analyzer makes the same
    decisions itself and needs no bridge; the hook serves observers of
    the flips. *)

(** The selected interpretation of a disambiguated choice node ([None]
    while unresolved).  After selection, tools can treat choice nodes as
    transparent: [chosen] is the embedded-tree view of §4.2(d). *)
val chosen : Parsedag.Node.t -> Parsedag.Node.t option

(** Typedef names visible at top level after the last run (diagnostics,
    tests). *)
val global_typedefs : t -> string list
