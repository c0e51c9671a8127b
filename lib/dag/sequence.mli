(** Sequence spines (the builder's [star]/[plus] notation), and the only
    reader of their desugared productions: a different spine
    representation changes this module alone.  Tools usually want the
    flat element list (the paper's "abstract" view of associative
    sequences, §3.4). *)

(** [is_sequence g n] — [n] is a production or choice node of a sequence
    nonterminal. *)
val is_sequence : Grammar.Cfg.t -> Node.t -> bool

(** [is_spine_root g n] — [n] is a sequence node other than the list kid
    of a cons node ([L -> L elem]): every sequence node lies on the cons
    chain of exactly one spine root. *)
val is_spine_root : Grammar.Cfg.t -> Node.t -> bool

(** [is_element g n] — [n] is the last kid of a spine node that lists one
    element, its parent reached through choice wrappers: an isolation
    unit of error recovery. *)
val is_element : Grammar.Cfg.t -> Node.t -> bool

type step =
  | Choice  (** a choice on the cons chain, before the walk follows its
                selected (or first) alternative *)
  | Skip  (** no element: a separator, an error node spliced into the
              spine, a wrapper production's kid *)
  | Element  (** an element as it sits in the spine, choice nodes too *)

(** [walk g top f] calls [f] over the spine rooted at [top] in document
    order: each choice on the cons chain first (so [f] may decide it),
    then each element and non-element kid, every token exactly once. *)
val walk : Grammar.Cfg.t -> Node.t -> (step -> Node.t -> unit) -> unit

(** [elements g node] — the walk's elements, in source order, choices
    resolved to the selected (or first) alternative.  For a node that is
    no sequence node, the singleton list. *)
val elements : Grammar.Cfg.t -> Node.t -> Node.t list
