(** Space accounting for parse dags (Table 1, Figure 4, §5 of the paper).

    Words are measured on the heap: a node is charged every block it
    owns, header included — its record, its non-empty kid array, its
    kind's blocks and its strings, each string once however many nodes
    share it.  Per-program constants ({!Node.orphan}, the empty kid
    array, the [Prod] values shared per production) are left out, so
    [dag_words] plus those is [Obj.reachable_words] of the root.  The
    "fully disambiguated parse tree" baseline is the same structure with
    every choice node replaced by a single alternative (sharing
    resolved), which is what a batch compiler with lexer feedback would
    have built.  The "sentential-form" baseline (§5) additionally drops
    the per-node state word. *)

type t = {
  total_nodes : int;
  term_nodes : int;
  prod_nodes : int;
  choice_nodes : int;
  choice_alts : int;  (** total alternatives under choice nodes *)
  dag_words : int;  (** storage words for the full dag *)
  tree_words : int;  (** words after discarding unselected alternatives *)
  sentential_words : int;  (** tree words minus the per-node state word *)
}

val measure : Node.t -> t

(** [(dag_words - tree_words) / tree_words * 100] — the paper's
    "space increase over parse tree" (Table 1 / Figure 4). *)
val space_overhead_pct : t -> float

(** [(tree_words - sentential_words) / sentential_words * 100] — the §5
    state-word overhead (≈5% in the paper). *)
val state_word_overhead_pct : t -> float

val pp : Format.formatter -> t -> unit
