(** Dynamic syntactic disambiguation filters (§4.1; Klint & Visser,
    refs [6, 11, 23]).

    Static filters (precedence/associativity) act at table-construction
    time.  When a preference cannot be decided from left context and the
    built-in lookahead — C++'s "prefer a declaration to an expression" is
    the canonical case — the ambiguity is carried in the dag and a
    post-parse filter selects among the interpretations.  Unlike semantic
    filters (§4.2), syntactic filters are context-free decisions and the
    rejected interpretations are {e not} retained (the paper keeps only
    semantically-filtered alternatives): the choice node is spliced out
    and replaced by the surviving interpretation.

    Filters run after every parse (ambiguous regions are reconstructed on
    modification, resurrecting their choice nodes, so the filter pass is
    idempotent and incremental by nature: it only ever sees freshly
    rebuilt choices). *)

type rule =
  | Prefer_production of string
      (** choose the alternative whose top production's first right-hand
          symbol is the named nonterminal (e.g. ["decl"]: prefer a
          declaration) *)
  | Production_priority of (string * int) list
      (** Visser-style priorities on production left-hand sides paired
          with rhs shape; here: [(terminal-name, priority)] ranks
          alternatives by the priority of the {e operator terminal}
          appearing at their top production's second position — the
          classic operator-ambiguity filter.  Highest priority wins;
          ties stay ambiguous. *)
  | Fewest_nodes  (** structural heuristic: smallest interpretation *)
  | Custom of (Grammar.Cfg.t -> Parsedag.Node.t -> int option)
      (** arbitrary decision: given the choice node, return the index of
          the surviving alternative *)

type report = {
  examined : int;  (** choice nodes visited *)
  filtered : int;  (** choices resolved and spliced out *)
  remaining : int;  (** choices left for later (semantic) stages *)
}

val rule_name : rule -> string
(** Stable short name for diagnostics and filter-compilation reports. *)

(** [apply g rules root] — run the rules (first decisive rule wins) over
    every choice node, splicing out resolved choices.  Safe to run
    repeatedly.  Counts its work under the [filter.*] metrics
    ([apply_calls], [choices_examined], [choices_resolved]) so the
    zero-overhead claim of static filter compilation is checkable. *)
val apply : Grammar.Cfg.t -> rule list -> Parsedag.Node.t -> report
