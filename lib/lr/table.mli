(** Conflict-retaining LR parse tables.

    Unlike a deterministic generator, conflicts are not errors: every
    (state, terminal) entry holds a {e list} of actions, and the GLR/IGLR
    parsers fork one parser per action (§3.1 of the paper).  Yacc-style
    precedence/associativity declarations act as {e static syntactic
    filters} (§4.1): they remove shift/reduce conflicts at construction
    time, so statically disambiguated regions parse deterministically.

    Tables also precompute {e nonterminal reductions} (§3.2): for state [s]
    and non-nullable nonterminal [N], if every terminal in FIRST(N)
    prescribes the same pure-reduction action list, that list can be used
    directly when the incremental parser's lookahead is a subtree rooted at
    [N], avoiding a descent to the leftmost terminal. *)

type action = Shift of int | Reduce of int | Accept

val equal_action : action -> action -> bool
val pp_action : Format.formatter -> action -> unit

type algo = SLR | LALR | LR1

type conflict = {
  c_state : int;
  c_term : int;
  c_actions : action list;  (** the actions left in the entry *)
}

type t

(** [build g] constructs the table.  [algo] defaults to [LALR] (what the
    paper uses: smaller and faster than canonical [LR1], better subtree
    reuse from merged cores); [SLR] and canonical [LR1] are provided for
    comparison.  [resolve_prec] (default [true]) applies
    precedence/associativity filters to shift/reduce conflicts. *)
val build : ?algo:algo -> ?resolve_prec:bool -> Grammar.Cfg.t -> t

val with_overrides : t -> ((int * int) * action) list -> t
(** [with_overrides t ov] returns a copy of [t] in which each
    [((state, term), action)] pair replaces the multi-action entry at
    [(state, term)] with the single chosen [action] — the table-rewrite
    step of static filter compilation (the caller is responsible for
    having proved the choice sound).  The conflict list and the
    precomputed nonterminal reductions are recomputed, so entries made
    deterministic here also become eligible for subtree-lookahead
    reduction and sentential-form parsing.  With no overrides, [t]
    itself is returned.
    @raise Invalid_argument if a chosen action is not a member of the
    existing entry. *)

val grammar : t -> Grammar.Cfg.t
(** The original (un-augmented) grammar. *)

val algo : t -> algo
(** The construction algorithm this table was built with.  Conflict states
    index the LR(0) machine for [SLR]/[LALR] and the canonical-collection
    state space for [LR1]. *)

(** The LR(0) characteristic machine (note: [LR1] tables have their own
    state space; this accessor always reports the LR(0) machine). *)
val automaton : t -> Automaton.t

val analysis : t -> Grammar.Analysis.t
val num_states : t -> int
val start_state : t -> int

(** Actions on a terminal.  Shift actions precede reductions; reductions
    are ordered by production id.  Empty list = syntax error. *)
val actions : t -> state:int -> term:int -> action list

(** Goto on a nonterminal; [-1] if undefined. *)
val goto : t -> state:int -> nt:int -> int

(** Precomputed uniform reductions for a subtree lookahead (§3.2), or
    [None] when the terminal must be consulted. *)
val actions_on_nt : t -> state:int -> nt:int -> action list option

(** Conflicts remaining after static filtering; empty iff the grammar is
    deterministic for this table. *)
val conflicts : t -> conflict list

val is_deterministic : t -> bool

(** States in which some entry is multiply defined (used by tests and
    diagnostics). *)
val conflicted_states : t -> int list

(** LR(0) items participating in a conflict: completed items of the
    reduced productions plus the items whose dot precedes the conflict
    terminal (shift side).  Only meaningful for [SLR]/[LALR] tables; the
    empty list for [LR1].  Items are codes for {!Item.pp} under
    [Automaton.ctx (automaton t)]. *)
val conflict_items : t -> conflict -> int list

val pp_conflict : t -> Format.formatter -> conflict -> unit
val pp_stats : Format.formatter -> t -> unit
