(** Static grammar diagnostics (the [iglrc lint] pass).

    Two families of checks:

    {ol
    {- {b Grammar hygiene}, independent of any parse table: unreachable and
       unproductive nonterminals, useless productions, derivation cycles
       [A =>+ A] (the infinite-ambiguity hazard for GLR: a cyclic grammar
       assigns some strings infinitely many parse trees, so the parser's
       packing is no longer a bound on work), and precedence levels that
       are declared but can never influence conflict resolution.}
    {- {b Conflict diagnostics} over the conflicts {e retained} by
       {!Lrtab.Table.build} after static precedence filtering (§4.1 of the
       paper).  Retained conflicts are not errors — they are where GLR
       forks — but each deserves an explanation: a shortest example
       sentence reaching the conflicting (state, terminal), the LR items
       involved, and a classification separating conflicts a precedence
       declaration would kill from typedef-style lexical ambiguity and
       from genuine structural ambiguity.}} *)

type severity = Error | Warning | Info

(** Why a conflict survives static filtering. *)
type conflict_class =
  | Prec_resolvable
      (** shift/reduce; declaring precedence/associativity for the
          terminal and the reduced production(s) would resolve it
          statically *)
  | Lexical_ambiguity
      (** reduce/reduce between productions with identical right-hand
          sides and distinct left-hand sides — the paper's typedef
          pattern ([type_spec -> id] vs [expr -> id]): only non-syntactic
          information can decide, so the conflict must be retained for
          semantic disambiguation (§4.2) *)
  | Genuine_ambiguity
      (** anything else: structurally distinct interpretations (or
          insufficient lookahead) that the dag represents as choice
          nodes *)

type conflict_info = {
  conflict : Lrtab.Table.conflict;
  klass : conflict_class;
  hint : string;  (** one-line actionable explanation *)
  example : int list option;
      (** terminal ids of a shortest sentential prefix exhibiting the
          conflict; the final terminal is the conflicting lookahead.
          [None] for [LR1] tables (whose conflict states do not index the
          LR(0) machine) or unrealizable paths. *)
  items : int list;
      (** LR(0) item codes involved (see {!Lrtab.Table.conflict_items}) *)
}

type diagnostic =
  | Unreachable_nt of int  (** nonterminal never derived from the start *)
  | Unproductive_nt of int  (** nonterminal deriving no terminal string *)
  | Useless_production of int
      (** production mentioning an unproductive nonterminal while its own
          lhs is otherwise reachable and productive *)
  | Derivation_cycle of int list
      (** nonterminals forming a unit/ε-cycle [A =>+ A]; the witness list
          is one cycle in derivation order *)
  | Unused_prec of { level : int; terminals : int list }
      (** precedence level whose terminals occur in no right-hand side and
          whose precedence no production borrows *)
  | Dead_filter of { rule : string; why : string; example : int list option }
      (** declared dynamic disambiguation rule the filter-compilation
          analysis ({!Filtcomp}) proves can never resolve anything on any
          reachable conflict; [example] is a shortest sentence reaching a
          conflict the rule examines in vain, when one exists *)
  | Conflict of conflict_info

val severity : diagnostic -> severity
(** Hygiene defects are [Error]s, unused precedence and dead filters are
    [Warning]s, retained conflicts are [Info] (they are deliberate under
    GLR). *)

(** [grammar_diagnostics g] — the table-independent checks only. *)
val grammar_diagnostics : Grammar.Cfg.t -> diagnostic list

(** [conflict_diagnostics table] — one {!conflict_info} per retained
    conflict, in table order. *)
val conflict_diagnostics : Lrtab.Table.t -> conflict_info list

(** [run table] — all diagnostics: grammar hygiene first, then conflicts. *)
val run : Lrtab.Table.t -> diagnostic list

val errors : diagnostic list -> diagnostic list
val warnings : diagnostic list -> diagnostic list

(** [shortest_sentence table ~state ~term] — the example-sentence engine
    behind {!conflict_diagnostics}, exposed for tests and tooling: a
    minimal-length terminal string driving the parser into [state] with
    lookahead [term].  BFS over the LR(0) automaton for the state path,
    with each path symbol expanded to its shortest terminal yield. *)
val shortest_sentence :
  Lrtab.Table.t -> state:int -> term:int -> int list option

(** [to_json ?language table ds] — machine-readable findings in the
    {!Envelope}: [{schema; tool = "lint"; language?; findings; errors;
    warnings; conflicts}], each finding an object with
    [severity]/[rule]/[message] plus rule-specific fields (conflicts carry
    [state]/[term]/[class]/[example]/[hint]). *)
val to_json :
  ?language:string -> Lrtab.Table.t -> diagnostic list -> Metrics.Json.t

val pp_class : Format.formatter -> conflict_class -> unit
val pp_diagnostic : Lrtab.Table.t -> Format.formatter -> diagnostic -> unit

(** Full human-readable report; ends with a one-line summary. *)
val pp_report : Lrtab.Table.t -> Format.formatter -> diagnostic list -> unit
