(** A language bundle: grammar + parse tables + lexer + disambiguation
    annotations.

    A bundle carries two LALR tables, built lazily (LALR construction and
    DFA subset construction are not free) and shared by tests, examples,
    tools and the daemon:

    - {!table}, the table every parse runs on: the conflict-retaining
      table with every declared syntactic filter compiled into it
      ([Lrtab.Compile]).  All bundled languages compile to an empty
      residual set, so a parse on it is already syntactically
      disambiguated and no filter runs at parse time;
    - {!conflict_table}, the table before compilation, with every
      conflict the grammar retains.  Only the tools that analyse raw
      conflicts use it (table statistics, lint, the ambiguity analyzer,
      filter compilation and its certification), and so do the oracles
      that replay the dynamic filter pipeline ([Syn_filter.apply] on a
      parse of this table). *)

(** Per-language ambiguity annotations: how the ambiguity analyzer
    ({!Analyze.Ambig}) should replay witnesses through this language's
    disambiguation pipeline, and the committed {e ambiguity budget} the
    build enforces ([iglrc ambig --check]). *)
type ambig_spec = {
  syn_filters : Iglr.Syn_filter.rule list;
      (** the syntactic filters the language declares: compiled into
          {!table}, replayed dynamically by the analyzers and oracles *)
  sem_policy : Semantics.Typedefs.policy option;
      (** semantic disambiguation policy, when the language has one *)
  sem_preamble : string list;
      (** terminal names of a preamble that supplies semantic bindings
          (e.g. [typedef int x ;]), tried when a bare witness stays
          unresolved *)
  lexemes : (string * string) list;
      (** terminal-name → lexeme overrides for witness rendering *)
  max_unresolved : int;
      (** budget: maximum [retained-unresolved] ambiguity classes *)
  expect : (string * string) list;
      (** budget: (class-name prefix, expected resolution name) pairs *)
  filter_expect : (string * string) list;
      (** compiled-filter annotations: ([Syn_filter.rule_name],
          expected [Lrtab.Compile] verdict name) per declared rule, in
          declaration order — checked by [iglrc filtcomp --check] *)
  max_residual : int;
      (** budget: maximum rules allowed to stay residual-dynamic *)
}

val default_ambig : ambig_spec
(** No filters, no policy, zero unresolved classes and zero residual
    rules allowed. *)

type t = {
  name : string;
  grammar : Grammar.Cfg.t;
  conflict_table : Lrtab.Table.t Lazy.t;
  compiled : Lrtab.Compile.result Lazy.t;
  table : Lrtab.Table.t Lazy.t;
  lexer : Lexgen.Spec.t Lazy.t;
  ambig : ambig_spec;
}

val spec_of_rule : Iglr.Syn_filter.rule -> Lrtab.Compile.spec
(** Translate a dynamic filter rule into its declarative compilation
    spec ([Fewest_nodes] and [Custom] become [Opaque]). *)

val make :
  name:string ->
  grammar:Grammar.Cfg.t ->
  ?ambig:ambig_spec ->
  rules:Lexgen.Spec.rule list ->
  unit ->
  t

val table : t -> Lrtab.Table.t
(** The filter-compiled table every parse runs on.  Forcing it raises
    [Invalid_argument] when some declared filter stays residual, which
    [max_residual = 0] and the committed certificates forbid. *)

val conflict_table : t -> Lrtab.Table.t
(** The conflict-retaining LALR(1) table, before filter compilation. *)

val lexer : t -> Lexgen.Spec.t

val compiled : t -> Lrtab.Compile.result
(** The filter compilation of {!conflict_table}: decisions, per-rule
    verdicts, residual rules and the rewritten table. *)
