(** Static ambiguity analysis with witness generation and
    disambiguation-filter coverage checking.

    The paper's architecture {e retains} ambiguity in the parse dag and
    kills it later — statically (precedence, §4.1), dynamically
    (syntactic filters, §4.1), or semantically (typedef analysis, §4.2).
    This module answers the whole-grammar question that per-conflict
    diagnostics ({!Lint}) cannot: {e which ambiguity classes can the
    grammar actually produce, and is every one of them covered by some
    declared filter?}  Three stages:

    {ol
    {- {b Conservative approximation.}  A grammar that is ambiguous
       necessarily has LR conflicts in its {e unfiltered} table
       (conflict-free ⇒ deterministic ⇒ unambiguous), so the unfiltered
       conflict set is an over-approximation of all ambiguity sources
       with no false negatives.  It is refined Schmitz-style: a position
       automaton over grammar positions [(production, dot)] — terminal
       shifts, ε-derives, and stackless (hence conservative)
       ε-reduces — is squared into a pair automaton whose runs move two
       derivations in lockstep over a common sentence.  A conflict whose
       item pairs cannot reach a pair of accepting positions
       (co-accessibility, computed by backward BFS) is {e certified}
       unambiguous and pruned; survivors flag their nonterminals as
       potentially ambiguous.}
    {- {b Bounded witness search.}  Candidate sentences are enumerated
       from the flagged nonterminals ({!Grammar.Yield}: bounded
       derivation of the region, embedded in per-occurrence minimal
       contexts) and confirmed by the Earley oracle
       ({!Earley.count_derivations} ≥ 2); the two derivation trees are
       attributed back to a conflict class via the productions on which
       they differ, and pretty-printed into the report.}
    {- {b Filter coverage.}  Each confirmed witness is replayed through
       the actual pipeline: the language's precedence-filtered table
       (static), its {!Iglr.Syn_filter} rules (dynamic syntactic), then
       the typedef decisions of {!Semantics.Diag} (semantic; optionally
       after prepending a typedef preamble that supplies the binding,
       since unknown names are retained per §4.3).  The first stage
       after which no choice nodes remain names the class's
       resolution.}}

    Everything is deterministic — fixed seeds, FIFO queues, sorted
    outputs — so reports are golden-testable and per-language ambiguity
    budgets ({!check_budget}) can gate the build. *)

(** How an ambiguity class is covered by the disambiguation pipeline. *)
type resolution =
  | Resolved_static
      (** the precedence-filtered table parses the witness
          deterministically (or the conflict is certified unrealizable /
          statically filtered) *)
  | Resolved_syntactic  (** dynamic {!Iglr.Syn_filter} rules decide it *)
  | Resolved_semantic
      (** {!Semantics.Diag}'s typedef decisions decide every choice
          (possibly given the typedef preamble) *)
  | Retained_unresolved
      (** choices survive the whole pipeline — or no witness was found
          within the bound for a retained conflict, which is reported
          conservatively *)

val resolution_name : resolution -> string
(** ["resolved-static"], ["resolved-syntactic"], ["resolved-semantic"],
    ["retained-unresolved"]. *)

(** A confirmed ambiguous sentence. *)
type witness = {
  w_tokens : (int * string) list;  (** (terminal id, lexeme) *)
  w_text : string;  (** the sentence, lexemes space-joined *)
  w_count : int;  (** derivations counted (saturating) *)
  w_left : string;  (** first derivation, pretty-printed *)
  w_right : string;  (** second derivation, pretty-printed *)
}

(** One ambiguity class: a set of unfiltered-table conflicts grouped by
    the productions they involve. *)
type klass = {
  k_name : string;
      (** stable machine name, prefix-matched by budgets: [static:…]
          (filtered by precedence), [lexical:…] (identical-rhs
          reduce/reduce, the typedef pattern), [sr:…] (retained
          shift/reduce), [rr:…] (other retained reduce/reduce) *)
  k_kind : Lint.conflict_class;
  k_prods : int list;  (** involved productions (original grammar ids) *)
  k_nts : int list;  (** their left-hand sides *)
  k_conflicts : (int * int) list;  (** member (state, terminal) pairs *)
  k_retained : bool;
      (** some member survives in the language's filtered table *)
  k_realizable : bool;
      (** pair-automaton co-accessible; [false] = certified unambiguous *)
  k_resolution : resolution;
  k_witness : witness option;
  k_detail : string;  (** one-line explanation of the classification *)
}

type config = {
  a_table : Lrtab.Table.t;  (** the language's (filtered) table *)
  a_syn_filters : Iglr.Syn_filter.rule list;
  a_semantic : bool;
      (** replay witnesses through the typedef decisions
          ({!Semantics.Diag.decide}) *)
  a_sem_preamble : string list;
      (** terminal names of a preamble supplying semantic bindings (e.g.
          [typedef int x ;]); tried when the bare witness stays
          unresolved *)
  a_lexemes : (string * string) list;
      (** terminal-name → lexeme overrides for rendering witness tokens;
          by default [id] renders as [x] ([y] in context positions, so a
          preamble binding of [x] does not capture context identifiers)
          and [num] as [1] *)
  a_max_len : int;  (** witness bound K: max yield of the flagged region *)
  a_max_candidates : int;  (** candidate sentences tried per class *)
}

val config :
  ?syn_filters:Iglr.Syn_filter.rule list ->
  ?semantic:bool ->
  ?sem_preamble:string list ->
  ?lexemes:(string * string) list ->
  ?max_len:int ->
  ?max_candidates:int ->
  Lrtab.Table.t ->
  config
(** Defaults: no filters, not semantic, [max_len = 5],
    [max_candidates = 2000]. *)

type report = {
  r_flagged : int list;
      (** potentially-ambiguous nonterminals (sorted); conservative: a
          nonterminal outside this list is certainly unambiguous *)
  r_classes : klass list;  (** retained classes first, then by name *)
  r_table : Lrtab.Table.t;  (** the analyzed table (for rendering) *)
}

(** [analyze config] — run all three stages.  [LR1] tables are analyzed
    through an LALR proxy (their conflict states do not index the LR(0)
    machine); the approximation stays conservative. *)
val analyze : config -> report

val unresolved : report -> klass list
(** Classes left [Retained_unresolved]. *)

(** Machine-readable report in the {!Envelope}: [{schema; tool =
    "ambig"; language?; flagged; classes; unresolved}]. *)
val to_json : ?language:string -> report -> Metrics.Json.t

val pp_report : Format.formatter -> report -> unit

(** A per-language ambiguity budget: the committed coverage expectations
    that gate the build. *)
type budget = {
  b_max_unresolved : int;
      (** maximum number of [Retained_unresolved] classes *)
  b_expect : (string * string) list;
      (** (class-name prefix, expected resolution name): at least one
          class must match each prefix, and all matching classes must
          carry the expected resolution *)
}

val check_budget : budget -> report -> string list
(** Budget violations, empty when the report is within budget. *)
