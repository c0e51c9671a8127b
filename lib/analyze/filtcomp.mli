(** Static filter compilation with a soundness certifier (the [iglrc
    filtcomp] pass).

    [Lrtab.Compile] does the per-conflict classification and the table
    rewrite; this module wraps it into a whole-language analysis:

    {ol
    {- {b Classification.}  Every declared dynamic disambiguation rule is
       classified [compiled] (all firing sites rewritten into the table),
       [residual] (must stay dynamic) or [dead] (can never resolve
       anything), and the verdicts are checked against the language's
       committed [filter_expect] annotations and [max_residual] budget.}
    {- {b Certification.}  The compiled table is proved observationally
       equivalent to the dynamic pipeline: the PR-5 witness corpus is
       reconfirmed ambiguous by the Earley derivation oracle, replayed
       differentially through both pipelines (sexp-equal dags), fuzzed
       with deterministic token-level mutations, and the ambiguity-budget
       outcome (retained-unresolved classes, matched by production set)
       is shown unchanged.}
    {- {b Lint.}  Dead rules become {!Lint.Dead_filter} warnings with a
       shortest-sentence example where one exists — without paying for
       the oracle runs.}}

    Everything is deterministic, so certificates are committed as JSON
    and re-checked by the build ([dune build @filtcomp-smoke]). *)

type config = {
  f_language : string;
  f_rules : Iglr.Syn_filter.rule list;  (** declared rules, in order *)
  f_specs : Lrtab.Compile.spec list;
      (** their declarative translations ([Language.spec_of_rule]) *)
  f_expect : (string * string) list;
      (** committed (rule-name, verdict-name) expectations; when
          non-empty it must cover every declared rule, in order — empty
          means verdicts are unchecked (the residual budget still
          applies) *)
  f_max_residual : int;  (** budget on residual rules *)
  f_ambig : Ambig.config;
      (** the dynamic pipeline: [f_ambig.a_table] is the
          precedence-filtered table the compilation starts from *)
}
(** Built from a language by {!Of_language.filtcomp}. *)

type check = { c_name : string; c_pass : bool; c_detail : string }

type report = {
  r_language : string;
  r_result : Lrtab.Compile.result;
  r_verdicts : (string * string) list;
      (** (rule-name, verdict-name), in declaration order *)
  r_checks : check list;
      (** [oracle]/[corpus]/[fuzz]/[budget]; empty unless {!certify} ran *)
  r_violations : string list;
      (** expectation/budget violations plus failed checks *)
}

val analyze : config -> report
(** Classification and expectation checking only — cheap (no oracle, no
    witness search); [r_checks] is empty. *)

val certify : config -> report
(** {!analyze} plus the four soundness checks.  Runs the ambiguity
    analyzer twice (dynamic and compiled pipelines) and the Earley
    oracle over the witness corpus. *)

val certified : report -> bool
(** No violations and every check passed. *)

val lint_rules :
  Lrtab.Table.t ->
  rules:Iglr.Syn_filter.rule list ->
  specs:Lrtab.Compile.spec list ->
  Lint.diagnostic list
(** {!Lint.Dead_filter} warnings for rules the compilation proves can
    never resolve anything on this table. *)

val to_json : report -> Metrics.Json.t
(** The certificate, in the {!Envelope}:
    [{schema; tool = "filtcomp"; language; rules; decisions; residual;
    surviving_conflicts; checks; violations; certified}].  Fully
    deterministic: committed certificates are compared structurally by
    [iglrc filtcomp --check]. *)

val pp_report : Format.formatter -> report -> unit
