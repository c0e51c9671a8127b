(** The analyses' configuration for a bundled language: the one place a
    {!Languages.Language.ambig_spec} becomes an {!Ambig.config}, an
    {!Ambig.budget}, a {!Filtcomp.config} and a lint run.  [iglrc], the
    [iglrd] engine, the bench harness and the tests all configure the
    analyzers here, so they cannot drift apart. *)

val ambig : ?max_len:int -> Languages.Language.t -> Ambig.config
(** The language's conflict-retaining table with its declared filters,
    semantic policy, preamble and witness lexemes; [max_len] as in
    {!Ambig.config}. *)

val budget : Languages.Language.t -> Ambig.budget
(** The committed ambiguity budget ([max_unresolved], [expect]). *)

val filtcomp : Languages.Language.t -> Filtcomp.config
(** Filter compilation of the declared rules against {!ambig}'s pipeline,
    under the language's [filter_expect] and [max_residual]. *)

val lint : Languages.Language.t -> Lint.diagnostic list
(** {!Lint.run} on the conflict-retaining table, plus the dead-filter
    warnings of {!Filtcomp.lint_rules}. *)
