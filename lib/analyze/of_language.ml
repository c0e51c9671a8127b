module Language = Languages.Language

let ambig ?max_len lang =
  let spec = lang.Language.ambig in
  Ambig.config ~syn_filters:spec.Language.syn_filters
    ?sem_policy:spec.Language.sem_policy
    ~sem_preamble:spec.Language.sem_preamble ~lexemes:spec.Language.lexemes
    ?max_len (Language.conflict_table lang)

let budget lang =
  let spec = lang.Language.ambig in
  {
    Ambig.b_max_unresolved = spec.Language.max_unresolved;
    b_expect = spec.Language.expect;
  }

let rules lang =
  let rules = lang.Language.ambig.Language.syn_filters in
  (rules, List.map Language.spec_of_rule rules)

let filtcomp lang =
  let spec = lang.Language.ambig in
  let rules, specs = rules lang in
  {
    Filtcomp.f_language = lang.Language.name;
    f_rules = rules;
    f_specs = specs;
    f_expect = spec.Language.filter_expect;
    f_max_residual = spec.Language.max_residual;
    f_ambig = ambig lang;
  }

let lint lang =
  let table = Language.conflict_table lang in
  let rules, specs = rules lang in
  Lint.run table @ Filtcomp.lint_rules table ~rules ~specs
