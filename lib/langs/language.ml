type ambig_spec = {
  syn_filters : Iglr.Syn_filter.rule list;
  sem_policy : Semantics.Typedefs.policy option;
  sem_preamble : string list;
  lexemes : (string * string) list;
  max_unresolved : int;
  expect : (string * string) list;
  filter_expect : (string * string) list;
  max_residual : int;
}

let default_ambig =
  {
    syn_filters = [];
    sem_policy = None;
    sem_preamble = [];
    lexemes = [];
    max_unresolved = 0;
    expect = [];
    filter_expect = [];
    max_residual = 0;
  }

type t = {
  name : string;
  grammar : Grammar.Cfg.t;
  conflict_table : Lrtab.Table.t Lazy.t;
  compiled : Lrtab.Compile.result Lazy.t;
  table : Lrtab.Table.t Lazy.t;
  lexer : Lexgen.Spec.t Lazy.t;
  ambig : ambig_spec;
}

let spec_of_rule = function
  | Iglr.Syn_filter.Prefer_production n -> Lrtab.Compile.Prefer_first n
  | Iglr.Syn_filter.Production_priority prios ->
      Lrtab.Compile.Operator_priority prios
  | Iglr.Syn_filter.Fewest_nodes -> Lrtab.Compile.Opaque "fewest-nodes"
  | Iglr.Syn_filter.Custom _ -> Lrtab.Compile.Opaque "custom"

let make ~name ~grammar ?(ambig = default_ambig) ~rules () =
  let conflict_table = lazy (Lrtab.Table.build grammar) in
  let compiled =
    lazy
      (Lrtab.Compile.compile
         (Lazy.force conflict_table)
         (List.map spec_of_rule ambig.syn_filters))
  in
  let table =
    lazy
      (let r = Lazy.force compiled in
       if r.Lrtab.Compile.residual <> [] then
         invalid_arg
           (Printf.sprintf
              "Language.table: %s leaves %d disambiguation rule(s) residual"
              name (List.length r.Lrtab.Compile.residual));
       r.Lrtab.Compile.table)
  in
  {
    name;
    grammar;
    conflict_table;
    compiled;
    table;
    lexer =
      lazy
        (Lexgen.Spec.compile rules
           ~resolve:(Grammar.Cfg.find_terminal grammar));
    ambig;
  }

let table t = Lazy.force t.table
let conflict_table t = Lazy.force t.conflict_table
let lexer t = Lazy.force t.lexer
let compiled t = Lazy.force t.compiled
