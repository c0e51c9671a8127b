module Cfg = Grammar.Cfg
module Table = Lrtab.Table
module Compile = Lrtab.Compile
module Syn_filter = Iglr.Syn_filter
module J = Metrics.Json

type config = {
  f_language : string;
  f_rules : Syn_filter.rule list;
  f_specs : Compile.spec list;
  f_expect : (string * string) list;
  f_max_residual : int;
  f_ambig : Ambig.config;
}

(* Cap on differential fuzz mutants. *)
let max_mutants = 200

type check = { c_name : string; c_pass : bool; c_detail : string }

type report = {
  r_language : string;
  r_result : Compile.result;
  r_verdicts : (string * string) list;
  r_checks : check list;
  r_violations : string list;
}

(* ------------------------------------------------------------------ *)
(* Classification and expectation checking (the cheap path).           *)

let verdicts rules (result : Compile.result) =
  List.map2
    (fun rule (sr : Compile.spec_report) ->
      (Syn_filter.rule_name rule, Compile.verdict_name sr.s_verdict))
    rules result.Compile.reports

let expectation_violations cfg vds =
  let vio = ref [] in
  let n_expect = List.length cfg.f_expect and n_rules = List.length vds in
  if n_expect = 0 then ()
  else if n_expect <> n_rules then
    vio :=
      [
        Printf.sprintf
          "filter_expect lists %d rule(s) but the language declares %d"
          n_expect n_rules;
      ]
  else
    List.iteri
      (fun i ((en, ev), (rn, rv)) ->
        if en <> rn then
          vio :=
            Printf.sprintf "rule %d is '%s' but filter_expect names '%s'" i rn
              en
            :: !vio
        else if ev <> rv then
          vio :=
            Printf.sprintf "rule '%s' classified %s, expected %s" rn rv ev
            :: !vio)
      (List.combine cfg.f_expect vds);
  List.rev !vio

let analyze cfg =
  let result = Compile.compile cfg.f_ambig.Ambig.a_table cfg.f_specs in
  let vds = verdicts cfg.f_rules result in
  let violations = expectation_violations cfg vds in
  let violations =
    let n = List.length result.Compile.residual in
    if n > cfg.f_max_residual then
      violations
      @ [
          Printf.sprintf "%d residual rule(s) exceed max_residual %d" n
            cfg.f_max_residual;
        ]
    else violations
  in
  {
    r_language = cfg.f_language;
    r_result = result;
    r_verdicts = vds;
    r_checks = [];
    r_violations = violations;
  }

(* ------------------------------------------------------------------ *)
(* Dead-filter lint (cheap: no oracle, no witness search).             *)

let lint_rules table ~rules ~specs =
  let result = Compile.compile table specs in
  let example =
    lazy
      (match Table.conflicts table with
      | [] -> None
      | c :: _ ->
          Lint.shortest_sentence table ~state:c.Table.c_state
            ~term:c.Table.c_term)
  in
  List.map2
    (fun rule (sr : Compile.spec_report) ->
      if sr.Compile.s_verdict = Compile.Dead then
        [
          Lint.Dead_filter
            {
              rule = Syn_filter.rule_name rule;
              why = sr.Compile.s_why;
              example =
                (if Table.conflicts table = [] then None
                 else Lazy.force example);
            };
        ]
      else [])
    rules result.Compile.reports
  |> List.concat

(* ------------------------------------------------------------------ *)
(* Soundness certification (the expensive path).                       *)

let equal_outcome dyn_table dyn_rules comp_table comp_rules tws =
  match Ambig.run_pipeline dyn_table dyn_rules tws,
        Ambig.run_pipeline comp_table comp_rules tws with
  | None, None -> Ok `Both_rejected
  | Some _, None -> Error "dynamic accepts, compiled rejects"
  | None, Some _ -> Error "compiled accepts, dynamic rejects"
  | Some d, Some c ->
      let g = Table.grammar dyn_table in
      let sd = Parsedag.Pp.to_sexp g d and sc = Parsedag.Pp.to_sexp g c in
      if sd = sc then Ok `Equal
      else
        let choices root = Parsedag.Stats.((measure root).choice_nodes) in
        if choices d <> choices c then Error "dags differ"
        else Error "dags differ structurally at equal ambiguity"

(* Deterministic token-level mutations: delete / duplicate each position,
   swap each adjacent pair.  No randomness — certificates must be
   reproducible byte-for-byte. *)
let mutants tws =
  let arr = Array.of_list tws in
  let n = Array.length arr in
  let del i = List.filteri (fun j _ -> j <> i) tws in
  let dup i =
    List.concat (List.mapi (fun j t -> if j = i then [ t; t ] else [ t ]) tws)
  in
  let swap i =
    List.mapi
      (fun j t ->
        if j = i then arr.(i + 1) else if j = i + 1 then arr.(i) else t)
      tws
  in
  List.concat
    [
      List.init n del;
      List.init n dup;
      (if n >= 2 then List.init (n - 1) swap else []);
    ]

let certify cfg =
  let base = analyze cfg in
  let dyn_table = cfg.f_ambig.Ambig.a_table in
  let comp_table = base.r_result.Compile.table in
  let residual_rules =
    List.filteri
      (fun i _ -> List.mem i base.r_result.Compile.residual)
      cfg.f_rules
  in
  let dyn_report = Ambig.analyze cfg.f_ambig in
  let comp_report =
    Ambig.analyze
      { cfg.f_ambig with
        Ambig.a_table = comp_table; a_syn_filters = residual_rules }
  in
  let witnesses =
    List.filter_map
      (fun (k : Ambig.klass) -> k.Ambig.k_witness)
      dyn_report.Ambig.r_classes
  in
  (* Check 1: the ambiguity oracle reconfirms every corpus witness, so
     the corpus genuinely exercises ambiguous sentences. *)
  let oracle =
    let g = Table.grammar dyn_table in
    let bad =
      List.filter
        (fun (w : Ambig.witness) ->
          let arr = Array.of_list (List.map fst w.Ambig.w_tokens) in
          Earley.count_derivations ~limit:4 g arr < 2)
        witnesses
    in
    {
      c_name = "oracle";
      c_pass = bad = [];
      c_detail =
        (if bad = [] then
           Printf.sprintf "%d witness(es) reconfirmed ambiguous"
             (List.length witnesses)
         else
           Printf.sprintf "%d witness(es) no longer ambiguous under Earley"
             (List.length bad));
    }
  in
  (* Check 2: differential corpus replay — compiled and dynamic
     pipelines agree on every witness. *)
  let corpus =
    let bad =
      List.filter_map
        (fun (w : Ambig.witness) ->
          match
            equal_outcome dyn_table cfg.f_rules comp_table residual_rules
              w.Ambig.w_tokens
          with
          | Ok _ -> None
          | Error e -> Some (w.Ambig.w_text ^ ": " ^ e))
        witnesses
    in
    {
      c_name = "corpus";
      c_pass = bad = [];
      c_detail =
        (match bad with
        | [] ->
            Printf.sprintf "%d witness(es) replay identically"
              (List.length witnesses)
        | e :: _ -> e);
    }
  in
  (* Check 3: differential fuzz over deterministic witness mutations. *)
  let fuzz =
    let all =
      List.concat_map (fun (w : Ambig.witness) -> mutants w.Ambig.w_tokens)
        witnesses
    in
    let all = List.filteri (fun i _ -> i < max_mutants) all in
    let bad =
      List.filter_map
        (fun tws ->
          match
            equal_outcome dyn_table cfg.f_rules comp_table residual_rules tws
          with
          | Ok _ -> None
          | Error e -> Some e)
        all
    in
    {
      c_name = "fuzz";
      c_pass = bad = [];
      c_detail =
        (match bad with
        | [] ->
            Printf.sprintf "%d mutant(s) replay identically" (List.length all)
        | e :: _ ->
            Printf.sprintf "%d/%d mutant(s) diverge; first: %s"
              (List.length bad) (List.length all) e);
    }
  in
  (* Check 4: the ambiguity budget outcome is unchanged — same number of
     retained-unresolved classes over the same production sets.  (Class
     *names* legitimately change: a conflict compiled away moves its
     class from [sr:] to [static:].) *)
  let budget =
    let key (k : Ambig.klass) = k.Ambig.k_prods in
    let unresolved r =
      List.sort compare (List.map key (Ambig.unresolved r))
    in
    let d = unresolved dyn_report and c = unresolved comp_report in
    {
      c_name = "budget";
      c_pass = d = c;
      c_detail =
        (if d = c then
           Printf.sprintf "%d unresolved class(es) before and after"
             (List.length d)
         else
           Printf.sprintf
             "unresolved classes differ: %d dynamic vs %d compiled"
             (List.length d) (List.length c));
    }
  in
  let checks = [ oracle; corpus; fuzz; budget ] in
  let violations =
    base.r_violations
    @ List.filter_map
        (fun c ->
          if c.c_pass then None
          else Some (Printf.sprintf "check '%s' failed: %s" c.c_name c.c_detail))
        checks
  in
  { base with r_checks = checks; r_violations = violations }

let certified r =
  r.r_violations = [] && List.for_all (fun c -> c.c_pass) r.r_checks

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let to_json r =
  let tbl = r.r_result.Compile.table in
  let g = Table.grammar tbl in
  let rule_obj ((name, verdict), (sr : Compile.spec_report)) =
    J.Obj
      [
        ("rule", J.String name);
        ("verdict", J.String verdict);
        ("why", J.String sr.Compile.s_why);
        ("decided", J.Int sr.Compile.s_decided);
      ]
  in
  let decision_obj (d : Compile.decision) =
    J.Obj
      [
        ("state", J.Int d.Compile.d_state);
        ("term", J.String (Cfg.terminal_name g d.Compile.d_term));
        ("rule", J.Int d.Compile.d_spec);
        ( "action",
          J.String (Format.asprintf "%a" Table.pp_action d.Compile.d_action) );
        ( "dropped",
          J.List
            (List.map
               (fun a -> J.String (Format.asprintf "%a" Table.pp_action a))
               d.Compile.d_dropped) );
        ("why", J.String d.Compile.d_why);
      ]
  in
  let check_obj c =
    J.Obj
      [
        ("check", J.String c.c_name);
        ("pass", J.Bool c.c_pass);
        ("detail", J.String c.c_detail);
      ]
  in
  Envelope.make ~tool:"filtcomp" ~language:r.r_language
    [
      ( "rules",
        J.List
          (List.map rule_obj
             (List.combine r.r_verdicts r.r_result.Compile.reports)) );
      ("decisions", J.List (List.map decision_obj r.r_result.Compile.decisions));
      ("residual", J.Int (List.length r.r_result.Compile.residual));
      ( "surviving_conflicts",
        J.Int (List.length r.r_result.Compile.surviving) );
      ("checks", J.List (List.map check_obj r.r_checks));
      ("violations", J.List (List.map (fun v -> J.String v) r.r_violations));
      ("certified", J.Bool (certified r));
    ]

let pp_report ppf r =
  let tbl = r.r_result.Compile.table in
  Format.fprintf ppf "@[<v>language %s:@," r.r_language;
  List.iter
    (fun (sr : Compile.spec_report) ->
      Format.fprintf ppf "  %a@," Compile.pp_report sr)
    r.r_result.Compile.reports;
  List.iter
    (fun d -> Format.fprintf ppf "  compiled %a@," (Compile.pp_decision tbl) d)
    r.r_result.Compile.decisions;
  Format.fprintf ppf "  residual rules: %d; surviving conflicts: %d@,"
    (List.length r.r_result.Compile.residual)
    (List.length r.r_result.Compile.surviving);
  List.iter
    (fun c ->
      Format.fprintf ppf "  check %s: %s (%s)@," c.c_name
        (if c.c_pass then "pass" else "FAIL")
        c.c_detail)
    r.r_checks;
  List.iter (fun v -> Format.fprintf ppf "  violation: %s@," v) r.r_violations;
  Format.fprintf ppf "  %s@]"
    (if r.r_checks = [] then
       if r.r_violations = [] then "analyzed (not certified)"
       else "analysis violations present"
     else if certified r then "certified"
     else "CERTIFICATION FAILED")
