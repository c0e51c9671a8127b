(* iglrc — command-line driver for the incremental-analysis library.

   Subcommands:
     parse   parse a file (or stdin) with one of the bundled languages
     table   show parse-table statistics and retained conflicts
     lint    static grammar diagnostics and conflict explanations
     ambig   static ambiguity analysis, witnesses, filter coverage
     check   parse a file and run the parse-dag sanitizer
     sem     parse a C/C++ file and run semantic disambiguation
     diag    semantic diagnostics: name resolution, unused bindings, types
     gen     emit a synthetic SPEC-like program
     replay  apply an edit script with incremental reparses
     errors  list damaged regions (error nodes, flagged tokens) of a parse
     trace   replay with the structured sink on; export Chrome trace JSON
     dot     Graphviz DOT of the parse dag (or the last GSS snapshot)
     explain per-subtree reuse breakdown of the last edit of a script
     demo    the paper's Figure 1 walkthrough *)

open Cmdliner

(* One construction entry point for every tool: the shared registry's
   per-language lazies mean a table is built at most once per process,
   whether it is iglrc subcommands or the iglrd daemon asking. *)
let languages = Languages.Registry.all

let lang_arg =
  let lang_conv = Arg.enum languages in
  (* Derived from [languages] so the docstring cannot drift. *)
  let doc =
    Printf.sprintf "Language: %s."
      (String.concat ", " (List.map fst languages))
  in
  Arg.(
    value
    & opt lang_conv Languages.C_subset.language
    & info [ "l"; "lang" ] ~docv:"LANG" ~doc)

let file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Input file; stdin when omitted.")

(* Every file iglrc reads or writes goes through [read_file] or
   [write_json]: an I/O error prints "iglrc: PATH: reason" on stderr and
   exits 1. *)
let with_path path f =
  try f path
  with Sys_error msg ->
    (* Opening reports "PATH: reason"; reading a directory, the reason. *)
    let prefixed = String.starts_with ~prefix:(path ^ ": ") msg in
    Printf.eprintf "iglrc: %s\n" (if prefixed then msg else path ^ ": " ^ msg);
    exit 1

let read_file path =
  with_path path (fun p -> In_channel.with_open_bin p In_channel.input_all)

let write_json path doc = with_path path (fun p -> Metrics.Json.to_file p doc)

let read_input = function
  | None -> In_channel.input_all stdin
  | Some path -> read_file path

let make_session ?budget lang text =
  Iglr.Session.create ?budget
    ~table:(Languages.Language.table lang)
    ~lexer:(Languages.Language.lexer lang)
    text

(* Resource budgets (parse/errors/replay): exhaustion degrades the parse
   deterministically instead of aborting the tool. *)
let budget_term =
  let max_parsers =
    Arg.(
      value
      & opt int Iglr.Glr.no_budget.Iglr.Glr.max_parsers
      & info [ "max-parsers" ] ~docv:"N"
          ~doc:
            "Cap on simultaneously active GLR parsers; excess parsers are \
             pruned deterministically (lowest-state priority) and the parse \
             is marked degraded.")
  in
  let max_nodes =
    Arg.(
      value
      & opt int Iglr.Glr.no_budget.Iglr.Glr.max_nodes
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:
            "Cap on dag nodes created by one reparse; exhaustion falls back \
             to error isolation, then to flag-only recovery.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt float Iglr.Glr.no_budget.Iglr.Glr.deadline_ms
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock deadline for one reparse (including recovery \
             attempts), in milliseconds.")
  in
  let make max_parsers max_nodes deadline_ms =
    { Iglr.Glr.max_parsers; max_nodes; deadline_ms }
  in
  Term.(const make $ max_parsers $ max_nodes $ deadline_ms)

let pp_location (l : Iglr.Session.location) =
  Printf.sprintf "%d:%d (byte %d, token %d)" l.Iglr.Session.line
    l.Iglr.Session.col l.Iglr.Session.offset_bytes l.Iglr.Session.offset_tokens

let print_recovered oc ~flagged ~isolated ~degraded ~(error : Iglr.Glr.error)
    ~location =
  Printf.fprintf oc
    "syntax error at %s: %s; %d token(s) in %d isolated region(s)%s%s\n"
    (pp_location location) error.Iglr.Glr.message flagged isolated
    (if isolated = 0 then " (flag-only recovery)" else "")
    (if degraded then " [degraded: budget exhausted]" else "")

(* The analysis tools' front door.  lint, ambig, filtcomp and diag each
   analyse one language and hand back an [outcome]; [analysis] owns the
   rest: the targets under --all, JSON (one iglr-analysis/1 envelope per
   language, the [languages] aggregate under --all) or the text report,
   violations on stderr, and the exit code. *)

let print_envelope ~tool docs =
  print_endline
    (Metrics.Json.to_string
       (match docs with
       | [ d ] -> d
       | ds ->
           Analyze.Envelope.make ~tool [ ("languages", Metrics.Json.List ds) ]))

type outcome = {
  doc : Metrics.Json.t;  (* the language's envelope *)
  text : (Format.formatter -> unit) option;  (* None prints nothing *)
  violations : string list;  (* to stderr; each one is an error *)
  errors : int;
  warnings : int;
}

let exit_status_man ~clean ~errors ?warnings () =
  [
    `S Manpage.s_exit_status;
    `P ("$(b,0) — " ^ clean);
    `P ("$(b,1) — " ^ errors);
  ]
  @ (match warnings with Some w -> [ `P ("$(b,3) — " ^ w) ] | None -> [])
  @ [
      `P
        "$(b,2) is left to the parse commands' syntax-error exit.  Where \
         $(b,--all) applies, findings aggregate across languages before the \
         exit code is chosen.";
    ]

let analysis ~tool ~json ?(all = false) ?(header = true) lang analyze =
  let targets =
    if all then languages else [ (Languages.Registry.name_of lang, lang) ]
  in
  let results =
    List.map (fun (name, lang) -> (name, analyze name lang)) targets
  in
  if json then print_envelope ~tool (List.map (fun (_, o) -> o.doc) results)
  else
    List.iter
      (fun (name, o) ->
        Option.iter
          (fun pp ->
            if header then Format.printf "== %s ==@." name;
            Format.printf "%t@." pp)
          o.text)
      results;
  List.iter
    (fun (name, o) ->
      List.iter (Printf.eprintf "%s: %s: %s\n" tool name) o.violations)
    results;
  (* The exit contract: 0 clean, 1 errors, 3 warnings only; 2 stays the
     parse commands' syntax-error exit. *)
  let sum f = List.fold_left (fun acc (_, o) -> acc + f o) 0 results in
  if sum (fun o -> o.errors + List.length o.violations) > 0 then exit 1
  else if sum (fun o -> o.warnings) > 0 then exit 3

let print_stats (st : Iglr.Glr.stats) =
  Printf.printf
    "parse: terminals=%d subtrees=%d reductions=%d breakdowns=%d \
     max-parsers=%d created=%d\n"
    st.Iglr.Glr.shifted_terminals st.Iglr.Glr.shifted_subtrees
    st.Iglr.Glr.reductions st.Iglr.Glr.breakdowns st.Iglr.Glr.max_parsers
    st.Iglr.Glr.nodes_created

let parse_cmd =
  let dump =
    Arg.(value & flag & info [ "dump" ] ~doc:"Print the parse dag.")
  in
  let sexp =
    Arg.(value & flag & info [ "sexp" ] ~doc:"Print a compact s-expression.")
  in
  let stats =
    (* --stats prints the observability snapshot; --stats=json emits it as
       JSON on stdout for scripting. *)
    Arg.(
      value
      & opt ~vopt:(Some `Text)
          (some (enum [ ("text", `Text); ("json", `Json) ]))
          None
      & info [ "stats" ] ~docv:"FMT"
          ~doc:
            "Print the metrics snapshot of the parse (counters, spans, \
             reuse percentages); FMT is $(b,text) (default) or $(b,json). \
             With $(b,json), stdout is one JSON document, so $(b,--dump) \
             and $(b,--sexp) are refused.")
  in
  let run lang file budget dump sexp stats =
    if stats = Some `Json && (dump || sexp) then
      `Error
        (true, "--stats=json prints one JSON document; drop --dump and --sexp")
    else
    let text = read_input file in
    (* The table and lexer are built before the bracket, so the snapshot
       is the parse's activity alone. *)
    Languages.Registry.force lang;
    let (s, outcome), metrics =
      Iglr.Session.measure (fun () -> make_session ~budget lang text)
    in
    (* In JSON mode stdout carries the envelope alone; a syntax error is
       reported on stderr. *)
    let json = stats = Some `Json in
    let errors =
      match outcome with
      | Iglr.Session.Parsed st ->
          if not json then begin
            print_stats st;
            let m = Parsedag.Stats.measure (Iglr.Session.root s) in
            Format.printf "space: %a@." Parsedag.Stats.pp m
          end;
          false
      | Iglr.Session.Recovered { error; flagged; isolated; degraded; location }
        ->
          print_recovered
            (if json then stderr else stdout)
            ~flagged ~isolated ~degraded ~error ~location;
          true
    in
    if dump then
      Format.printf "%a"
        (Parsedag.Pp.pp lang.Languages.Language.grammar)
        (Iglr.Session.root s);
    if sexp then
      print_endline
        (Parsedag.Pp.to_sexp lang.Languages.Language.grammar
           (Iglr.Session.root s));
    (match stats with
    | None -> ()
    | Some `Text -> Format.printf "%a" Metrics.pp metrics
    | Some `Json ->
        print_envelope ~tool:"parse"
          [
            Analyze.Envelope.make ~tool:"parse"
              ~language:(Languages.Registry.name_of lang)
              [ ("metrics", Metrics.to_json metrics) ];
          ]);
    (* Scripting: exit 2 on a syntax error (0 = clean parse). *)
    if errors then exit 2;
    `Ok ()
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse a file with the IGLR parser")
    Term.(
      ret (const run $ lang_arg $ file_arg $ budget_term $ dump $ sexp $ stats))

let table_cmd =
  let run lang =
    let table = Languages.Language.conflict_table lang in
    Format.printf "%a@." Lrtab.Table.pp_stats table;
    List.iter
      (fun c -> Format.printf "  %a@." (Lrtab.Table.pp_conflict table) c)
      (Lrtab.Table.conflicts table)
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Show parse-table statistics and conflicts")
    Term.(const run $ lang_arg)

let lint_cmd =
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Lint every bundled language (exit codes aggregate).")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Only print languages with diagnostics.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the diagnostics as machine-readable JSON under the \
             $(b,iglr-analysis/1) schema (shared with $(b,iglrc ambig)); \
             with $(b,--all), one envelope with a per-language list.")
  in
  let run lang all json quiet =
    analysis ~tool:"lint" ~json ~all lang @@ fun name lang ->
    let table = Languages.Language.conflict_table lang in
    let ds = Analyze.Of_language.lint lang in
    {
      doc = Analyze.Lint.to_json ~language:name table ds;
      text =
        (if quiet && ds = [] then None
         else Some (fun ppf -> Analyze.Lint.pp_report table ppf ds));
      violations = [];
      errors = List.length (Analyze.Lint.errors ds);
      warnings = List.length (Analyze.Lint.warnings ds);
    }
  in
  let man =
    exit_status_man
      ~clean:
        "no findings, or informational findings only (retained conflicts \
         the parser is designed to fork on are informational)."
      ~errors:"at least one error-severity finding."
      ~warnings:"warning-severity findings but no errors." ()
  in
  Cmd.v
    (Cmd.info "lint" ~man
       ~doc:
         "Static grammar diagnostics: useless symbols, derivation cycles, \
          unused precedence, dead disambiguation filters, and per-conflict \
          example sentences with a classification.  Exits non-zero when \
          findings are present (see EXIT STATUS)")
    Term.(const run $ lang_arg $ all $ json $ quiet)

let ambig_cmd =
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Analyze every bundled language.")
  in
  let max_len =
    Arg.(
      value & opt int 5
      & info [ "max-len" ] ~docv:"K"
          ~doc:
            "Witness bound: maximum yield length of the flagged grammar \
             region (contexts embedding it are not counted).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the report as machine-readable JSON under the \
             $(b,iglr-analysis/1) schema (shared with $(b,iglrc lint)); \
             with $(b,--all), one envelope with a per-language list.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Enforce the language's committed ambiguity budget (maximum \
             retained-unresolved classes, expected per-class resolutions); \
             violations go to stderr and the exit status is 1.")
  in
  let run lang all max_len json check =
    analysis ~tool:"ambig" ~json ~all lang @@ fun name lang ->
    let report =
      Analyze.Ambig.analyze (Analyze.Of_language.ambig ~max_len lang)
    in
    {
      doc = Analyze.Ambig.to_json ~language:name report;
      text = Some (fun ppf -> Analyze.Ambig.pp_report ppf report);
      violations =
        (if not check then []
         else
           List.map (( ^ ) "budget: ")
             (Analyze.Ambig.check_budget (Analyze.Of_language.budget lang)
                report));
      errors = 0;
      warnings = 0;
    }
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Three stages: a conservative approximation flags \
         potentially-ambiguous nonterminals from the unfiltered LR \
         conflicts, refined by a pair-automaton co-accessibility check (a \
         certified-unambiguous conflict is pruned; no false negatives); a \
         bounded search confirms witness sentences with an Earley \
         derivation-counting oracle and prints both derivations; each \
         witness is then replayed through the language's actual \
         disambiguation pipeline — precedence-filtered table, dynamic \
         syntactic filters, semantic typedef analysis — and the class is \
         labelled $(b,resolved-static), $(b,resolved-syntactic), \
         $(b,resolved-semantic) or $(b,retained-unresolved).";
    ]
    @ exit_status_man ~clean:"analysis ran; without $(b,--check), always."
        ~errors:
          "$(b,--check) found budget violations (unresolved classes above \
           the committed maximum, or a class resolved differently than the \
           language expects)."
        ()
  in
  Cmd.v
    (Cmd.info "ambig" ~man
       ~doc:
         "Static ambiguity analysis: flag potentially-ambiguous \
          nonterminals, search bounded witness sentences confirmed by an \
          Earley oracle, and classify how each ambiguity class is resolved \
          by the language's disambiguation filters")
    Term.(const run $ lang_arg $ all $ max_len $ json $ check)

let filtcomp_cmd =
  let all =
    Arg.(
      value & flag & info [ "all" ] ~doc:"Compile every bundled language.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the certificate as machine-readable JSON under the \
             $(b,iglr-analysis/1) schema (shared with $(b,iglrc lint) and \
             $(b,iglrc ambig)); with $(b,--all), one envelope with a \
             per-language list.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Run the full soundness certification (Earley oracle, \
             differential witness corpus, mutation fuzz, ambiguity-budget \
             comparison) and compare the result against the committed \
             certificate in the $(b,--certs) directory; any failure, \
             violation or certificate drift exits 1.")
  in
  let emit =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit" ] ~docv:"DIR"
          ~doc:
            "Certify and (re)write $(i,DIR)/$(i,lang).filtcomp.json; \
             creates $(i,DIR) if needed.")
  in
  let certs_dir =
    Arg.(
      value & opt string "certs"
      & info [ "certs" ] ~docv:"DIR"
          ~doc:"Directory of committed certificates compared by $(b,--check).")
  in
  let run lang all json check emit certs_dir =
    analysis ~tool:"filtcomp" ~json ~all lang @@ fun name lang ->
    let config = Analyze.Of_language.filtcomp lang in
    let report =
      if check || emit <> None then Analyze.Filtcomp.certify config
      else Analyze.Filtcomp.analyze config
    in
    let doc = Analyze.Filtcomp.to_json report in
    let cert dir = Filename.concat dir (name ^ ".filtcomp.json") in
    let drift state verb =
      [
        Printf.sprintf "certificate %s is %s; %s with 'iglrc filtcomp --all \
                        --emit %s'"
          (cert certs_dir) state verb certs_dir;
      ]
    in
    let drift =
      if not check then []
      else
        match Metrics.Json.of_file (cert certs_dir) with
        | committed when committed = doc -> []
        | _ -> drift "stale" "regenerate"
        | exception _ -> drift "missing or unreadable" "generate"
    in
    Option.iter
      (fun dir ->
        (if not (Sys.file_exists dir) then
           try Sys.mkdir dir 0o755 with Sys_error _ -> ());
        write_json (cert dir) doc)
      emit;
    {
      doc;
      text = Some (fun ppf -> Analyze.Filtcomp.pp_report ppf report);
      violations = report.Analyze.Filtcomp.r_violations @ drift;
      errors = 0;
      warnings =
        List.length
          (List.filter
             (fun (_, v) -> v = "dead")
             report.Analyze.Filtcomp.r_verdicts);
    }
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Classifies every declared dynamic disambiguation rule as \
         $(b,compiled) (its accept/reject decision is a pure function of \
         LR state, lookahead and production, so the losing actions are \
         deleted from the parse table and the hot loop never consults the \
         filter), $(b,residual) (must stay dynamic) or $(b,dead) (can \
         never resolve anything).  With $(b,--check) or $(b,--emit) the \
         compiled table is certified observationally equivalent to the \
         dynamic pipeline: the witness corpus is reconfirmed by the Earley \
         oracle and replayed differentially, deterministic token mutations \
         are fuzzed through both pipelines, and the ambiguity-budget \
         outcome is shown unchanged.";
    ]
    @ exit_status_man
        ~clean:"analysis (and certification, if requested) clean."
        ~errors:
          "a soundness check failed, a filter_expect/max_residual \
           annotation is violated, or the committed certificate is stale \
           ($(b,--check))."
        ~warnings:
          "warning-severity findings only: some rule is dead (it can never \
           resolve anything and should be deleted)."
        ()
  in
  Cmd.v
    (Cmd.info "filtcomp" ~man
       ~doc:
         "Static filter compilation: classify disambiguation rules as \
          table-compilable or residual-dynamic, rewrite the parse table, \
          and certify the rewrite sound against the Earley oracle and a \
          differential corpus")
    Term.(const run $ lang_arg $ all $ json $ check $ emit $ certs_dir)

let check_cmd =
  let run lang file =
    let text = read_input file in
    let s, outcome = make_session lang text in
    (match outcome with
    | Iglr.Session.Parsed _ -> ()
    | Iglr.Session.Recovered { error; _ } ->
        Printf.printf "note: syntax error near token %d (%s); checking the \
                       recovered dag\n"
          error.Iglr.Glr.offset_tokens error.Iglr.Glr.message);
    let root = Iglr.Session.root s in
    match
      Analyze.Check.dag ~expect_text:(Iglr.Session.text s)
        (Iglr.Session.table s) root
    with
    | [] ->
        Printf.printf "dag sane: %d node(s), %d token(s)\n"
          (Parsedag.Node.count_nodes root)
          (Parsedag.Node.token_count root)
    | vs ->
        List.iter
          (fun v -> Format.printf "%a@." Analyze.Check.pp_violation v)
          vs;
        exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Parse a file and validate the parse dag's structural invariants")
    Term.(const run $ lang_arg $ file_arg)

let sem_cmd =
  let run lang file =
    let s, _ = make_session lang (read_input file) in
    let d =
      Semantics.Diag.decide
        (Semantics.Diag.create lang.Languages.Language.grammar)
        (Iglr.Session.root s)
    in
    (* Both policies select the declaration; only C++'s counts the rule. *)
    let prefer_decl =
      match lang.Languages.Language.ambig.Languages.Language.sem_policy with
      | Some Prefer_decl -> d.Semantics.Diag.prefer_candidates
      | Some Namespace_only | None -> 0
    in
    Printf.printf
      "typedefs=%d choices=%d decided=%d reinterpreted=%d unresolved=%d \
       prefer-decl=%d\n"
      d.Semantics.Diag.typedef_decls d.choices d.decided d.reinterpreted
      d.unresolved prefer_decl;
    List.iter
      (fun (kind, name) -> Printf.printf "error: %s (%s)\n" kind name)
      d.sem_errors
  in
  Cmd.v
    (Cmd.info "sem" ~doc:"Parse and semantically disambiguate a C-like file")
    Term.(const run $ lang_arg $ file_arg)

let diag_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the diagnostics as machine-readable JSON under the \
             $(b,iglr-analysis/1) schema (shared with $(b,iglrc lint), \
             $(b,iglrc ambig) and $(b,iglrc filtcomp)).")
  in
  let run lang file json =
    (* A language without semantic analysis is a usage error: exit 3. *)
    if not (Semantics.Diag.supported lang.Languages.Language.grammar) then begin
      Printf.eprintf
        "diag: language %s has no semantic analysis (supported: languages \
         with assignment statements or C-like declarations)\n"
        (Languages.Registry.name_of lang);
      exit 3
    end;
    analysis ~tool:"diag" ~json ~header:false lang @@ fun name lang ->
    let s, outcome = make_session lang (read_input file) in
    let syntax_error =
      match outcome with
      | Iglr.Session.Parsed _ -> None
      | Iglr.Session.Recovered { error; location; _ } ->
          Some (location, error.Iglr.Glr.message)
    in
    let r =
      Semantics.Diag.run
        (Semantics.Diag.create lang.Languages.Language.grammar)
        (Iglr.Session.root s)
    in
    let loc tok = Iglr.Session.location_of_token s tok in
    let text ppf =
      Option.iter
        (fun (location, msg) ->
          Format.fprintf ppf
            "%s: syntax-error: %s (analysing the recovered tree)@\n"
            (pp_location location) msg)
        syntax_error;
      List.iter
        (fun (dg : Semantics.Diag.diag) ->
          let l = loc dg.Semantics.Diag.d_token in
          Format.fprintf ppf "%d:%d: %s: %s@\n" l.Iglr.Session.line
            l.Iglr.Session.col dg.Semantics.Diag.d_code
            dg.Semantics.Diag.d_message)
        r.Semantics.Diag.diags;
      Format.fprintf ppf "%d diagnostic(s), %d binding(s), %d typedef(s)"
        (List.length r.Semantics.Diag.diags)
        (List.length r.Semantics.Diag.bindings)
        (List.length r.Semantics.Diag.typedefs)
    in
    {
      doc =
        Analyze.Envelope.make ~tool:"diag" ~language:name
          (( "syntax_errors",
             Metrics.Json.Int (if syntax_error = None then 0 else 1) )
          :: Semantics.Diag.json_fields r ~loc:(fun tok ->
                 let l = loc tok in
                 (l.Iglr.Session.line, l.Iglr.Session.col)));
      text = Some text;
      violations = [];
      errors =
        List.length r.Semantics.Diag.diags
        + if syntax_error = None then 0 else 1;
      warnings = 0;
    }
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses the file, runs typedef disambiguation when the language \
         has a typedef namespace, and evaluates the incremental semantic \
         query layers on the committed dag: scope-graph construction and \
         name resolution, unused-binding and use-before-declaration \
         analysis, and a simple type checker (int/float/char and typedef'd \
         names; mismatches are diagnosed, unknown names stay untyped).";
    ]
    @ exit_status_man ~clean:"the analysis ran and found nothing to report."
        ~errors:
          "diagnostics are present (including a syntax error recovered \
           during parsing)."
        ~warnings:
          "usage error: the selected language has no semantic analysis."
        ()
  in
  Cmd.v
    (Cmd.info "diag" ~man
       ~doc:
         "Semantic diagnostics from the incremental query engine: name \
          resolution, unused bindings, use-before-declaration, and type \
          mismatches")
    Term.(const run $ lang_arg $ file_arg $ json)

let gen_cmd =
  let program =
    Arg.(
      value & opt string "compress"
      & info [ "program" ] ~docv:"NAME"
          ~doc:"Table 1 program profile (compress, gcc, ghostscript, ...).")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~doc:"Scale factor on the profile's line count.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let run program scale seed =
    let p = Workload.Spec_gen.find program in
    print_string (Workload.Spec_gen.generate ~seed ~scale p)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Emit a synthetic SPEC-like program")
    Term.(const run $ program $ scale $ seed)

(* Edit scripts, shared by replay/trace/dot/explain: one edit per line,
   "POS DEL TEXT" (TEXT may be empty; "_" stands for a space). *)
let edits_of_script path =
  read_file path
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         let bad () =
           Printf.eprintf "bad edit line: %s\n" line;
           exit 1
         in
         match String.split_on_char ' ' line with
         | pos :: del :: rest -> (
             let insert =
               String.concat " " rest
               |> String.map (fun c -> if c = '_' then ' ' else c)
             in
             match (int_of_string_opt pos, int_of_string_opt del) with
             | Some pos, Some del -> (pos, del, insert)
             | _ -> bad ())
         | _ -> bad ())

let script_doc =
  "Edit script: one edit per line, \"POS DEL TEXT\" (TEXT may be empty; use \
   _ for a space)."

let script_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "edits" ] ~docv:"SCRIPT" ~doc:script_doc)

let script_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "edits" ] ~docv:"SCRIPT" ~doc:script_doc)

(* Apply [edits] one at a time, each followed by an incremental reparse
   whose outcome goes to [after]; [before_last] runs just before the last
   edit is applied. *)
let replay_edits ?(before_last = ignore) ?(after = fun _ _ -> ()) session
    edits =
  let n = List.length edits in
  List.iteri
    (fun i (pos, del, insert) ->
      if i = n - 1 then before_last ();
      (try Iglr.Session.edit session ~pos ~del ~insert
       with Invalid_argument _ ->
         Printf.eprintf "edit %d out of range: pos=%d del=%d on %d byte(s)\n"
           i pos del
           (String.length (Iglr.Session.text session));
         exit 1);
      after i (Iglr.Session.reparse session))
    edits

let replay_script ?before_last session script =
  Option.iter
    (fun path -> replay_edits ?before_last session (edits_of_script path))
    script

(* dot/explain render the committed dag, so they refuse to describe a
   corrupt one: run the sanitizer first and fail fast.  Recovery leaves
   damage deliberately pending for the next reparse, hence
   [allow_pending] on sessions with error regions. *)
let guard_dag cmd session =
  match
    Analyze.Check.dag
      ~allow_pending:(Iglr.Session.error_regions session <> [])
      ~expect_text:(Iglr.Session.text session)
      (Iglr.Session.table session)
      (Iglr.Session.root session)
  with
  | [] -> ()
  | vs ->
      List.iter
        (fun v -> Format.eprintf "%a@." Analyze.Check.pp_violation v)
        vs;
      Printf.eprintf "%s: parse dag failed the sanitizer; refusing to render\n"
        cmd;
      exit 1

let errors_cmd =
  let run lang file budget script =
    let text = read_input file in
    let session, outcome = make_session ~budget lang text in
    (match outcome with
    | Iglr.Session.Parsed _ -> ()
    | Iglr.Session.Recovered { error; flagged; isolated; degraded; location }
      ->
        print_recovered stdout ~flagged ~isolated ~degraded ~error ~location);
    replay_script session script;
    match Iglr.Session.error_regions session with
    | [] -> print_endline "no error regions"
    | regions ->
        List.iter
          (fun (r : Iglr.Session.region) ->
            Printf.printf "%d:%d: bytes %d-%d, %d token(s): %s\n"
              r.Iglr.Session.r_start.Iglr.Session.line
              r.Iglr.Session.r_start.Iglr.Session.col
              r.Iglr.Session.r_start.Iglr.Session.offset_bytes
              r.Iglr.Session.r_end_byte r.Iglr.Session.r_tokens
              r.Iglr.Session.r_message)
          regions;
        exit 2
  in
  Cmd.v
    (Cmd.info "errors"
       ~doc:
         "Parse a file (optionally replaying an edit script) and list the \
          damaged regions of the final tree: isolated error nodes and \
          terminals flagged as unincorporated, with line:column and byte \
          spans.  Exits 2 when any region remains, 0 on a clean tree.")
    Term.(const run $ lang_arg $ file_arg $ budget_term $ script_opt_arg)

let replay_cmd =
  let run lang file script =
    let text = read_input file in
    let session, outcome = make_session lang text in
    (match outcome with
    | Iglr.Session.Parsed _ -> print_endline "initial parse ok"
    | Iglr.Session.Recovered _ -> print_endline "initial parse recovered");
    replay_edits session (edits_of_script script) ~after:(fun i -> function
      | Iglr.Session.Parsed st ->
          Printf.printf "edit %d: ok (subtrees=%d terminals=%d created=%d)\n"
            i st.Iglr.Glr.shifted_subtrees st.Iglr.Glr.shifted_terminals
            st.Iglr.Glr.nodes_created
      | Iglr.Session.Recovered { flagged; _ } ->
          Printf.printf "edit %d: recovered (%d flagged)\n" i flagged);
    print_endline "final text:";
    print_string (Iglr.Session.text session)
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Apply an edit script with incremental reparses")
    Term.(const run $ lang_arg $ file_arg $ script_arg)

let trace_cmd =
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output file for the Chrome trace-event JSON.")
  in
  let run lang file script out =
    let text = read_input file in
    Trace.set_enabled true;
    Trace.clear ();
    let session, outcome = make_session lang text in
    (match outcome with
    | Iglr.Session.Parsed _ -> ()
    | Iglr.Session.Recovered _ ->
        prerr_endline "note: initial parse recovered");
    replay_script session script;
    Trace.set_enabled false;
    if Trace.dropped () > 0 then
      Printf.eprintf "warning: ring overflow, %d event(s) dropped\n"
        (Trace.dropped ());
    let evs = Trace.events () in
    write_json out (Trace.Export.to_chrome evs);
    (* Self-validation: the export must round-trip through the JSON
       parser with the expected shape (the @trace-smoke gate). *)
    match Metrics.Json.(member "traceEvents" (of_file out)) with
    | Some (Metrics.Json.List l) ->
        Printf.printf
          "wrote %s: %d event(s); open in https://ui.perfetto.dev or \
           chrome://tracing\n"
          out (List.length l)
    | Some _ | None ->
        prerr_endline "internal: exported trace is malformed";
        exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay an edit script with structured tracing enabled and export \
          the event stream as Chrome trace-event JSON")
    Term.(const run $ lang_arg $ file_arg $ script_opt_arg $ out)

let dot_cmd =
  let gss =
    Arg.(
      value & flag
      & info [ "gss" ]
          ~doc:
            "Print the last graph-structured-stack snapshot captured during \
             parsing (taken whenever several parsers are simultaneously \
             active) instead of the committed parse dag.")
  in
  let run lang file script gss =
    let text = read_input file in
    if gss then begin
      Trace.set_enabled true;
      Trace.clear ()
    end;
    let session, _ = make_session lang text in
    (* Node-id watermark taken just before the last edit: nodes that
       survive the final reparse with a smaller id were reused from the
       previous version. *)
    let watermark = ref max_int in
    replay_script session script ~before_last:(fun () ->
        watermark := Parsedag.Node.allocated ());
    if gss then begin
      Trace.set_enabled false;
      let snapshot =
        List.fold_left
          (fun acc (e : Trace.event) ->
            match (e.Trace.cat, e.Trace.name) with
            | Trace.Gss, "snapshot" -> (
                match Trace.str_arg "dot" e with Some d -> Some d | None -> acc)
            | _ -> acc)
          None (Trace.events ())
      in
      match snapshot with
      | Some d -> print_string d
      | None ->
          prerr_endline
            "note: no GSS snapshot (the parse never had several \
             simultaneous parsers)";
          print_string "digraph gss {\n}\n"
    end
    else begin
      guard_dag "dot" session;
      let reused =
        if script = None then None
        else Some (fun (n : Parsedag.Node.t) -> n.Parsedag.Node.nid <= !watermark)
      in
      print_string
        (Parsedag.Pp.to_dot ?reused lang.Languages.Language.grammar
           (Iglr.Session.root session))
    end
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:
         "Emit Graphviz DOT of the committed parse dag (choice nodes as \
          diamonds; with --edits, subtrees reused by the last reparse are \
          shaded), or of the last GSS snapshot with --gss")
    Term.(const run $ lang_arg $ file_arg $ script_opt_arg $ gss)

let explain_cmd =
  let run lang file script =
    let text = read_input file in
    let session, outcome = make_session lang text in
    (match outcome with
    | Iglr.Session.Parsed _ -> ()
    | Iglr.Session.Recovered _ ->
        prerr_endline "note: initial parse recovered");
    let edits = edits_of_script script in
    let n = List.length edits in
    if n = 0 then begin
      prerr_endline "explain: empty edit script";
      exit 1
    end;
    (* Replay every edit but trace only the last one: the report describes
       a single reparse against a settled document. *)
    replay_edits session edits ~before_last:(fun () ->
        Trace.set_enabled true;
        Trace.clear ());
    Trace.set_enabled false;
    guard_dag "explain" session;
    let r = Trace.Explain.of_events (Trace.events ()) in
    (* Token offset -> character offset, via the document's leaf starts. *)
    let starts = Vdoc.Document.leaf_starts (Iglr.Session.document session) in
    let char_offset tok = starts.(min tok (Array.length starts - 1)) in
    let pos, del, insert = List.nth edits (n - 1) in
    Printf.printf "edit %d/%d: pos=%d del=%d insert=%S\n" n n pos del insert;
    Printf.printf "relex: %d token(s) rescanned, %d kept\n" r.Trace.Explain.tokens_relexed
      r.Trace.Explain.tokens_reused;
    (match r.Trace.Explain.reparse_ms with
    | Some ms ->
        Printf.printf "reparse: %.3f ms, %d reduction(s)\n" ms
          r.Trace.Explain.reductions
    | None ->
        Printf.printf "reparse: %d reduction(s)\n" r.Trace.Explain.reductions);
    let pp_subtree verb (s : Trace.Explain.subtree) =
      Printf.printf "  %s [offset %d, %d token(s)] %s: %s\n"
        s.Trace.Explain.symbol
        (char_offset s.Trace.Explain.tok_from)
        s.Trace.Explain.tokens verb s.Trace.Explain.detail
    in
    Printf.printf "reused whole: %d subtree(s)\n"
      (List.length r.Trace.Explain.accepted);
    List.iter (pp_subtree "reused") r.Trace.Explain.accepted;
    Printf.printf "rebuilt: %d candidate(s)\n"
      (List.length r.Trace.Explain.rebuilt);
    List.iter (pp_subtree "rebuilt") r.Trace.Explain.rebuilt
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Replay an edit script and print a per-subtree reuse breakdown of \
          the last edit: which subtrees the reparse shifted whole, and the \
          concrete reason each rejected candidate was decomposed")
    Term.(const run $ lang_arg $ file_arg $ script_arg)

let demo_cmd =
  let run () =
    let lang = Languages.C_subset.language in
    let src = "typedef int a;\nint foo () { int i; a (b); c (d); i = 1; }\n" in
    print_endline "--- source ---";
    print_string src;
    let s, _ = make_session lang src in
    print_endline "--- parse dag (ambiguities as amb<...>) ---";
    Format.printf "%a"
      (Parsedag.Pp.pp lang.Languages.Language.grammar)
      (Iglr.Session.root s);
    let d =
      Semantics.Diag.decide
        (Semantics.Diag.create lang.Languages.Language.grammar)
        (Iglr.Session.root s)
    in
    Printf.printf
      "--- semantic disambiguation: %d choices decided (a -> declaration, \
       c -> call) ---\n"
      d.Semantics.Diag.decided
  in
  Cmd.v (Cmd.info "demo" ~doc:"Figure 1 walkthrough") Term.(const run $ const ())

let () =
  let info = Cmd.info "iglrc" ~doc:"Incremental GLR analysis toolkit" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            parse_cmd; table_cmd; lint_cmd; ambig_cmd; filtcomp_cmd;
            check_cmd; sem_cmd; diag_cmd;
            gen_cmd;
            replay_cmd; errors_cmd; trace_cmd; dot_cmd; explain_cmd; demo_cmd;
          ]))
