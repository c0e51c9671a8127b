(* Differential fuzzing of the incremental session against batch reparse.

   Random edit scripts (Workload.Edit_gen.random_script — token tweaks,
   fragment inserts at statement boundaries, deletions, arbitrary small
   inserts) replay through an incremental Session; after EVERY edit the
   session must agree with a from-scratch GLR parse of the same text:

   - if the batch parse succeeds, the incremental parse must succeed and
     produce a structurally identical tree (sexp equality), and both dags
     must pass the Analyze.Check sanitizer;
   - if the batch parse rejects, the incremental parse must report
     Recovered — and the retained structure must still be a sane dag, so
     later edits can repair the program.

   The scripts deliberately include syntax-breaking edits: the pending
   damage then carries across parse failures, which is exactly where
   incremental bookkeeping (change bits, retained subtrees, recovery
   flags) historically rots. *)

module Session = Iglr.Session
module Glr = Iglr.Glr
module Node = Parsedag.Node
module Language = Languages.Language
module Edit_gen = Workload.Edit_gen

let base_calc =
  String.concat "\n"
    (List.init 12 (fun i -> Printf.sprintf "v%d = (1%d + 2) * x%d / 3;" i i i))

let base_c = Workload.Spec_gen.plain ~lines:30 ~seed:7

(* Typedef-ambiguous statements under file-scope and block-local
   typedefs, with leading names out of scope or not types at all: edits
   to it flip typedef decisions. *)
let base_typedefs =
  String.concat "\n"
    [
      "typedef int t ;";
      "typedef char u ;";
      "int g ;";
      "int f ( int x ) { t ( y ) ; u * p ; g ( x ) ; return x ; }";
      "int h ( ) { typedef int v ; v ( w ) ; v * q ; t * r ; return 0 ; }";
      "int k ( ) { v ( z ) ; g * g ; u ( m ) ; return 1 ; }";
      "typedef int g2 ;";
      "int m ( ) { g2 ( a ) ; { typedef char w2 ; w2 ( b ) ; } w2 ( c ) ; }";
    ]

(* From-scratch oracle: Some sexp when the text parses, None when it is
   rejected.  Every accepted batch parse also runs the dag sanitizer. *)
let batch lang text =
  let table = Language.table lang in
  let tokens, trailing = Lexgen.Scanner.all (Language.lexer lang) text in
  match Glr.parse_tokens table tokens ~trailing with
  | root, _ ->
      Analyze.Check.assert_dag table root;
      Some (Parsedag.Pp.to_sexp lang.Language.grammar root)
  | exception Glr.Parse_error _ -> None

(* The positions half of "relex = lex": after every edit the document's
   spliced position index must equal one computed from a from-scratch
   scan of its text, and token locations must equal the linear
   reference below. *)

(* The linear scan over leaves and text that the position index
   replaced in [Session.location_of_token], kept as its oracle. *)
let reference_location doc k =
  let leaves = Vdoc.Document.leaves doc in
  let n = Array.length leaves in
  let k = max 0 (min k n) in
  let byte = ref 0 in
  for i = 0 to k - 1 do
    match leaves.(i).Node.kind with
    | Node.Term inf ->
        byte := !byte + String.length inf.Node.trivia + String.length inf.Node.text
    | _ -> ()
  done;
  (if k < n then
     match leaves.(k).Node.kind with
     | Node.Term inf -> byte := !byte + String.length inf.Node.trivia
     | _ -> ());
  let text = Vdoc.Document.text doc in
  let byte = min !byte (String.length text) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to byte - 1 do
    if text.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  {
    Session.offset_tokens = k;
    offset_bytes = byte;
    line = !line;
    col = byte - !bol + 1;
  }

(* The index computed from scratch: leaf start offsets from a batch
   scan of [text], and its line starts. *)
let scratch_index lexer text =
  let tokens, _ = Lexgen.Scanner.all lexer text in
  let starts = Array.make (List.length tokens + 1) 0 in
  List.iteri
    (fun i (t : Lexgen.Scanner.token) ->
      starts.(i + 1) <-
        starts.(i) + String.length t.Lexgen.Scanner.trivia
        + String.length t.Lexgen.Scanner.text)
    tokens;
  let bols = ref [] in
  String.iteri (fun i c -> if c = '\n' then bols := (i + 1) :: !bols) text;
  (starts, Array.of_list (0 :: List.rev !bols), tokens)

let check_positions ~rng lexer s =
  let doc = Session.document s in
  let text = Vdoc.Document.text doc in
  let starts, bols, tokens = scratch_index lexer text in
  if Vdoc.Document.leaf_starts doc <> starts then
    QCheck.Test.fail_reportf "leaf starts diverged from a scratch index of %S"
      text;
  if Vdoc.Document.line_starts doc <> bols then
    QCheck.Test.fail_reportf "line starts diverged from a scratch index of %S"
      text;
  let max_la =
    List.fold_left
      (fun m (t : Lexgen.Scanner.token) -> max m t.Lexgen.Scanner.lookahead)
      0 tokens
  in
  if Vdoc.Document.lookahead_bound doc <> max_la then
    QCheck.Test.fail_reportf "lookahead bound %d, tokens' maximum %d in %S"
      (Vdoc.Document.lookahead_bound doc)
      max_la text;
  let n = Vdoc.Document.token_count doc in
  List.iter
    (fun k ->
      if Session.location_of_token s k <> reference_location doc k then
        QCheck.Test.fail_reportf "location of token %d diverged in %S" k text)
    ([ 0; n; -1; n + 5 ] @ List.init 3 (fun _ -> Random.State.int rng (n + 1)))

(* The recovery half: after every reparse, the error regions and
   isolation units that [Session] finds from the leaves array and
   parent-path arithmetic must equal the ones the whole-dag walk below
   finds. *)

(* Leaf nid -> index, the side table the dag-walk spans key on. *)
let leaf_index doc =
  let leaves = Vdoc.Document.leaves doc in
  let tbl = Hashtbl.create (2 * max 1 (Array.length leaves)) in
  Array.iteri (fun i (l : Node.t) -> Hashtbl.replace tbl l.Node.nid i) leaves;
  tbl

let reference_span idx_tbl (u : Node.t) =
  match Node.first_terminal u with
  | Some ft -> (
      match Hashtbl.find_opt idx_tbl ft.Node.nid with
      | Some lo -> Some (lo, lo + Node.token_count u - 1)
      | None -> None)
  | None -> None

(* The [Node.iter] walk over every reachable node, deduplicated by nid,
   that [Session.error_regions] replaced, kept as its oracle. *)
let reference_error_regions s =
  let doc = Session.document s in
  let leaves = Vdoc.Document.leaves doc in
  let n = Array.length leaves in
  let idx_tbl = leaf_index doc in
  let raw = ref [] in
  Node.iter
    (fun (e : Node.t) ->
      match e.Node.kind with
      | Node.Error info -> (
          match reference_span idx_tbl e with
          | Some (lo, hi) -> raw := (lo, hi - lo + 1, info.Node.message) :: !raw
          | None -> ())
      | _ -> ())
    (Session.root s);
  let inside_error (l : Node.t) =
    match l.Node.parent with
    | Some { Node.kind = Node.Error _; _ } -> true
    | _ -> false
  in
  let flagged i = leaves.(i).Node.error && not (inside_error leaves.(i)) in
  let i = ref 0 in
  while !i < n do
    if flagged !i then begin
      let j = ref !i in
      while !j + 1 < n && flagged (!j + 1) do
        incr j
      done;
      raw := (!i, !j - !i + 1, "unincorporated edit") :: !raw;
      i := !j + 1
    end
    else incr i
  done;
  let starts = Vdoc.Document.leaf_starts doc in
  List.sort compare !raw
  |> List.map (fun (lo, k, msg) ->
         {
           Session.r_start = Session.location_of_token s lo;
           r_end_byte = starts.(min (lo + k) n);
           r_tokens = k;
           r_message = msg;
         })

(* The hashed climb that [Session.isolation_unit] replaced. *)
let reference_unit s i =
  let g = Lrtab.Table.grammar (Session.table s) in
  let doc = Session.document s in
  let idx_tbl = leaf_index doc in
  let leaves = Vdoc.Document.leaves doc in
  let rec is_seq_element (n : Node.t) =
    match n.Node.parent with
    | None -> false
    | Some p -> (
        match p.Node.kind with
        | Node.Choice _ -> is_seq_element p
        | Node.Prod pr -> (
            let prod = Grammar.Cfg.production g pr in
            Grammar.Cfg.seq_kind g prod.Grammar.Cfg.lhs = Grammar.Cfg.Seq
            &&
            match prod.Grammar.Cfg.role with
            | Grammar.Cfg.Seq_one | Grammar.Cfg.Seq_cons ->
                Array.length p.Node.kids > 0
                && p.Node.kids.(Array.length p.Node.kids - 1) == n
            | Grammar.Cfg.Seq_empty | Grammar.Cfg.Plain -> false)
        | _ -> false)
  in
  let existing =
    match leaves.(i).Node.parent with
    | Some ({ Node.kind = Node.Error _; _ } as e) -> reference_span idx_tbl e
    | _ -> None
  in
  match existing with
  | Some sp -> sp
  | None -> (
      let rec climb (n : Node.t) =
        if is_seq_element n then reference_span idx_tbl n
        else match n.Node.parent with Some p -> climb p | None -> None
      in
      match climb leaves.(i) with Some sp -> sp | None -> (i, i))

let check_recovery_spans ~rng s =
  let text = Session.text s in
  if Session.error_regions s <> reference_error_regions s then
    QCheck.Test.fail_reportf "error regions diverged from the dag walk in %S"
      text;
  let n = Vdoc.Document.token_count (Session.document s) in
  if n > 0 then
    for _ = 1 to 3 do
      let k = Random.State.int rng n in
      let got = Session.isolation_unit s k and want = reference_unit s k in
      if got <> want then
        QCheck.Test.fail_reportf
          "isolation unit of token %d is (%d, %d), the dag walk's (%d, %d) in %S"
          k (fst got) (snd got) (fst want) (snd want) text
    done

(* The typedef half of "incremental query = scratch query": after every
   committed reparse, the selections that the incremental [Diag]'s
   per-item decision cells made must equal those of the whole-dag walk
   below on a batch parse of the same text, and the typedef names must
   agree. *)

(* The whole-dag typedef walk that the per-item decision cells
   replaced, kept as their oracle: binding contours as a stack of scope
   tables, every choice on the selected path decided from scratch, error
   regions included.  Sets the selections in place; returns the
   file-scope typedef names, sorted. *)
let reference_decisions g root =
  let module Cfg = Grammar.Cfg in
  let id_t = Cfg.find_terminal g "id" in
  let typedef_t = Cfg.find_terminal g "typedef" in
  let decl_nt = Cfg.find_nonterminal g "decl" in
  let expr_nt = Cfg.find_nonterminal g "expr" in
  let compound_nt = Cfg.find_nonterminal g "compound" in
  let rec leading_id (n : Node.t) =
    match n.Node.kind with
    | Node.Term i -> if i.Node.term = id_t then Some i.Node.text else None
    | Node.Bos | Node.Eos _ -> None
    | Node.Choice _ -> leading_id n.Node.kids.(0)
    | Node.Prod _ | Node.Error _ | Node.Root ->
        let rec scan i =
          if i >= Array.length n.Node.kids then None
          else
            match leading_id n.Node.kids.(i) with
            | Some x -> Some x
            | None ->
                if Node.token_count n.Node.kids.(i) > 0 then None
                else scan (i + 1)
        in
        scan 0
  in
  let alt_symbol (alt : Node.t) =
    match alt.Node.kind with
    | Node.Prod _ when Array.length alt.Node.kids > 0 -> (
        match Node.symbol g alt.Node.kids.(0) with
        | `N nt when nt = decl_nt -> `Decl
        | `N nt when nt = expr_nt -> `Expr
        | _ -> `Other)
    | _ -> `Other
  in
  let lhs p = (Cfg.production g p).Cfg.lhs in
  let is_typedef_decl (n : Node.t) =
    match n.Node.kind with
    | Node.Prod p ->
        let prod = Cfg.production g p in
        prod.Cfg.lhs = decl_nt
        && Array.length prod.Cfg.rhs > 0
        && prod.Cfg.rhs.(0) = Cfg.T typedef_t
    | _ -> false
  in
  let typedef_name (n : Node.t) =
    Array.fold_left
      (fun acc (k : Node.t) ->
        match k.Node.kind with
        | Node.Term i when i.Node.term = id_t -> Some i.Node.text
        | _ -> acc)
      None n.Node.kids
  in
  let decide env (n : Node.t) ci =
    let name = leading_id n in
    let is_type =
      match name with
      | Some x -> List.exists (fun s -> Hashtbl.mem s x) env
      | None -> false
    in
    let find kind =
      let rec scan i =
        if i >= Array.length n.Node.kids then None
        else if alt_symbol n.Node.kids.(i) = kind then Some i
        else scan (i + 1)
      in
      scan 0
    in
    let starts_with_id =
      match Node.first_terminal n with
      | Some { Node.kind = Node.Term i; _ } -> i.Node.term = id_t
      | _ -> false
    in
    let target =
      if not starts_with_id then None
      else if is_type then find `Decl
      else find `Expr
    in
    ci.Node.selected <- Option.value ~default:(-1) target
  in
  let rec walk env (n : Node.t) =
    (if is_typedef_decl n then
       match (typedef_name n, env) with
       | Some x, scope :: _ -> Hashtbl.replace scope x ()
       | _ -> ());
    match n.Node.kind with
    | Node.Choice ci ->
        decide env n ci;
        walk env n.Node.kids.(max 0 ci.Node.selected)
    | Node.Term _ | Node.Bos | Node.Eos _ -> ()
    | Node.Prod p when lhs p = compound_nt ->
        let env = Hashtbl.create 8 :: env in
        Array.iter (walk env) n.Node.kids
    | Node.Prod _ | Node.Error _ | Node.Root ->
        Array.iter (walk env) n.Node.kids
  in
  let global = Hashtbl.create 16 in
  walk [ global ] root;
  List.sort compare (Hashtbl.fold (fun x () acc -> x :: acc) global [])

(* The selections along the selected path, in document order. *)
let selections root =
  let acc = ref [] in
  let rec go (n : Node.t) =
    match n.Node.kind with
    | Node.Choice ci ->
        acc := ci.Node.selected :: !acc;
        go n.Node.kids.(max 0 ci.Node.selected)
    | _ -> Array.iter go n.Node.kids
  in
  go root;
  List.rev !acc

(* A structural copy with the selections, for recovered trees whose
   error isolation a batch parse does not reproduce. *)
let rec copy_dag (n : Node.t) =
  let kids = Array.map copy_dag n.Node.kids in
  match n.Node.kind with
  | Node.Term i ->
      Node.make_term ~term:i.Node.term ~text:i.Node.text ~trivia:i.Node.trivia
        ~lex_la:i.Node.lex_la
  | Node.Prod p -> Node.make_prod ~prod:p ~state:n.Node.state kids
  | Node.Choice ci ->
      let c = Node.make_choice ~nt:ci.Node.nt kids in
      (match c.Node.kind with
      | Node.Choice ci' -> ci'.Node.selected <- ci.Node.selected
      | _ -> ());
      c
  | Node.Error e -> Node.make_error ~message:e.Node.message kids
  | Node.Bos -> Node.make_bos ()
  | Node.Eos e -> Node.make_eos ~trailing:e.Node.trailing
  | Node.Root -> Node.make_root kids

let committed = function
  | Session.Parsed _ -> true
  | Session.Recovered { isolated; _ } -> isolated > 0

let decides_typedefs lang =
  let g = lang.Language.grammar in
  Semantics.Diag.supported g
  && match Grammar.Cfg.find_terminal g "typedef" with
     | _ -> true
     | exception Not_found -> false

(* A commit-subscribed [Diag] for languages with typedef decisions. *)
let decision_analyzer lang s =
  if decides_typedefs lang then begin
    let d = Semantics.Diag.create lang.Language.grammar in
    Session.on_commit s (fun ~watermark root ->
        Semantics.Diag.commit d ~watermark root);
    Some d
  end
  else None

let check_decisions lang d s =
  let g = lang.Language.grammar in
  let r = Semantics.Diag.run d (Session.root s) in
  let got = selections (Session.root s) in
  let text = Session.text s in
  let batch, _ =
    Session.create ~table:(Language.table lang) ~lexer:(Language.lexer lang)
      text
  in
  let root =
    if
      String.equal
        (Parsedag.Pp.to_sexp g (Session.root batch))
        (Parsedag.Pp.to_sexp g (Session.root s))
    then Session.root batch
    else copy_dag (Session.root s)
  in
  let names = reference_decisions g root in
  if selections root <> got then
    QCheck.Test.fail_reportf
      "incremental typedef decisions diverged from the reference walk on %S"
      text;
  if names <> r.Semantics.Diag.typedefs then
    QCheck.Test.fail_reportf
      "typedef names [%s] diverged from the reference walk's [%s] on %S"
      (String.concat " " r.Semantics.Diag.typedefs)
      (String.concat " " names) text;
  (* Anchors are absolute: a binding's token is its name's leaf, however
     many tokens error regions hold outside the items before it. *)
  let leaves = Vdoc.Document.leaves (Session.document s) in
  List.iter
    (fun (b : Semantics.Diag.binding) ->
      let at = b.Semantics.Diag.b_token in
      let leaf =
        if at >= 0 && at < Array.length leaves then
          match leaves.(at).Node.kind with
          | Node.Term i -> i.Node.text
          | _ -> ""
        else ""
      in
      if not (String.equal leaf b.Semantics.Diag.b_name) then
        QCheck.Test.fail_reportf "binding %s anchored at token %d (%S) on %S"
          b.Semantics.Diag.b_name at leaf text)
    r.Semantics.Diag.bindings

let replay lang base (seed, count) =
  let table = Language.table lang in
  let script = Edit_gen.random_script ~seed ~count base in
  (* Every fuzzed edit also runs with the trace sink live: whatever the
     edit does to the parser — including recovery — the event stream must
     stay well-formed (balanced spans, monotone timestamps). *)
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled false) @@ fun () ->
  let s, outcome0 =
    Session.create ~table ~lexer:(Language.lexer lang) base
  in
  (match outcome0 with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> QCheck.Test.fail_report "base program rejected");
  let decisions = decision_analyzer lang s in
  let rng = Random.State.make [| seed |] in
  let text = ref base in
  List.for_all
    (fun (e : Edit_gen.edit) ->
      text := Edit_gen.apply e !text;
      Trace.clear ();
      Session.edit s ~pos:e.Edit_gen.e_pos ~del:e.Edit_gen.e_del
        ~insert:e.Edit_gen.e_insert;
      if not (String.equal (Session.text s) !text) then
        QCheck.Test.fail_report "document text diverged from edit replay";
      let outcome = Session.reparse s in
      check_positions ~rng (Language.lexer lang) s;
      check_recovery_spans ~rng s;
      (if Trace.dropped () = 0 then
         match Trace.Check.well_formed (Trace.events ()) with
         | [] -> ()
         | faults ->
             QCheck.Test.fail_reportf "malformed trace after edit:\n %s"
               (String.concat "\n " faults));
      (match decisions with
      | Some d when committed outcome -> check_decisions lang d s
      | _ -> ());
      match (batch lang !text, outcome) with
      | Some expected, Session.Parsed _ ->
          Analyze.Check.assert_dag table (Session.root s);
          if Session.has_errors s then
            QCheck.Test.fail_report "has_errors set after a clean parse";
          let got = Parsedag.Pp.to_sexp lang.Language.grammar (Session.root s) in
          if not (String.equal got expected) then
            QCheck.Test.fail_reportf
              "incremental tree diverged from batch parse\n text: %S"
              !text;
          true
      | Some _, Session.Recovered _ ->
          QCheck.Test.fail_reportf
            "incremental parse recovered on batch-parseable text %S" !text
      | None, Session.Recovered { isolated; _ } ->
          (* Rejected on both sides.  When the damage was isolated, the
             session committed a tree with explicit error nodes: the full
             sanitizer (error-subtree rules included) applies, text yield
             and all.  The flag-only fallback retains a deliberately
             damaged tree (change bits pending, unincorporated terminals
             flagged), so there the commit-time sanitizer does not apply;
             the next clean parse after a repairing edit re-checks the
             full invariants. *)
          if isolated > 0 then
            Analyze.Check.assert_dag ~expect_text:!text table
              (Session.root s);
          if not (Session.has_errors s) then
            QCheck.Test.fail_report "has_errors unset after recovery";
          true
      | None, Session.Parsed _ ->
          QCheck.Test.fail_reportf
            "incremental parse accepted batch-rejected text %S" !text)
    script

(* Fault injection: interleave syntactically invalid token runs with
   ordinary random edits, under a GSS-width budget.  After every edit the
   session must terminate with an outcome (never an uncaught exception),
   committed trees (clean or isolated) must be sanitizer-clean, and a
   final full-text rewrite must converge to the batch parse. *)
let garbage = [| " ) ("; " ; ;"; " * /"; " = ="; " ( ;"; " ) ) )"; " + *" |]

let fault_replay lang base (seed, count) =
  let table = Language.table lang in
  let budget = { Glr.no_budget with Glr.max_parsers = 8 } in
  let rng = Random.State.make [| seed; 0xfa; 0x17 |] in
  let s, outcome0 =
    Session.create ~budget ~table ~lexer:(Language.lexer lang) base
  in
  (match outcome0 with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> QCheck.Test.fail_report "base program rejected");
  let decisions = decision_analyzer lang s in
  let text = ref base in
  let step () =
    (* Half the edits inject an invalid token run at a random position;
       the rest are random deletions of short spans. *)
    let len = String.length !text in
    let pos, del, insert =
      if Random.State.bool rng then
        ( Random.State.int rng (len + 1),
          0,
          garbage.(Random.State.int rng (Array.length garbage)) )
      else
        let pos = Random.State.int rng (max 1 len) in
        (pos, min (1 + Random.State.int rng 3) (len - pos), "")
    in
    match Session.edit s ~pos ~del ~insert with
    | () ->
        text :=
          String.concat ""
            [
              String.sub !text 0 pos;
              insert;
              String.sub !text (pos + del) (len - pos - del);
            ]
    | exception Lexgen.Scanner.Lex_error _ ->
        (* Unscannable result: the edit was rejected and the document is
           unchanged — skip. *)
        ()
  in
  let index_rng = Random.State.make [| seed |] in
  for _ = 1 to count do
    step ();
    let outcome = Session.reparse s in
    check_positions ~rng:index_rng (Language.lexer lang) s;
    check_recovery_spans ~rng:index_rng s;
    (match decisions with
    | Some d when committed outcome -> check_decisions lang d s
    | _ -> ());
    match (batch lang !text, outcome) with
    | Some expected, Session.Parsed _ ->
        Analyze.Check.assert_dag ~expect_text:!text table (Session.root s);
        let got = Parsedag.Pp.to_sexp lang.Language.grammar (Session.root s) in
        if not (String.equal got expected) then
          QCheck.Test.fail_reportf "diverged from batch on %S" !text
    | Some _, Session.Recovered { degraded; _ } ->
        (* Only a budget hit may recover batch-parseable text. *)
        if not degraded then
          QCheck.Test.fail_reportf "recovered on batch-parseable text %S"
            !text
    | None, Session.Recovered { isolated; _ } ->
        if isolated > 0 then
          Analyze.Check.assert_dag ~expect_text:!text table (Session.root s)
    | None, Session.Parsed _ ->
        QCheck.Test.fail_reportf "accepted batch-rejected text %S" !text
  done;
  (* Convergence: rewrite the whole document back to the pristine base;
     unless the final reparse itself was pruned by the budget, it must be
     a clean parse, batch-identical, with no residual error regions. *)
  let outcome, d =
    Session.measure (fun () ->
        Session.edit s ~pos:0 ~del:(String.length !text) ~insert:base;
        Session.reparse s)
  in
  let pruned = Metrics.count d "glr.pruned_parsers" in
  (match outcome with
  | Session.Parsed _ ->
      Analyze.Check.assert_dag ~expect_text:base table (Session.root s);
      if Session.error_regions s <> [] then
        QCheck.Test.fail_report "residual error regions after convergence";
      let got = Parsedag.Pp.to_sexp lang.Language.grammar (Session.root s) in
      (match batch lang base with
      | Some expected when not (String.equal got expected) ->
          QCheck.Test.fail_report "converged tree differs from batch parse"
      | _ -> ())
  | Session.Recovered _ when pruned > 0 -> ()
  | Session.Recovered _ ->
      QCheck.Test.fail_report "failed to converge after full rewrite");
  true

(* Compiled-table differential mode: the same random edit scripts replay
   through a session on the production table ([Language.table], filters
   compiled in, none applied); after every edit the committed tree must
   be sexp-identical to a from-scratch parse on the conflict-retaining
   table with the full declared filter set applied.  This is the
   filter-compilation observational-equivalence invariant exercised
   under incremental editing (reuse, damage tracking, recovery), which
   the static certificate's batch corpus cannot reach. *)
let batch_dynamic lang text =
  let table = Language.conflict_table lang in
  let tokens, trailing = Lexgen.Scanner.all (Language.lexer lang) text in
  match Glr.parse_tokens table tokens ~trailing with
  | root, _ ->
      Analyze.Check.assert_dag table root;
      let filters = lang.Language.ambig.Language.syn_filters in
      if filters <> [] then
        ignore (Iglr.Syn_filter.apply lang.Language.grammar filters root);
      Some (Parsedag.Pp.to_sexp lang.Language.grammar root)
  | exception Glr.Parse_error _ -> None

let compiled_replay lang base (seed, count) =
  let table = Language.table lang in
  let script = Edit_gen.random_script ~seed ~count base in
  let s, outcome0 = Session.create ~table ~lexer:(Language.lexer lang) base in
  (match outcome0 with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> QCheck.Test.fail_report "base program rejected");
  let text = ref base in
  List.for_all
    (fun (e : Edit_gen.edit) ->
      text := Edit_gen.apply e !text;
      Session.edit s ~pos:e.Edit_gen.e_pos ~del:e.Edit_gen.e_del
        ~insert:e.Edit_gen.e_insert;
      match (batch_dynamic lang !text, Session.reparse s) with
      | Some expected, Session.Parsed _ ->
          Analyze.Check.assert_dag table (Session.root s);
          let got =
            Parsedag.Pp.to_sexp lang.Language.grammar (Session.root s)
          in
          if not (String.equal got expected) then
            QCheck.Test.fail_reportf
              "compiled-table tree diverged from dynamic pipeline\n text: %S"
              !text;
          true
      | Some _, Session.Recovered _ ->
          QCheck.Test.fail_reportf
            "compiled table recovered on dynamically-parseable text %S" !text
      | None, Session.Recovered _ -> true
      | None, Session.Parsed _ ->
          QCheck.Test.fail_reportf
            "compiled table accepted dynamically-rejected text %S" !text)
    script

(* Daemon-differential mode: the same random edit scripts replay through
   the full iglrd RPC codec — every edit is serialized to a request line
   (JSON string escaping and all), decoded by the engine, and applied to
   the pooled session — and after every edit the daemon-side document
   must agree byte-for-byte with a directly-edited Session, with the
   final dags sexp-identical.  This pins the wire codec as a faithful
   transport: whatever bytes Edit_gen produces (newlines, quotes,
   comment openers), encode → decode → apply = apply. *)
let daemon_replay lang base (seed, count) =
  let module Json = Metrics.Json in
  let lang_name = Languages.Registry.name_of lang in
  let script = Edit_gen.random_script ~seed ~count base in
  let responses = ref [] in
  let engine =
    Server.Engine.create ~jobs:0 ~emit:(fun l -> responses := l :: !responses) ()
  in
  Fun.protect ~finally:(fun () -> Server.Engine.shutdown engine) @@ fun () ->
  let rpc fields =
    let before = List.length !responses in
    Server.Engine.handle_line engine (Json.to_line (Json.Obj fields));
    match !responses with
    | r :: _ when List.length !responses = before + 1 -> (
        let j = Json.of_string r in
        match Json.member "error" j with
        | Some e ->
            QCheck.Test.fail_reportf "daemon rejected a fuzz request: %s"
              (Json.to_line e)
        | None -> j)
    | _ -> QCheck.Test.fail_report "daemon dropped a response"
  in
  ignore
    (rpc
       [
         ("id", Json.Int 0);
         ("method", Json.String "open");
         ( "params",
           Json.Obj
             [
               ("doc", Json.String "fuzz");
               ("lang", Json.String lang_name);
               ("text", Json.String base);
             ] );
       ]);
  let direct, _ =
    Session.create ~table:(Language.table lang) ~lexer:(Language.lexer lang)
      base
  in
  let daemon_session () =
    match Server.Pool.find (Server.Engine.pool engine) "fuzz" with
    | Some e -> e.Server.Pool.session
    | None -> QCheck.Test.fail_report "fuzz doc missing from the pool"
  in
  List.iteri
    (fun i (e : Edit_gen.edit) ->
      ignore
        (rpc
           [
             ("id", Json.Int (i + 1));
             ("method", Json.String "edit");
             ( "params",
               Json.Obj
                 [
                   ("doc", Json.String "fuzz");
                   ( "edits",
                     Json.List
                       [
                         Json.Obj
                           [
                             ("pos", Json.Int e.Edit_gen.e_pos);
                             ("del", Json.Int e.Edit_gen.e_del);
                             ("insert", Json.String e.Edit_gen.e_insert);
                           ];
                       ] );
                 ] );
           ]);
      Session.edit direct ~pos:e.Edit_gen.e_pos ~del:e.Edit_gen.e_del
        ~insert:e.Edit_gen.e_insert;
      if not (String.equal (Session.text (daemon_session ())) (Session.text direct))
      then
        QCheck.Test.fail_reportf
          "RPC-transported edit %d diverged from direct application" i;
      ignore
        (rpc
           [
             ("id", Json.Int (-(i + 1)));
             ("method", Json.String "parse");
             ("params", Json.Obj [ ("doc", Json.String "fuzz") ]);
           ]);
      ignore (Session.reparse direct))
    script;
  let got =
    Parsedag.Pp.to_sexp lang.Language.grammar
      (Session.root (daemon_session ()))
  in
  let expected =
    Parsedag.Pp.to_sexp lang.Language.grammar (Session.root direct)
  in
  if not (String.equal got expected) then
    QCheck.Test.fail_report "daemon-side dag diverged from direct session";
  true

(* Semantic-query differential mode: the same random edit scripts replay
   through a Session with the Diag query layer subscribed to commits;
   after every edit that commits a tree (clean parse or isolated
   recovery — the flag-only fallback deliberately retains a damaged,
   uncommitted tree), the incrementally-maintained analysis — bindings,
   diagnostics, inferred types, and (for C) the typedef report — must
   render identically to a from-scratch recompute by a fresh analyzer on
   the same dag.  This is the query engine's correctness contract:
   validation, early cutoff and push-invalidation may skip work, never
   change answers. *)
module Diag = Semantics.Diag

(* One analyzer: the typedef decisions (a no-op on calc, which has no
   choice nodes and no typedef namespace), then the analyses over them. *)
let run_analysis d root =
  let t = Diag.decide d root in
  ( Diag.run d root,
    [
      ("typedefs", t.Diag.typedef_decls);
      ("choices", t.Diag.choices);
      ("unresolved", t.Diag.unresolved);
      ("errors", List.length t.Diag.sem_errors);
    ] )

let query_replay lang base (seed, count) =
  let table = Language.table lang in
  let script = Edit_gen.random_script ~seed ~count base in
  let s, outcome0 =
    Session.create ~table ~lexer:(Language.lexer lang) base
  in
  (match outcome0 with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> QCheck.Test.fail_report "base program rejected");
  let d = Diag.create lang.Language.grammar in
  Session.on_commit s (fun ~watermark root -> Diag.commit d ~watermark root);
  ignore (run_analysis d (Session.root s));
  let text = ref base in
  List.for_all
    (fun (e : Edit_gen.edit) ->
      text := Edit_gen.apply e !text;
      Session.edit s ~pos:e.Edit_gen.e_pos ~del:e.Edit_gen.e_del
        ~insert:e.Edit_gen.e_insert;
      let committed =
        match Session.reparse s with
        | Session.Parsed _ -> true
        | Session.Recovered { isolated; _ } -> isolated > 0
      in
      if committed then begin
        let r, tsum = run_analysis d (Session.root s) in
        let scratch = Diag.create lang.Language.grammar in
        let r0, tsum0 = run_analysis scratch (Session.root s) in
        if not (String.equal (Diag.render r) (Diag.render r0)) then
          QCheck.Test.fail_reportf
            "incremental analysis diverged from scratch recompute\n\
            \ text: %S\n incremental:\n%s\n scratch:\n%s" !text
            (Diag.render r) (Diag.render r0);
        if tsum <> tsum0 then
          QCheck.Test.fail_reportf
            "incremental typedef report diverged from scratch on %S" !text
      end;
      true)
    script

(* The §5 protocol on the query layer: syntactically-neutral single-token
   edits must leave most semantic cells validating clean — the analysis
   recomputes strictly fewer cells than it holds (early cutoff +
   keyed-by-retained-nid reuse), while still agreeing with scratch. *)
let query_reuse_replay lang base (seed, count) =
  let table = Language.table lang in
  let s, outcome0 =
    Session.create ~table ~lexer:(Language.lexer lang) base
  in
  (match outcome0 with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> QCheck.Test.fail_report "base program rejected");
  let d = Diag.create lang.Language.grammar in
  Session.on_commit s (fun ~watermark root -> Diag.commit d ~watermark root);
  ignore (run_analysis d (Session.root s));
  let edits = Edit_gen.token_edits ~seed ~count (Session.text s) in
  List.for_all
    (fun (e : Edit_gen.edit) ->
      Session.edit s ~pos:e.Edit_gen.e_pos ~del:e.Edit_gen.e_del
        ~insert:e.Edit_gen.e_insert;
      (match Session.reparse s with
      | Session.Parsed _ -> ()
      | Session.Recovered _ ->
          QCheck.Test.fail_report "neutral token edit broke the parse");
      let c0 = (Query.stats (Diag.engine d)).Query.computes in
      let r, _ = run_analysis d (Session.root s) in
      let recomputed = (Query.stats (Diag.engine d)).Query.computes - c0 in
      let total = Query.cells (Diag.engine d) in
      if recomputed >= total then
        QCheck.Test.fail_reportf
          "no semantic reuse on a single-token edit: recomputed %d of %d \
           cells"
          recomputed total;
      let scratch = Diag.create lang.Language.grammar in
      let r0, _ = run_analysis scratch (Session.root s) in
      if not (String.equal (Diag.render r) (Diag.render r0)) then
        QCheck.Test.fail_report
          "reuse run diverged from scratch recompute";
      true)
    edits

(* Every bundled language: random fragment texts (comment openers and
   closers, newlines, operators) under random edits, reparsed now and
   then so recovery's tree surgery runs between edits. *)
let index_frags =
  [| "ab"; "x1"; "12"; " "; "\n"; ";"; "("; ")"; "+"; "*"; "/"; "/*"; "*/";
     "(*"; "*)"; "{"; "}"; "="; "//"; "--"; "\"" |]

let index_replay (seed, count) =
  let rng = Random.State.make [| seed |] in
  (* Its own stream, so the checks leave the edit scripts as they were. *)
  let unit_rng = Random.State.make [| seed; 0x5a |] in
  let frags k =
    String.concat ""
      (List.init k (fun _ ->
           index_frags.(Random.State.int rng (Array.length index_frags))))
  in
  List.iter
    (fun (_, lang) ->
      let lexer = Language.lexer lang in
      let s, _ =
        Session.create ~table:(Language.table lang) ~lexer
          (frags (Random.State.int rng 30))
      in
      check_positions ~rng lexer s;
      check_recovery_spans ~rng:unit_rng s;
      let decisions = decision_analyzer lang s in
      for _ = 1 to count do
        let len = String.length (Session.text s) in
        let pos = Random.State.int rng (len + 1) in
        let del = Random.State.int rng (min 12 (len - pos) + 1) in
        (match
           Session.edit s ~pos ~del ~insert:(frags (Random.State.int rng 4))
         with
        | () -> ()
        | exception Lexgen.Scanner.Lex_error _ -> ());
        if Random.State.bool rng then begin
          let outcome = Session.reparse s in
          check_recovery_spans ~rng:unit_rng s;
          match decisions with
          | Some d when committed outcome -> check_decisions lang d s
          | _ -> ()
        end;
        check_positions ~rng lexer s
      done)
    Languages.Registry.all;
  true

let arb_script =
  QCheck.(pair (int_bound 1_000_000) (int_range 1 8))

let prop_calc =
  QCheck.Test.make ~count:60 ~name:"edit fuzz: calc incremental = batch"
    arb_script
    (replay Languages.Calc.language base_calc)

let prop_c =
  QCheck.Test.make ~count:60 ~name:"edit fuzz: C incremental = batch"
    arb_script
    (replay Languages.C_subset.language base_c)

let prop_c_typedefs =
  QCheck.Test.make ~count:40
    ~name:"edit fuzz: C typedef decisions = reference walk" arb_script
    (replay Languages.C_subset.language base_typedefs)

let prop_cpp_typedefs =
  QCheck.Test.make ~count:40
    ~name:"edit fuzz: C++ typedef decisions = reference walk" arb_script
    (replay Languages.Cpp_subset.language base_typedefs)

let prop_index =
  QCheck.Test.make ~count:40
    ~name:"edit fuzz: position index = scratch, all languages" arb_script
    index_replay

let prop_compiled_calc =
  QCheck.Test.make ~count:40
    ~name:"edit fuzz: calc compiled table = dynamic pipeline" arb_script
    (compiled_replay Languages.Calc.language base_calc)

let prop_compiled_c =
  QCheck.Test.make ~count:40
    ~name:"edit fuzz: C compiled table = dynamic pipeline" arb_script
    (compiled_replay Languages.C_subset.language base_c)

let prop_daemon_calc =
  QCheck.Test.make ~count:30
    ~name:"edit fuzz: calc via RPC codec = direct session" arb_script
    (daemon_replay Languages.Calc.language base_calc)

let prop_daemon_c =
  QCheck.Test.make ~count:30
    ~name:"edit fuzz: C via RPC codec = direct session" arb_script
    (daemon_replay Languages.C_subset.language base_c)

let prop_query_calc =
  QCheck.Test.make ~count:40
    ~name:"edit fuzz: calc incremental queries = scratch" arb_script
    (query_replay Languages.Calc.language base_calc)

let prop_query_c =
  QCheck.Test.make ~count:40
    ~name:"edit fuzz: C incremental queries = scratch" arb_script
    (query_replay Languages.C_subset.language base_c)

let prop_query_reuse_calc =
  QCheck.Test.make ~count:25
    ~name:"edit fuzz: calc semantic reuse on token edits" arb_script
    (query_reuse_replay Languages.Calc.language base_calc)

let prop_query_reuse_c =
  QCheck.Test.make ~count:25
    ~name:"edit fuzz: C semantic reuse on token edits" arb_script
    (query_reuse_replay Languages.C_subset.language base_c)

let prop_fault_calc =
  QCheck.Test.make ~count:40
    ~name:"fault injection: calc isolation + budget + convergence"
    arb_script
    (fault_replay Languages.Calc.language base_calc)

let prop_fault_c =
  QCheck.Test.make ~count:40
    ~name:"fault injection: C isolation + budget + convergence"
    arb_script
    (fault_replay Languages.C_subset.language base_c)

let prop_fault_c_typedefs =
  QCheck.Test.make ~count:30
    ~name:"fault injection: C typedef decisions = reference walk" arb_script
    (fault_replay Languages.C_subset.language base_typedefs)

let prop_fault_cpp_typedefs =
  QCheck.Test.make ~count:30
    ~name:"fault injection: C++ typedef decisions = reference walk" arb_script
    (fault_replay Languages.Cpp_subset.language base_typedefs)

(* The §5 reuse invariant, asserted via the metrics layer: one token edit
   deep inside a balanced program must rebuild only the spine — under 10%
   of the tree (in practice ~1%). *)
let reuse_invariant () =
  let lang = Languages.C_subset.language in
  let src = Workload.Spec_gen.nested ~depth:9 ~seed:3 in
  let s, outcome =
    Session.create ~table:(Language.table lang) ~lexer:(Language.lexer lang)
      src
  in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "nested fixture rejected");
  let total = Node.count_nodes (Session.root s) in
  let e =
    List.hd (Edit_gen.token_edits ~seed:41 ~count:1 (Session.text s))
  in
  let outcome, d =
    Session.measure (fun () ->
        Session.edit s ~pos:e.Edit_gen.e_pos ~del:e.Edit_gen.e_del
          ~insert:e.Edit_gen.e_insert;
        Session.reparse s)
  in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "token edit broke the parse");
  let created = Metrics.count d "glr.nodes_created" in
  let reused_pct =
    100. *. (1. -. (float_of_int created /. float_of_int total))
  in
  if reused_pct < 90. then
    Alcotest.failf
      "single-token edit rebuilt %d of %d nodes (%.1f%% reuse, need >= 90%%)"
      created total reused_pct

(* Ambiguous statements and expressions put choice nodes on a token's
   parent path, below and at the statement that is its unit: every
   token's isolation unit must still equal the dag walk's, on the clean
   tree and after an error region is spliced in beside them. *)
let units_across_ambiguity () =
  let lang = Languages.C_subset.language in
  let text =
    "typedef int a;\nint f () { x = 1; a * b; c * d; (a)(b); y = 2; }\n\
     int g () { e * f; w = (c)(d); z = 3; }\n"
  in
  let s, _ =
    Session.create ~table:(Language.table lang) ~lexer:(Language.lexer lang)
      text
  in
  let rec through_choice (n : Node.t) =
    match n.Node.parent with
    | Some { Node.kind = Node.Choice _; _ } -> true
    | Some p -> through_choice p
    | None -> false
  in
  let check_all () =
    let leaves = Vdoc.Document.leaves (Session.document s) in
    Array.iteri
      (fun k _ ->
        let got = Session.isolation_unit s k and want = reference_unit s k in
        if got <> want then
          Alcotest.failf "unit of token %d is (%d, %d), the dag walk's (%d, %d)"
            k (fst got) (snd got) (fst want) (snd want))
      leaves;
    if Session.error_regions s <> reference_error_regions s then
      Alcotest.fail "error regions diverged from the dag walk";
    Array.exists through_choice leaves
  in
  Alcotest.(check bool) "some path crosses a choice" true (check_all ());
  let p = Str.search_forward (Str.regexp_string "y =") text 0 in
  Session.edit s ~pos:(p + 3) ~del:0 ~insert:" ) (";
  (match Session.reparse s with
  | Session.Recovered { isolated; _ } ->
      Alcotest.(check bool) "isolated" true (isolated > 0)
  | Session.Parsed _ -> Alcotest.fail "broken statement parsed");
  Alcotest.(check bool) "a path still crosses a choice" true (check_all ())

let suite =
  [
    Test_seed.to_alcotest prop_calc;
    Test_seed.to_alcotest prop_c;
    Test_seed.to_alcotest prop_c_typedefs;
    Test_seed.to_alcotest prop_cpp_typedefs;
    Test_seed.to_alcotest prop_index;
    Test_seed.to_alcotest prop_compiled_calc;
    Test_seed.to_alcotest prop_compiled_c;
    Test_seed.to_alcotest prop_daemon_calc;
    Test_seed.to_alcotest prop_daemon_c;
    Test_seed.to_alcotest prop_query_calc;
    Test_seed.to_alcotest prop_query_c;
    Test_seed.to_alcotest prop_query_reuse_calc;
    Test_seed.to_alcotest prop_query_reuse_c;
    Test_seed.to_alcotest prop_fault_calc;
    Test_seed.to_alcotest prop_fault_c;
    Test_seed.to_alcotest prop_fault_c_typedefs;
    Test_seed.to_alcotest prop_fault_cpp_typedefs;
    Alcotest.test_case "reuse invariant: single-token edit >= 90%" `Quick
      reuse_invariant;
    Alcotest.test_case "isolation units across ambiguity" `Quick
      units_across_ambiguity;
  ]
