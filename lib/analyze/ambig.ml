module Cfg = Grammar.Cfg
module Yield = Grammar.Yield
module Table = Lrtab.Table
module Automaton = Lrtab.Automaton
module Item = Lrtab.Item
module Scanner = Lexgen.Scanner
module Glr = Iglr.Glr
module Syn_filter = Iglr.Syn_filter
module Diag = Semantics.Diag
module J = Metrics.Json

type resolution =
  | Resolved_static
  | Resolved_syntactic
  | Resolved_semantic
  | Retained_unresolved

let resolution_name = function
  | Resolved_static -> "resolved-static"
  | Resolved_syntactic -> "resolved-syntactic"
  | Resolved_semantic -> "resolved-semantic"
  | Retained_unresolved -> "retained-unresolved"

type witness = {
  w_tokens : (int * string) list;
  w_text : string;
  w_count : int;
  w_left : string;
  w_right : string;
}

type klass = {
  k_name : string;
  k_kind : Lint.conflict_class;
  k_prods : int list;
  k_nts : int list;
  k_conflicts : (int * int) list;
  k_retained : bool;
  k_realizable : bool;
  k_resolution : resolution;
  k_witness : witness option;
  k_detail : string;
}

type config = {
  a_table : Table.t;
  a_syn_filters : Syn_filter.rule list;
  a_semantic : bool;
  a_sem_preamble : string list;
  a_lexemes : (string * string) list;
  a_max_len : int;
  a_max_candidates : int;
}

let config ?(syn_filters = []) ?(semantic = false) ?(sem_preamble = [])
    ?(lexemes = []) ?(max_len = 5) ?(max_candidates = 2000) table =
  {
    a_table = table;
    a_syn_filters = syn_filters;
    a_semantic = semantic;
    a_sem_preamble = sem_preamble;
    a_lexemes = lexemes;
    a_max_len = max_len;
    a_max_candidates = max_candidates;
  }

type report = {
  r_flagged : int list;
  r_classes : klass list;
  r_table : Table.t;
}

(* ------------------------------------------------------------------ *)
(* Position automaton (Schmitz-style, over the augmented grammar).

   A position is a grammar position (production, dot).  Moves:
   - shift    (p, d) --t--> (p, d+1)      when rhs p d = T t
   - derive   (p, d) --ε--> (q, 0)        when rhs p d = N n, q ∈ prods n
   - reduce   (p, |p|) --ε--> (q, d+1)    when rhs q d = N (lhs p)

   Reduce is stackless — it returns to *any* occurrence of the lhs, not
   the one that derived — which makes the automaton a superset of real
   derivations: pruning by it is conservative.  Squared into pairs
   synchronizing on terminals, a conflict is realizable only if some
   pair of its item positions can reach a pair of accepting positions
   (completed start productions).  Computed backward (co-accessibility)
   so one BFS serves every seed. *)

type positions = {
  ag : Cfg.t;
  npos : int;
  off : int array;  (* position of (p, 0), by production id *)
  pos_prod : int array;
  pos_dot : int array;
  occ_of_nt : int list array;  (* positions whose next symbol is N n *)
  comp_of_nt : int list array;  (* completed positions of prods of n *)
}

let positions ag =
  let np = Cfg.num_productions ag in
  let off = Array.make np 0 in
  let npos = ref 0 in
  for p = 0 to np - 1 do
    off.(p) <- !npos;
    npos := !npos + Array.length (Cfg.production ag p).Cfg.rhs + 1
  done;
  let npos = !npos in
  let pos_prod = Array.make npos 0 and pos_dot = Array.make npos 0 in
  for p = 0 to np - 1 do
    let len = Array.length (Cfg.production ag p).Cfg.rhs in
    for d = 0 to len do
      pos_prod.(off.(p) + d) <- p;
      pos_dot.(off.(p) + d) <- d
    done
  done;
  let nn = Cfg.num_nonterminals ag in
  let occ_of_nt = Array.make nn [] in
  let comp_of_nt = Array.make nn [] in
  Cfg.iter_productions ag (fun p ->
      comp_of_nt.(p.Cfg.lhs) <-
        (off.(p.Cfg.p_id) + Array.length p.Cfg.rhs)
        :: comp_of_nt.(p.Cfg.lhs);
      Array.iteri
        (fun d s ->
          match s with
          | Cfg.N n -> occ_of_nt.(n) <- (off.(p.Cfg.p_id) + d) :: occ_of_nt.(n)
          | Cfg.T _ -> ())
        p.Cfg.rhs);
  { ag; npos; off; pos_prod; pos_dot; occ_of_nt; comp_of_nt }

(* ε predecessors of a position: derive back to the occurrences of the
   lhs (for (q, 0)), reduce back to completed productions of the
   nonterminal just crossed (for dots after a nonterminal). *)
let eps_preds ps x =
  let d = ps.pos_dot.(x) and p = ps.pos_prod.(x) in
  let derive =
    if d = 0 then ps.occ_of_nt.((Cfg.production ps.ag p).Cfg.lhs) else []
  in
  let reduce =
    if d > 0 then
      match (Cfg.production ps.ag p).Cfg.rhs.(d - 1) with
      | Cfg.N n -> ps.comp_of_nt.(n)
      | Cfg.T _ -> []
    else []
  in
  List.rev_append derive reduce

let shift_pred ps x =
  let d = ps.pos_dot.(x) and p = ps.pos_prod.(x) in
  if d > 0 then
    match (Cfg.production ps.ag p).Cfg.rhs.(d - 1) with
    | Cfg.T t -> Some (t, x - 1)
    | Cfg.N _ -> None
  else None

(* Backward BFS over position pairs from the accepting pairs; returns
   the co-accessibility test. *)
let pair_coaccessible ps =
  let n = ps.npos in
  let visited = Bytes.make ((n * n + 7) / 8) '\000' in
  let get i =
    Char.code (Bytes.get visited (i lsr 3)) land (1 lsl (i land 7)) <> 0
  in
  let set i =
    Bytes.set visited (i lsr 3)
      (Char.chr
         (Char.code (Bytes.get visited (i lsr 3)) lor (1 lsl (i land 7))))
  in
  let q = Queue.create () in
  let add a b =
    let i = (a * n) + b in
    if not (get i) then begin
      set i;
      Queue.add (a, b) q
    end
  in
  let accepts = ps.comp_of_nt.(Cfg.start ps.ag) in
  List.iter (fun a -> List.iter (fun b -> add a b) accepts) accepts;
  while not (Queue.is_empty q) do
    let a, b = Queue.pop q in
    List.iter (fun a' -> add a' b) (eps_preds ps a);
    List.iter (fun b' -> add a b') (eps_preds ps b);
    match (shift_pred ps a, shift_pred ps b) with
    | Some (ta, a'), Some (tb, b') when ta = tb -> add a' b'
    | _ -> ()
  done;
  fun a b -> get ((a * n) + b)

(* ------------------------------------------------------------------ *)
(* Witness search.                                                     *)

module IntSet = Set.Make (Int)

(* Where two derivation trees diverge: the production shared by both
   spines immediately above the divergence (its parent) and the topmost
   pair of differing productions. *)
let rec diverge parent (t1 : Earley.tree) (t2 : Earley.tree) =
  if t1.Earley.t_prod <> t2.Earley.t_prod then
    (parent, [ t1.Earley.t_prod; t2.Earley.t_prod ])
  else
    let rec kids k1 k2 =
      match (k1, k2) with
      | [], [] -> (parent, [])
      | Earley.K_term _ :: r1, Earley.K_term _ :: r2 -> kids r1 r2
      | Earley.K_nt s1 :: r1, Earley.K_nt s2 :: r2 ->
          if s1 = s2 then kids r1 r2
          else diverge (Some t1.Earley.t_prod) s1 s2
      | _ -> (parent, [])
    in
    kids t1.Earley.t_kids t2.Earley.t_kids

(* Is the ambiguity exhibited by [t1]/[t2] attributable to this class's
   productions?  Yes when (a) the symmetric difference of the trees'
   production sets meets them (the readings use different productions,
   e.g. declaration vs expression), or (b) the topmost differing
   production pair lies entirely within them (grouping ambiguity, e.g.
   call vs binary operator), or (c) the class is a single production and
   the divergence sits directly under it (pure associativity: both
   readings nest that production).  A sentence can be ambiguous via some
   *other* class — [x = x = x] is an associativity ambiguity and must
   not confirm the typedef class even though its divergence touches
   [expr -> id] when one reading bottoms out, and [x * x * x] must not
   confirm the call-vs-[*] class even though [*] is a member — and such
   a witness fails all three tests: (b) needs two distinct class
   productions at the divergence, (c) only ever fires for singleton
   classes. *)
let attributable prodset t1 t2 =
  let set t = IntSet.of_list (Earley.tree_prods t) in
  let s1 = set t1 and s2 = set t2 in
  let symm = IntSet.union (IntSet.diff s1 s2) (IntSet.diff s2 s1) in
  let parent, pair = diverge None t1 t2 in
  (not (IntSet.is_empty (IntSet.inter symm prodset)))
  || (pair <> [] && List.for_all (fun p -> IntSet.mem p prodset) pair)
  || (match parent with
     | Some p -> IntSet.equal prodset (IntSet.singleton p)
     | None -> false)

(* Candidate sentences for a nonterminal: bounded enumeration of the
   region embedded in each minimal occurrence context.  Tokens are
   tagged with whether they come from the context (affects lexeme
   rendering).  Shared across classes via [state] caches. *)
type search_state = {
  g : Cfg.t;
  cfg : config;
  mutable cand_cache : (int, (int * bool) list list) Hashtbl.t;
  (* token ids -> (derivation count, first two trees) *)
  eval_cache : (int list, int * Earley.tree list) Hashtbl.t;
}

let candidates_for st nt =
  match Hashtbl.find_opt st.cand_cache nt with
  | Some c -> c
  | None ->
      let g = st.g in
      (* Keep every occurrence site's context (a language has a few
         dozen at most): an ambiguity may be exhibited in exactly one
         structural position, e.g. decl-vs-expression only inside a
         function body. *)
      let ctxs = Yield.occurrence_contexts ~max_count:32 g nt in
      let ctxs =
        if nt = Cfg.start g then { Yield.pre = []; post = [] } :: ctxs
        else ctxs
      in
      let sentences = Yield.enumerate g ~from:nt ~max_len:st.cfg.a_max_len in
      let cands =
        List.concat_map
          (fun { Yield.pre; post } ->
            List.map
              (fun u ->
                List.map (fun t -> (t, true)) pre
                @ List.map (fun t -> (t, false)) u
                @ List.map (fun t -> (t, true)) post)
              sentences)
          ctxs
      in
      let compare_cand a b =
        let c = compare (List.length a) (List.length b) in
        if c <> 0 then c else compare a b
      in
      let cands = List.sort_uniq compare_cand cands in
      Hashtbl.replace st.cand_cache nt cands;
      cands

let evaluate st terms =
  match Hashtbl.find_opt st.eval_cache terms with
  | Some r -> r
  | None ->
      let arr = Array.of_list terms in
      let count = Earley.count_derivations ~limit:64 st.g arr in
      let trees = if count >= 2 then Earley.derivations ~limit:2 st.g arr else [] in
      let r = (count, trees) in
      Hashtbl.replace st.eval_cache terms r;
      r

let lexeme_of st ~ctx term =
  let name = Cfg.terminal_name st.g term in
  match List.assoc_opt name st.cfg.a_lexemes with
  | Some l -> l
  | None ->
      if name = "id" then if ctx then "y" else "x"
      else if name = "num" then "1"
      else name

let witness_of st cand count t1 t2 =
  let w_tokens =
    List.map (fun (t, ctx) -> (t, lexeme_of st ~ctx t)) cand
  in
  let w_text = String.concat " " (List.map snd w_tokens) in
  {
    w_tokens;
    w_text;
    w_count = count;
    w_left = Format.asprintf "%a" (Earley.pp_tree st.g) t1;
    w_right = Format.asprintf "%a" (Earley.pp_tree st.g) t2;
  }

(* Find the first (shortest) candidate that is really ambiguous *and*
   whose ambiguity is attributable to this class's productions — a
   sentence can be ambiguous via some other class, which must not
   confirm this one. *)
let find_witness st ~prods ~nts =
  let prodset = IntSet.of_list prods in
  let cands =
    List.concat_map (fun nt -> candidates_for st nt) nts
    |> List.sort_uniq (fun a b ->
           let c = compare (List.length a) (List.length b) in
           if c <> 0 then c else compare a b)
  in
  let rec scan budget = function
    | [] -> None
    | _ when budget = 0 -> None
    | cand :: rest -> (
        let terms = List.map fst cand in
        match evaluate st terms with
        | count, t1 :: t2 :: _
          when count >= 2 && attributable prodset t1 t2 ->
            Some (witness_of st cand count t1 t2)
        | _ -> scan (budget - 1) rest)
  in
  scan st.cfg.a_max_candidates cands

(* ------------------------------------------------------------------ *)
(* Filter-coverage replay.                                             *)

let replay st (w : witness) =
  let cfg = st.cfg and g = st.g in
  let tokens_of tws =
    List.map
      (fun (term, text) -> { Scanner.term; text; trivia = " "; lookahead = 0 })
      tws
  in
  let parse tws =
    match Glr.parse_tokens cfg.a_table (tokens_of tws) ~trailing:"" with
    | root, _ -> Some root
    | exception Glr.Parse_error _ -> None
  in
  let apply_syn root =
    if cfg.a_syn_filters <> [] then
      ignore (Syn_filter.apply g cfg.a_syn_filters root);
    root
  in
  match parse w.w_tokens with
  | None ->
      (* Precedence filtering only ever *narrows* choices, except
         nonassoc combinations which can reject outright — either way
         the ambiguity is statically killed. *)
      (Resolved_static, "witness rejected by the statically filtered table")
  | Some root ->
      if Parsedag.Stats.((measure root).choice_nodes) = 0 then
        (Resolved_static, "parses deterministically under the filtered table")
      else
        let root = apply_syn root in
        if Parsedag.Stats.((measure root).choice_nodes) = 0 then
          (Resolved_syntactic, "resolved by dynamic syntactic filters")
        else if not cfg.a_semantic then
          ( Retained_unresolved,
            "choice nodes survive all filters (no semantic policy)" )
        else
          let semantically_resolved tws =
            match parse tws with
            | None -> false
            | Some root ->
                let d = Diag.decide (Diag.create g) (apply_syn root) in
                d.Diag.choices > 0 && d.Diag.unresolved = 0
          in
          if semantically_resolved w.w_tokens then
            (Resolved_semantic, "semantic filter decides every choice")
          else if cfg.a_sem_preamble = [] then
            ( Retained_unresolved,
              "semantic filter leaves choices unresolved" )
          else
            let preamble =
              List.map
                (fun name ->
                  let t = Cfg.find_terminal g name in
                  (t, if name = "id" then "x" else name))
                cfg.a_sem_preamble
            in
            if semantically_resolved (preamble @ w.w_tokens) then
              ( Resolved_semantic,
                "semantic filter decides every choice given the typedef \
                 preamble" )
            else
              ( Retained_unresolved,
                "semantic filter leaves choices unresolved even with the \
                 typedef preamble" )

(* ------------------------------------------------------------------ *)
(* Class assembly.                                                     *)

let kind_rank = function
  | Lint.Lexical_ambiguity -> 0
  | Lint.Genuine_ambiguity -> 1
  | Lint.Prec_resolvable -> 2

let class_kind members =
  List.fold_left
    (fun acc (info : Lint.conflict_info) ->
      if kind_rank info.Lint.klass < kind_rank acc then info.Lint.klass
      else acc)
    Lint.Prec_resolvable members

(* Stable class name: prefix : lhs names : conflict terminals : operator
   terminals of the involved productions.  Collisions get a #n suffix. *)
let class_name g ~retained ~kind ~prods ~terms ~nts =
  let prefix =
    if not retained then "static"
    else
      match kind with
      | Lint.Lexical_ambiguity -> "lexical"
      | Lint.Prec_resolvable -> "sr"
      | Lint.Genuine_ambiguity -> "rr"
  in
  let lhss =
    String.concat "/" (List.map (Cfg.nonterminal_name g) nts)
  in
  match kind with
  | Lint.Lexical_ambiguity -> Printf.sprintf "%s:%s" prefix lhss
  | _ ->
      let tnames =
        String.concat "," (List.map (Cfg.terminal_name g) terms)
      in
      let ops =
        List.filter_map
          (fun p ->
            Array.fold_left
              (fun acc s ->
                match (acc, s) with
                | None, Cfg.T t -> Some (Cfg.terminal_name g t)
                | acc, _ -> acc)
              None (Cfg.production g p).Cfg.rhs)
          prods
        |> List.sort_uniq compare |> String.concat ","
      in
      if ops = "" then Printf.sprintf "%s:%s:%s" prefix lhss tnames
      else Printf.sprintf "%s:%s:%s:%s" prefix lhss tnames ops

let analyze cfg =
  let table = cfg.a_table in
  let g = Table.grammar table in
  (* LR1 conflict states do not index the LR(0) machine (and have no
     conflict_items); analyze through an LALR proxy — still conservative,
     since LALR conflicts are a superset. *)
  let algo =
    match Table.algo table with
    | Table.LR1 -> Table.LALR
    | a -> a
  in
  let t0 = Table.build ~algo ~resolve_prec:false g in
  let tf =
    match Table.algo table with Table.LR1 -> Table.build ~algo g | _ -> table
  in
  let retained_set = Hashtbl.create 16 in
  List.iter
    (fun (c : Table.conflict) ->
      Hashtbl.replace retained_set (c.Table.c_state, c.Table.c_term) ())
    (Table.conflicts tf);
  let auto = Table.automaton t0 in
  let ctx = Automaton.ctx auto in
  let ps = positions (Automaton.aug auto).Lrtab.Augment.grammar in
  let coacc = pair_coaccessible ps in
  let item_pos item =
    ps.off.(Item.prod_of ctx item) + Item.dot_of ctx item
  in
  let conflict_realizable (info : Lint.conflict_info) =
    match info.Lint.items with
    | [] | [ _ ] -> true (* nothing to pair: stay conservative *)
    | items ->
        List.exists
          (fun i ->
            List.exists
              (fun j -> i <> j && coacc (item_pos i) (item_pos j))
              items)
          items
  in
  let num_orig = Cfg.num_productions g in
  (* Group unfiltered conflicts into classes by involved productions. *)
  let groups : (int list, Lint.conflict_info list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let order = ref [] in
  List.iter
    (fun (info : Lint.conflict_info) ->
      let prods =
        List.filter_map
          (fun item ->
            let p = Item.prod_of ctx item in
            if p < num_orig then Some p else None)
          info.Lint.items
        |> List.sort_uniq compare
      in
      match Hashtbl.find_opt groups prods with
      | Some r -> r := info :: !r
      | None ->
          Hashtbl.replace groups prods (ref [ info ]);
          order := prods :: !order)
    (Lint.conflict_diagnostics t0);
  let st =
    { g; cfg; cand_cache = Hashtbl.create 8; eval_cache = Hashtbl.create 64 }
  in
  let name_seen = Hashtbl.create 16 in
  let uniquify name =
    match Hashtbl.find_opt name_seen name with
    | None ->
        Hashtbl.replace name_seen name 1;
        name
    | Some n ->
        Hashtbl.replace name_seen name (n + 1);
        Printf.sprintf "%s#%d" name (n + 1)
  in
  let classes =
    List.rev_map
      (fun prods ->
        let members = List.rev !(Hashtbl.find groups prods) in
        let kind = class_kind members in
        let conflicts =
          List.map
            (fun (i : Lint.conflict_info) ->
              (i.Lint.conflict.Table.c_state, i.Lint.conflict.Table.c_term))
            members
        in
        let retained =
          List.exists (fun st -> Hashtbl.mem retained_set st) conflicts
        in
        let realizable = List.exists conflict_realizable members in
        let nts =
          List.map (fun p -> (Cfg.production g p).Cfg.lhs) prods
          |> List.sort_uniq compare
        in
        let terms =
          List.map
            (fun (i : Lint.conflict_info) -> i.Lint.conflict.Table.c_term)
            members
          |> List.sort_uniq compare
        in
        let name =
          uniquify (class_name g ~retained ~kind ~prods ~terms ~nts)
        in
        let witness =
          if realizable then find_witness st ~prods ~nts else None
        in
        let resolution, detail =
          match witness with
          | Some w -> replay st w
          | None ->
              if not realizable then
                ( Resolved_static,
                  "certified unambiguous: conflict positions are not pair \
                   co-accessible" )
              else if not retained then
                ( Resolved_static,
                  Printf.sprintf
                    "statically filtered; no witness within bound K=%d"
                    cfg.a_max_len )
              else
                ( Retained_unresolved,
                  Printf.sprintf
                    "retained conflict without a confirmed witness within \
                     bound K=%d (conservative)"
                    cfg.a_max_len )
        in
        {
          k_name = name;
          k_kind = kind;
          k_prods = prods;
          k_nts = nts;
          k_conflicts = conflicts;
          k_retained = retained;
          k_realizable = realizable;
          k_resolution = resolution;
          k_witness = witness;
          k_detail = detail;
        })
      !order
  in
  let classes =
    List.sort
      (fun a b ->
        match (b.k_retained, a.k_retained) with
        | true, false -> 1
        | false, true -> -1
        | _ -> compare a.k_name b.k_name)
      classes
  in
  let flagged =
    List.concat_map (fun k -> if k.k_realizable then k.k_nts else []) classes
    |> List.sort_uniq compare
  in
  { r_flagged = flagged; r_classes = classes; r_table = table }

let unresolved report =
  List.filter
    (fun k -> k.k_resolution = Retained_unresolved)
    report.r_classes

(* ------------------------------------------------------------------ *)
(* Reporting.                                                          *)

let to_json ?language report =
  let g = Table.grammar report.r_table in
  let klass_json k =
    J.Obj
      [
        ("name", J.String k.k_name);
        ("class", J.String (Format.asprintf "%a" Lint.pp_class k.k_kind));
        ("retained", J.Bool k.k_retained);
        ("realizable", J.Bool k.k_realizable);
        ("resolution", J.String (resolution_name k.k_resolution));
        ( "productions",
          J.List
            (List.map
               (fun p ->
                 J.String (Format.asprintf "%a" (Cfg.pp_production g) p))
               k.k_prods) );
        ( "nonterminals",
          J.List
            (List.map
               (fun n -> J.String (Cfg.nonterminal_name g n))
               k.k_nts) );
        ( "conflicts",
          J.List
            (List.map
               (fun (state, term) ->
                 J.Obj
                   [
                     ("state", J.Int state);
                     ("term", J.String (Cfg.terminal_name g term));
                   ])
               k.k_conflicts) );
        ( "witness",
          match k.k_witness with
          | None -> J.Null
          | Some w ->
              J.Obj
                [
                  ("sentence", J.String w.w_text);
                  ("derivations", J.Int w.w_count);
                  ("left", J.String w.w_left);
                  ("right", J.String w.w_right);
                ] );
        ("detail", J.String k.k_detail);
      ]
  in
  Envelope.make ~tool:"ambig" ?language
    [
      ( "flagged",
        J.List
          (List.map
             (fun n -> J.String (Cfg.nonterminal_name g n))
             report.r_flagged) );
      ("classes", J.List (List.map klass_json report.r_classes));
      ("unresolved", J.Int (List.length (unresolved report)));
    ]

let pp_report ppf report =
  let g = Table.grammar report.r_table in
  Format.pp_open_vbox ppf 0;
  Format.fprintf ppf "flagged nonterminals: %s@,"
    (match report.r_flagged with
    | [] -> "(none — grammar certified unambiguous)"
    | nts ->
        String.concat ", " (List.map (Cfg.nonterminal_name g) nts));
  List.iter
    (fun k ->
      Format.fprintf ppf "@,%s [%a] -> %s@," k.k_name Lint.pp_class k.k_kind
        (resolution_name k.k_resolution);
      Format.fprintf ppf "    productions:@,";
      List.iter
        (fun p ->
          Format.fprintf ppf "      %a@," (Cfg.pp_production g) p)
        k.k_prods;
      (match k.k_witness with
      | None -> ()
      | Some w ->
          Format.fprintf ppf "    witness: %s  (%s%d derivations)@," w.w_text
            (if w.w_count >= 64 then ">= " else "")
            w.w_count;
          Format.fprintf ppf "      left:  %s@," w.w_left;
          Format.fprintf ppf "      right: %s@," w.w_right);
      Format.fprintf ppf "    %s" k.k_detail)
    report.r_classes;
  let n = List.length report.r_classes in
  Format.fprintf ppf "@,@,%d class(es), %d retained, %d unresolved" n
    (List.length (List.filter (fun k -> k.k_retained) report.r_classes))
    (List.length (unresolved report));
  Format.pp_close_box ppf ()

(* ------------------------------------------------------------------ *)
(* Budgets.                                                            *)

type budget = {
  b_max_unresolved : int;
  b_expect : (string * string) list;
}

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let check_budget budget report =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let n_unresolved = List.length (unresolved report) in
  if n_unresolved > budget.b_max_unresolved then
    fail
      "%d retained-unresolved class(es) exceed the budget of %d: %s"
      n_unresolved budget.b_max_unresolved
      (String.concat ", " (List.map (fun k -> k.k_name) (unresolved report)));
  List.iter
    (fun (prefix, expected) ->
      let matching =
        List.filter
          (fun k -> starts_with ~prefix k.k_name)
          report.r_classes
      in
      if matching = [] then
        fail "no ambiguity class matches expected prefix %S" prefix
      else
        List.iter
          (fun k ->
            let got = resolution_name k.k_resolution in
            if got <> expected then
              fail "class %s resolves as %s, budget expects %s (%s)"
                k.k_name got expected k.k_detail)
          matching)
    budget.b_expect;
  List.rev !failures
