module Cfg = Grammar.Cfg
module Table = Lrtab.Table
module Node = Parsedag.Node
module Traverse = Parsedag.Traverse
module Unshare = Parsedag.Unshare

type error = { offset_tokens : int; message : string }

exception Parse_error of error

type budget = {
  max_parsers : int;
  max_nodes : int;
  deadline_ms : float;
}

let no_budget =
  { max_parsers = max_int; max_nodes = max_int; deadline_ms = infinity }

type budget_kind = Parsers | Nodes | Deadline

let budget_kind_name = function
  | Parsers -> "parsers"
  | Nodes -> "nodes"
  | Deadline -> "deadline"

exception Budget_exhausted of { kind : budget_kind; offset_tokens : int }

type stats = {
  mutable shifted_subtrees : int;
  mutable shifted_terminals : int;
  mutable reductions : int;
  mutable breakdowns : int;
  mutable max_parsers : int;
  mutable forks : int;
  mutable nodes_created : int;
  mutable degraded : bool;
  mutable pruned_parsers : int;
}

let fresh_stats () =
  {
    shifted_subtrees = 0;
    shifted_terminals = 0;
    reductions = 0;
    breakdowns = 0;
    max_parsers = 0;
    forks = 0;
    nodes_created = 0;
    degraded = false;
    pruned_parsers = 0;
  }

(* Global observability (lib/metrics): per-parse totals are folded in
   once at the end of [parse] — the hot loop only pays for the lookahead
   state-check classification below, a counter bump per subtree shift
   attempt. *)
let m_parses = Metrics.counter "glr.parses"
let m_parse_errors = Metrics.counter "glr.parse_errors"
let m_reductions = Metrics.counter "glr.reductions"
let m_breakdowns = Metrics.counter "glr.breakdowns"
let m_shifted_subtrees = Metrics.counter "glr.shifted_subtrees"
let m_shifted_terminals = Metrics.counter "glr.shifted_terminals"
let m_nodes_created = Metrics.counter "glr.nodes_created"
let m_forks = Metrics.counter "glr.forks"
let m_choices_packed = Metrics.counter "glr.choices_packed"
let m_gss_nodes = Metrics.counter "glr.gss_nodes"
let m_gss_peak = Metrics.peak "glr.gss_peak_parsers"

(* Outcomes of the state-matching test on a subtree lookahead
   (§3.2/§3.3): matched and shifted whole, rejected because the recorded
   state differs, or rejected because the subtree was built while several
   parsers were active ([nostate], the non-deterministic class). *)
let m_la_state_match = Metrics.counter "glr.lookahead_state_match"
let m_la_state_miss = Metrics.counter "glr.lookahead_state_miss"
let m_la_nostate = Metrics.counter "glr.lookahead_nostate"

(* Resource-budget observability: degraded parses (some GSS branches
   pruned), parsers pruned in total, and hard budget aborts by kind. *)
let m_degraded = Metrics.counter "glr.degraded_parses"
let m_pruned_parsers = Metrics.counter "glr.pruned_parsers"
let m_budget_nodes = Metrics.counter "glr.budget_exhausted_nodes"
let m_budget_deadline = Metrics.counter "glr.budget_exhausted_deadline"
let m_budget_cancelled = Metrics.counter "glr.budget_cancelled"

type config = { state_matching : bool }

let default_config = { state_matching = true }

(* Proxy entry of the lazy symbol-node table: the first interpretation
   stands for its symbol node until a second one arrives (footnote 10). *)
type sym_entry = {
  mutable alts : Node.t list;  (* reversed *)
  mutable choice : Node.t option;  (* materialized symbol node *)
}

type run = {
  table : Table.t;
  g : Cfg.t;
  cfgc : config;
  budget : budget;
  deadline : float;  (* absolute wall-clock ms, [infinity] = none *)
  cancel : (unit -> bool) option;
      (* cooperative cancellation, polled with the deadline: the parse
         service folds per-request cancel flags in here *)
  stats : stats;
  cursor : Traverse.cursor;  (* the input stream over the previous tree *)
  mutable red_term : Node.t;  (* cached reduction lookahead, *)
  mutable red_known : bool;  (* valid while this is set *)
  mutable active : Gss.node list;
  mutable for_actor : Gss.node list;
  (* The round's shifters.  A lone shifter (the deterministic case) sits
     in [lone]/[lone_state]; from the second on, [for_shifter] holds them
     all, most recent first. *)
  mutable shifters : int;
  mutable lone : Gss.node;
  mutable lone_state : int;
  mutable for_shifter : (Gss.node * int) list;
  mutable multiple_states : bool;
  mutable nondet_round : bool;
      (* true while the current reduce phase could produce merges: several
         parsers were active at round start or some lookup returned
         multiple actions.  Deterministic rounds skip the merge tables
         entirely — the paper's "deterministic behavior is assumed to be
         the common case". *)
  mutable accepting : Gss.node option;
  mutable pos : int;  (* token offset of shift_la *)
  mutable round_nodes : Node.t list;  (* nodes built this round *)
  nodes_tab : (int * int list, Node.t) Hashtbl.t;
  sym_tab : (int * int * int, sym_entry) Hashtbl.t;
}

(* Structured action tracing (lib/trace): the Appendix B narrative —
   reduces, shifts, forks, merges, reuse decisions — emitted as typed
   events.  [tracing] guards every site that would allocate an argument
   list, so a disabled sink costs one branch per site. *)
let[@inline] tracing () = Trace.enabled ()

let symbol_name g (n : Node.t) =
  match Node.symbol g n with
  | `N nt -> Cfg.nonterminal_name g nt
  | `T t -> Cfg.terminal_name g t
  | `Other -> "?"

(* The nonterminal of a production or choice node, read without
   [Node.symbol]'s boxed result. *)
let nt_of g (n : Node.t) =
  match n.Node.kind with
  | Node.Prod p -> (Cfg.production g p).Cfg.lhs
  | Node.Choice c -> c.Node.nt
  | Node.Term _ | Node.Bos | Node.Eos _ | Node.Error _ | Node.Root ->
      invalid_arg "Glr.nt_of: not a production"

(* A shifted terminal's trace label: its trivia and text, cut at 24
   bytes. *)
let term_label ~trivia ~text =
  let t = String.length trivia and x = String.length text in
  if t + x <= 24 then trivia ^ text
  else if t >= 24 then String.sub trivia 0 24 ^ "..."
  else trivia ^ String.sub text 0 (24 - t) ^ "..."

(* Graphviz snapshot of the live GSS: parser tops as double circles,
   links labeled by the symbol of the dag node spanning them.  Emitted as
   a [gss.snapshot] event whenever several parsers are active, so [iglrc
   dot --gss] can render the stack at the ambiguity. *)
let gss_dot g (tops : Gss.node list) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "digraph gss {\n  rankdir=RL;\n  node [fontname=\"monospace\" \
     shape=circle];\n";
  let seen = Hashtbl.create 16 in
  let rec walk (n : Gss.node) =
    if not (Hashtbl.mem seen n.Gss.gid) then begin
      Hashtbl.replace seen n.Gss.gid ();
      let top = List.memq n tops in
      Buffer.add_string buf
        (Printf.sprintf "  g%d [label=\"s%d\"%s];\n" n.Gss.gid n.Gss.state
           (if top then " shape=doublecircle" else ""));
      List.iter
        (fun (l : Gss.link) ->
          Buffer.add_string buf
            (Printf.sprintf "  g%d -> g%d [label=%S];\n" n.Gss.gid
               l.Gss.head.Gss.gid
               (symbol_name g l.Gss.label));
          walk l.Gss.head)
        n.Gss.links
    end
  in
  List.iter walk tops;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Token positions and spans.                                          *)

let tok_count _r n = Node.token_count n

(* Spans are positional: reductions complete exactly at the current token
   offset, so a node reduced (or merged) this round spans
   [pos - token_count, pos] — no side table needed (Appendix A's cover()). *)
let span r n = (r.pos - Node.token_count n, r.pos)

(* ------------------------------------------------------------------ *)
(* Lookahead handling.                                                 *)

let term_of n =
  match n.Node.kind with
  | Node.Term i -> i.term
  | Node.Eos _ -> Cfg.eof
  | Node.Bos | Node.Prod _ | Node.Choice _ | Node.Error _ | Node.Root ->
      invalid_arg "Glr.term_of: not a terminal"

let red_term r =
  if not r.red_known then begin
    r.red_term <- Traverse.peek_terminal r.cursor;
    r.red_known <- true
  end;
  r.red_term

let term_actions r (p : Gss.node) =
  Table.actions r.table ~state:p.state ~term:(term_of (red_term r))

(* Actions for parser [p] on the current lookahead.  When the lookahead is
   an unmodified subtree, the precomputed nonterminal reductions (§3.2)
   avoid descending to the leftmost terminal. *)
let lookup_actions r (p : Gss.node) =
  let la = Traverse.current r.cursor in
  match la.Node.kind with
  | (Node.Prod _ | Node.Choice _) when not (Node.has_changes la) -> (
      match Table.actions_on_nt r.table ~state:p.state ~nt:(nt_of r.g la) with
      | Some acts -> acts
      | None -> term_actions r p)
  | Node.Term _ | Node.Eos _ | Node.Prod _ | Node.Choice _ | Node.Error _
  | Node.Bos | Node.Root ->
      term_actions r p

(* ------------------------------------------------------------------ *)
(* Node construction with merging.                                     *)

let build_node r rule kids preceding_state =
  let state = if r.multiple_states then Node.nostate else preceding_state in
  r.stats.nodes_created <- r.stats.nodes_created + 1;
  Node.make_prod ~prod:rule ~state kids

(* In a deterministic round every reduction fires once, so the memo table
   (which exists to share identical productions between parsers) is
   skipped; [round_nodes] still records creations so a merge discovered
   later in the round can redirect captures. *)
let get_node r rule kids preceding_state =
  if not r.nondet_round then begin
    let n = build_node r rule kids preceding_state in
    r.round_nodes <- n :: r.round_nodes;
    n
  end
  else
    let key =
      (rule, Array.fold_right (fun (k : Node.t) ids -> k.Node.nid :: ids) kids [])
    in
    match Hashtbl.find_opt r.nodes_tab key with
    | Some n -> n
    | None ->
        let n = build_node r rule kids preceding_state in
        r.round_nodes <- n :: r.round_nodes;
        Hashtbl.replace r.nodes_tab key n;
        n

(* When an interpretation that already escaped into the round's structure
   (as a kid of a cascaded reduction, or as a GSS link label) turns out to
   be one of several, every capture must be redirected to the choice node;
   otherwise parents built before the merge bypass the ambiguity. *)
let redirect_captures r ~old_node ~canonical =
  List.iter
    (fun (n : Node.t) ->
      if n != canonical then
        Array.iteri
          (fun i k -> if k == old_node then n.Node.kids.(i) <- canonical)
          n.Node.kids)
    r.round_nodes;
  List.iter
    (fun (p : Gss.node) ->
      List.iter
        (fun (l : Gss.link) ->
          if l.Gss.label == old_node then l.Gss.label <- canonical)
        p.Gss.links)
    r.active

(* Register [node] as an interpretation of its (symbol, span) region and
   return the canonical label: the node itself while it is the only
   interpretation, the (shared) choice node afterwards. *)
let get_symbol_node r node =
  if not r.nondet_round then node
  else
  let nt = nt_of r.g node in
  let s, e = span r node in
  let entry =
    match Hashtbl.find_opt r.sym_tab (nt, s, e) with
    | Some entry -> entry
    | None ->
        let entry = { alts = []; choice = None } in
        Hashtbl.replace r.sym_tab (nt, s, e) entry;
        entry
  in
  let folded = ref None in
  if not (List.memq node entry.alts) then begin
    match
      List.find_opt
        (fun (a : Node.t) -> Node.structural_equal a node)
        entry.alts
    with
    | Some dup ->
        (* A re-derivation of an already-registered tree, not a new
           ambiguity: distinct reduction paths can rebuild the same
           derivation from physically distinct (typically ε) subtrees.
           Fold it into the existing interpretation rather than packing a
           choice whose alternatives are structurally equal. *)
        let canonical =
          match entry.choice with Some c -> c | None -> dup
        in
        redirect_captures r ~old_node:node ~canonical;
        folded := Some canonical;
        if tracing () then
          Trace.instant Trace.Gss "merge"
            [
              ("symbol", Trace.Str (Cfg.nonterminal_name r.g nt));
              ("kind", Trace.Str "duplicate");
              ("from", Trace.Int s);
              ("to", Trace.Int e);
            ]
    | None -> (
    entry.alts <- node :: entry.alts;
    match entry.choice with
    | Some c ->
        if not (Array.exists (fun k -> k == node) c.Node.kids) then
          c.Node.kids <- Array.append c.Node.kids [| node |];
        redirect_captures r ~old_node:node ~canonical:c;
        if tracing () then
          Trace.instant Trace.Gss "merge"
            [
              ("symbol", Trace.Str (Cfg.nonterminal_name r.g nt));
              ("kind", Trace.Str "new");
              ("from", Trace.Int s);
              ("to", Trace.Int e);
            ]
    | None ->
        if List.length entry.alts >= 2 then begin
          let kids = Array.of_list (List.rev entry.alts) in
          let c = Node.make_choice ~nt kids in
          entry.choice <- Some c;
          Metrics.incr m_choices_packed;
          Array.iter
            (fun alt -> redirect_captures r ~old_node:alt ~canonical:c)
            kids;
          if tracing () then
            Trace.instant Trace.Gss "pack"
              [
                ("symbol", Trace.Str (Cfg.nonterminal_name r.g nt));
                ("alts", Trace.Int (Array.length kids));
                ("from", Trace.Int s);
                ("to", Trace.Int e);
              ]
        end)
  end;
  match !folded with
  | Some c -> c
  | None -> ( match entry.choice with Some c -> c | None -> node)

(* ------------------------------------------------------------------ *)
(* Reductions (Rekers-style, breadth-first on the current lookahead).   *)

(* The active parser in [state], or [no_parser]: a sentinel, so the
   lookup allocates no option. *)
let no_parser = Gss.{ gid = 0; state = -1; links = [] }

let rec parser_in state = function
  | [] -> no_parser
  | (p : Gss.node) :: rest ->
      if p.Gss.state = state then p else parser_in state rest

let rec reducer r (q : Gss.node) target rule kids =
  r.stats.reductions <- r.stats.reductions + 1;
  let node = get_node r rule kids q.Gss.state in
  if tracing () then
    Trace.instant Trace.Glr "reduce"
      [
        ("prod", Trace.Str (Cfg.production_name r.g rule));
        ("target", Trace.Int target);
        ("at", Trace.Int r.pos);
      ];
  let p = parser_in target r.active in
  if p == no_parser then begin
    let label = get_symbol_node r node in
    let p = Gss.make_node ~state:target [ Gss.make_link ~head:q ~label ] in
    r.active <- p :: r.active;
    r.for_actor <- p :: r.for_actor
  end
  else link_or_merge r p q node p.Gss.links

(* [p] already exists: merge into its link to [q], or add one. *)
and link_or_merge r p q node = function
  | (link : Gss.link) :: rest ->
      if link.Gss.head != q then link_or_merge r p q node rest
      else if link.Gss.label != node then begin
        (* A second interpretation of the same region: merge into a
           choice node, upgrading the proxy label lazily.  Merges can be
           discovered in a round that started deterministically (a forked
           GSS region being popped), so turn the machinery on here. *)
        if not r.nondet_round then begin
          r.nondet_round <- true;
          Hashtbl.reset r.nodes_tab;
          Hashtbl.reset r.sym_tab
        end;
        (match link.Gss.label.Node.kind with
        | Node.Choice _ -> ()
        | _ -> ignore (get_symbol_node r link.Gss.label));
        link.Gss.label <- get_symbol_node r node
      end
  | [] ->
      let label = get_symbol_node r node in
      let link = Gss.make_link ~head:q ~label in
      Gss.add_link p link;
      (* Parsers already processed this round may enable further
         reductions through the new link. *)
      List.iter
        (fun (m : Gss.node) ->
          if not (List.memq m r.for_actor) then
            List.iter
              (function
                | Table.Reduce rule' -> do_limited_reductions r m rule' link
                | Table.Shift _ | Table.Accept -> ())
              (lookup_actions r m))
        r.active

(* One reduction path, from the walker.  Several stack paths mean the GSS
   is locally forked and reductions may converge. *)
and reduce_path r rule ~many (q : Gss.node) kids =
  if many && not r.nondet_round then begin
    r.nondet_round <- true;
    Hashtbl.reset r.nodes_tab;
    Hashtbl.reset r.sym_tab
  end;
  let target =
    Table.goto r.table ~state:q.Gss.state ~nt:(Cfg.production r.g rule).Cfg.lhs
  in
  if target >= 0 then reducer r q target rule kids

and do_reductions r (p : Gss.node) rule =
  let arity = Array.length (Cfg.production r.g rule).Cfg.rhs in
  Gss.iter_paths p ~arity ~through:None reduce_path r rule

and do_limited_reductions r (m : Gss.node) rule link =
  let arity = Array.length (Cfg.production r.g rule).Cfg.rhs in
  Gss.iter_paths m ~arity ~through:(Some link) reduce_path r rule

(* ------------------------------------------------------------------ *)
(* The actor / shifter cycle.                                           *)

let add_shifter r (p : Gss.node) state =
  (match r.shifters with
  | 0 ->
      r.lone <- p;
      r.lone_state <- state
  | 1 -> r.for_shifter <- [ (p, state); (r.lone, r.lone_state) ]
  | _ -> r.for_shifter <- (p, state) :: r.for_shifter);
  r.shifters <- r.shifters + 1

let rec run_actions r (p : Gss.node) = function
  | [] -> ()
  | act :: rest ->
      (match act with
      | Table.Accept -> (
          match (red_term r).Node.kind with
          | Node.Eos _ -> r.accepting <- Some p
          | _ -> () (* this parser cannot finish here; it dies *))
      | Table.Reduce rule -> do_reductions r p rule
      | Table.Shift s -> add_shifter r p s);
      run_actions r p rest

let actor r (p : Gss.node) =
  let acts = lookup_actions r p in
  (match acts with
  | _ :: _ :: _ ->
      r.stats.forks <- r.stats.forks + 1;
      r.multiple_states <- true;
      r.nondet_round <- true;
      if tracing () then
        Trace.instant Trace.Gss "fork"
          [
            ("state", Trace.Int p.Gss.state);
            ("actions", Trace.Int (List.length acts));
            ("at", Trace.Int r.pos);
          ]
  | [] | [ _ ] -> ());
  run_actions r p acts

(* The per-candidate reuse narrative: every accepted subtree and every
   rejection reason (the explain report's raw material). *)
let trace_reuse r (la : Node.t) ok =
  let common =
    [
      ("symbol", Trace.Str (symbol_name r.g la));
      ("from", Trace.Int r.pos);
      ("tokens", Trace.Int (Node.token_count la));
    ]
  in
  if ok then Trace.instant Trace.Reuse "accept" common
  else
    let reason =
      if not r.cfgc.state_matching then [ ("reason", Trace.Str "disabled") ]
      else if Node.nested la then [ ("reason", Trace.Str "pending-edit") ]
      else if Node.changed la then [ ("reason", Trace.Str "lookahead-change") ]
      else if r.multiple_states then
        [ ("reason", Trace.Str "multiple-parsers") ]
      else if la.Node.state = Node.nostate then
        [ ("reason", Trace.Str "no-state") ]
      else if r.shifters <> 1 then [ ("reason", Trace.Str "multiple-parsers") ]
      else if la.Node.state <> r.lone.Gss.state then
        [
          ("reason", Trace.Str "state-mismatch");
          ("recorded", Trace.Int la.Node.state);
          ("current", Trace.Int r.lone.Gss.state);
        ]
      else [ ("reason", Trace.Str "no-goto") ]
    in
    Trace.instant Trace.Reuse "reject" (common @ reason)

(* Decompose the lookahead until it is shiftable: a terminal, or — in a
   deterministic configuration — an unmodified subtree whose recorded
   state matches the single active parser (state-matching, §3.2/3.3). *)
let rec settle_lookahead r =
  let la = Traverse.current r.cursor in
  match la.Node.kind with
  | Node.Term _ -> ()
  | Node.Eos _ ->
      raise
        (Parse_error
           { offset_tokens = r.pos; message = "internal: shift past eos" })
  | Node.Bos | Node.Root ->
      invalid_arg "Glr.settle_lookahead: sentinel lookahead"
  | Node.Error _ ->
      (* An isolated error region is never reused wholesale: its raw token
         run is re-offered terminal by terminal, so a repaired context
         reintegrates it (and a clean parse dissolves it). *)
      if tracing () then
        Trace.instant Trace.Reuse "reject"
          [
            ("symbol", Trace.Str "<error>");
            ("from", Trace.Int r.pos);
            ("tokens", Trace.Int (Node.token_count la));
            ("reason", Trace.Str "error-subtree");
          ];
      r.stats.breakdowns <- r.stats.breakdowns + 1;
      Traverse.descend r.cursor;
      settle_lookahead r
  | Node.Prod _ | Node.Choice _ ->
      let ok =
        r.cfgc.state_matching
        && (not r.multiple_states)
        && (not (Node.has_changes la))
        && la.Node.state <> Node.nostate
        && r.shifters = 1
        && la.Node.state = r.lone.Gss.state
        && Table.goto r.table ~state:r.lone.Gss.state ~nt:(nt_of r.g la) >= 0
      in
      (* Classify only undamaged subtrees: a changed lookahead must be
         decomposed regardless of its recorded state. *)
      if not (Node.has_changes la) then
        if ok then Metrics.incr m_la_state_match
        else if la.Node.state = Node.nostate then Metrics.incr m_la_nostate
        else Metrics.incr m_la_state_miss;
      if tracing () then trace_reuse r la ok;
      if not ok then begin
        r.stats.breakdowns <- r.stats.breakdowns + 1;
        Traverse.descend r.cursor;
        settle_lookahead r
      end

(* Shift [la] for parser [p], whose table action was [Shift s]. *)
let shift_one r (la : Node.t) (p : Gss.node) s =
  let target =
    match la.Node.kind with
    | Node.Term _ -> s
    | Node.Prod _ | Node.Choice _ ->
        Table.goto r.table ~state:p.Gss.state ~nt:(nt_of r.g la)
    | Node.Bos | Node.Eos _ | Node.Error _ | Node.Root -> -1
  in
  if target >= 0 then begin
    la.Node.state <- (if r.multiple_states then Node.nostate else p.Gss.state);
    let link = Gss.make_link ~head:p ~label:la in
    let q = parser_in target r.active in
    if q == no_parser then
      r.active <- Gss.make_node ~state:target [ link ] :: r.active
    else Gss.add_link q link
  end

let rec shift_all r la = function
  | [] -> ()
  | (p, s) :: rest ->
      shift_one r la p s;
      shift_all r la rest

let shifter r =
  r.active <- [];
  r.multiple_states <- r.shifters > 1;
  if r.shifters > 0 then begin
    settle_lookahead r;
    let la = Traverse.current r.cursor in
    (match la.Node.kind with
    | Node.Term _ -> r.stats.shifted_terminals <- r.stats.shifted_terminals + 1
    | _ -> r.stats.shifted_subtrees <- r.stats.shifted_subtrees + 1);
    if r.shifters = 1 then shift_one r la r.lone r.lone_state
    else shift_all r la r.for_shifter;
    if tracing () then begin
      (* A terminal is labelled with its text; a subtree shifted whole
         with its symbol and size, so the label never walks its leaves. *)
      let parsers = ("parsers", Trace.Int (List.length r.active)) in
      let at = ("at", Trace.Int r.pos) in
      Trace.instant Trace.Glr "shift"
        (match la.Node.kind with
        | Node.Term { trivia; text; _ } ->
            [ ("yield", Trace.Str (term_label ~trivia ~text)); parsers; at ]
        | _ ->
            [
              ("symbol", Trace.Str (symbol_name r.g la));
              ("tokens", Trace.Int (Node.token_count la));
              parsers;
              at;
            ]);
      (* Snapshot the transient GSS whenever the stack is actually
         graph-structured; [iglrc dot --gss] renders the last one. *)
      if List.length r.active > 1 then
        Trace.instant Trace.Gss "snapshot"
          [ ("dot", Trace.Str (gss_dot r.g r.active)); ("at", Trace.Int r.pos) ]
    end;
    (* Degradation rung 1: too many simultaneous parsers.  Keep the
       [max_parsers] lowest-state tops (a deterministic priority: state
       ids are stable across runs of the same table) and drop the rest,
       flagging the parse as degraded rather than failing it. *)
    (if List.length r.active > r.budget.max_parsers then begin
       let sorted =
         List.sort
           (fun (a : Gss.node) (b : Gss.node) -> compare a.Gss.state b.Gss.state)
           r.active
       in
       let rec take k = function
         | x :: rest when k > 0 -> x :: take (k - 1) rest
         | _ -> []
       in
       let kept = take r.budget.max_parsers sorted in
       let pruned = List.length r.active - List.length kept in
       r.active <- kept;
       r.stats.degraded <- true;
       r.stats.pruned_parsers <- r.stats.pruned_parsers + pruned;
       if tracing () then
         Trace.instant Trace.Gss "prune"
           [
             ("pruned", Trace.Int pruned);
             ("kept", Trace.Int (List.length kept));
             ("budget", Trace.Str "max-parsers");
             ("at", Trace.Int r.pos);
           ]
     end);
    if List.length r.active > r.stats.max_parsers then
      r.stats.max_parsers <- List.length r.active
  end

(* Hard budget rungs, checked once per shifted symbol: cheap enough for
   the hot loop, fine-grained enough that exhaustion is detected within
   one token of the limit.  Raising leaves the previous tree structurally
   intact (kid arrays are only rewritten on accept), so the caller can
   fall back to isolation-unit recovery on the old structure. *)
let check_budget r =
  if r.stats.nodes_created > r.budget.max_nodes then begin
    Metrics.incr m_budget_nodes;
    raise (Budget_exhausted { kind = Nodes; offset_tokens = r.pos })
  end;
  if r.deadline < infinity && Metrics.now_ms () > r.deadline then begin
    Metrics.incr m_budget_deadline;
    raise (Budget_exhausted { kind = Deadline; offset_tokens = r.pos })
  end;
  match r.cancel with
  | Some c when c () ->
      (* Cancellation shares the deadline rung: the caller asked for an
         answer now, so degrade exactly as an expired deadline would. *)
      Metrics.incr m_budget_cancelled;
      raise (Budget_exhausted { kind = Deadline; offset_tokens = r.pos })
  | _ -> ()

let rec drain r =
  match r.for_actor with
  | [] -> ()
  | p :: rest ->
      r.for_actor <- rest;
      actor r p;
      drain r

let parse_next_symbol r =
  check_budget r;
  r.for_actor <- r.active;
  r.shifters <- 0;
  r.for_shifter <- [];
  r.nondet_round <-
    (match r.active with [] | [ _ ] -> r.multiple_states | _ -> true);
  r.round_nodes <- [];
  if r.nondet_round then begin
    Hashtbl.reset r.nodes_tab;
    Hashtbl.reset r.sym_tab
  end;
  drain r;
  if r.accepting = None then begin
    shifter r;
    if r.active = [] then
      raise
        (Parse_error
           { offset_tokens = r.pos; message = "no parser can proceed" });
    (* Advance past whatever was actually shifted. *)
    r.pos <- r.pos + tok_count r (Traverse.current r.cursor);
    Traverse.advance r.cursor;
    r.red_known <- false
  end

(* ------------------------------------------------------------------ *)
(* Damage marking: Appendix A's process_modifications.                 *)

(* The implicit one-terminal lookahead of LR reductions means a subtree is
   reusable only if the terminal following its yield is unchanged.  For
   each modified terminal [t], walk to the previous terminal [u] and mark
   [u] and every ancestor whose yield ends at [u]: those are exactly the
   nodes with [t] in their one-terminal right context. *)
let process_modifications root =
  let changed_terms = ref [] in
  (* Only the head of a contiguous run of changed sibling terminals needs
     right-context marking: the rest are preceded by an already-changed
     terminal, which can never be reused above anyway. *)
  let collect_kids collect (n : Node.t) =
    let prev_changed_term = ref false in
    Array.iter
      (fun (k : Node.t) ->
        (if Node.changed k && Node.is_terminal k then
           if not !prev_changed_term then changed_terms := k :: !changed_terms);
        prev_changed_term := Node.changed k && Node.is_terminal k;
        collect k)
      n.Node.kids
  in
  let rec collect (n : Node.t) =
    if Node.nested n then collect_kids collect n
    else if Node.changed n && not (Node.is_terminal n) then
      (* A structurally edited interior node: treat every terminal beneath
         as changed for right-context purposes. *)
      collect_kids collect n
  in
  (if Node.changed root && Node.is_terminal root then assert false);
  collect root;
  let prev_terminal (t : Node.t) =
    (* Climb until [t]'s subtree has a left neighbour, then descend to its
       rightmost terminal. *)
    let rec climb (n : Node.t) =
      let p = n.Node.parent in
      if not (Node.has_parent n) then None
      else
        match p.Node.kind with
        | Node.Choice _ -> climb p
        | _ -> (
            let idx =
              let rec find i =
                if i >= Array.length p.Node.kids then None
                else if p.Node.kids.(i) == n then Some i
                else find (i + 1)
              in
              find 0
            in
            match idx with
            | None -> None
            | Some 0 -> climb p
            | Some i ->
                let rec rightmost_term j =
                  if j < 0 then climb p
                  else
                    let k = p.Node.kids.(j) in
                    let rec rightmost (n : Node.t) =
                      match n.Node.kind with
                      | Node.Term _ | Node.Bos -> Some n
                      | Node.Eos _ -> None
                      | Node.Choice _ -> rightmost n.Node.kids.(0)
                      | Node.Prod _ | Node.Error _ | Node.Root ->
                          let rec scan j =
                            if j < 0 then None
                            else
                              match rightmost n.Node.kids.(j) with
                              | Some t -> Some t
                              | None -> scan (j - 1)
                          in
                          scan (Array.length n.Node.kids - 1)
                    in
                    (match rightmost k with
                    | Some t -> Some t
                    | None -> rightmost_term (j - 1))
                in
                rightmost_term (i - 1))
    in
    climb t
  in
  List.iter
    (fun t ->
      match prev_terminal t with
      | None -> ()
      | Some u ->
          Node.mark_changed u;
          (* Mark ancestors whose yield ends at [u]. *)
          let rec up (n : Node.t) =
            let p = n.Node.parent in
            if Node.has_parent n then
              match p.Node.kind with
              | Node.Choice _ ->
                  Node.mark_changed p;
                  up p
              | Node.Root -> ()
              | _ ->
                  (* [n] must be the last yield-bearing kid of [p]. *)
                  let rec last_with_tokens i =
                    if i < 0 then None
                    else if Node.token_count p.Node.kids.(i) > 0 then Some i
                    else last_with_tokens (i - 1)
                  in
                  let li = last_with_tokens (Array.length p.Node.kids - 1) in
                  (match li with
                  | Some i when p.Node.kids.(i) == n ->
                      Node.mark_changed p;
                      up p
                  | _ -> ())
          in
          up u)
    !changed_terms

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

let make_run config budget deadline cancel table root start =
  {
    table;
    g = Table.grammar table;
    cfgc = config;
    budget;
    deadline;
    cancel;
    stats = fresh_stats ();
    cursor = Traverse.cursor_at root;
    red_term = root;
    red_known = false;
    active = [ start ];
    for_actor = [];
    shifters = 0;
    lone = start;
    lone_state = 0;
    for_shifter = [];
    multiple_states = false;
    nondet_round = false;
    accepting = None;
    pos = 0;
    round_nodes = [];
    nodes_tab = Hashtbl.create 64;
    sym_tab = Hashtbl.create 64;
  }

(* Fold a finished run's per-parse stats into the global registry: one
   batch of counter adds per parse, nothing per token. *)
let record_run r ~gss0 =
  Metrics.incr m_parses;
  Metrics.add m_reductions r.stats.reductions;
  Metrics.add m_breakdowns r.stats.breakdowns;
  Metrics.add m_shifted_subtrees r.stats.shifted_subtrees;
  Metrics.add m_shifted_terminals r.stats.shifted_terminals;
  Metrics.add m_nodes_created r.stats.nodes_created;
  Metrics.add m_forks r.stats.forks;
  Metrics.add m_gss_nodes (Gss.allocated () - gss0);
  Metrics.record_peak m_gss_peak r.stats.max_parsers;
  if r.stats.degraded then begin
    Metrics.incr m_degraded;
    Metrics.add m_pruned_parsers r.stats.pruned_parsers
  end

let parse ?(config = default_config) ?(budget = no_budget) ?deadline ?cancel
    table root =
  (match root.Node.kind with
  | Node.Root -> ()
  | _ -> invalid_arg "Glr.parse: not a document root");
  Trace.span Trace.Glr "parse" @@ fun () ->
  process_modifications root;
  let gss0 = Gss.allocated () in
  let deadline =
    match deadline with
    | Some d -> d
    | None ->
        if budget.deadline_ms = infinity then infinity
        else Metrics.now_ms () +. budget.deadline_ms
  in
  let start = Gss.make_node ~state:(Table.start_state table) [] in
  let r = make_run config budget deadline cancel table root start in
  let bos = root.Node.kids.(0) in
  r.stats.max_parsers <- 1;
  (try
     while r.accepting = None do
       parse_next_symbol r
     done
   with (Parse_error _ | Budget_exhausted _) as e ->
     Metrics.incr m_parse_errors;
     record_run r ~gss0;
     raise e);
  (match r.accepting with
  | Some p -> (
      match p.Gss.links with
      | link :: _ ->
          let eos = root.Node.kids.(Array.length root.Node.kids - 1) in
          root.Node.kids <- [| bos; link.Gss.label; eos |];
          Node.refresh_token_count root;
          ignore (Unshare.run root);
          Node.commit root
      | [] -> assert false)
  | None -> assert false);
  record_run r ~gss0;
  r.stats

let parse_tokens ?(config = default_config) ?budget ?deadline ?cancel table
    tokens ~trailing =
  (* The root's kid array [bos; terminals; eos], filled in one pass;
     terminals are made in source order, then eos, then bos. *)
  let n = List.length tokens in
  let kids = ref [||] in
  List.iteri
    (fun i (t : Lexgen.Scanner.token) ->
      let term =
        Node.make_term ~term:t.Lexgen.Scanner.term ~text:t.Lexgen.Scanner.text
          ~trivia:t.Lexgen.Scanner.trivia ~lex_la:t.Lexgen.Scanner.lookahead
      in
      if i = 0 then kids := Array.make (n + 2) term else !kids.(i + 1) <- term)
    tokens;
  let eos = Node.make_eos ~trailing in
  let bos = Node.make_bos () in
  let kids = if n = 0 then [| bos; eos |] else !kids in
  kids.(0) <- bos;
  kids.(n + 1) <- eos;
  let root = Node.make_root kids in
  Node.commit root;
  let stats = parse ~config ?budget ?deadline ?cancel table root in
  (root, stats)
