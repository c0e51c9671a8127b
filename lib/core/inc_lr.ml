module Cfg = Grammar.Cfg
module Table = Lrtab.Table
module Node = Parsedag.Node
module Traverse = Parsedag.Traverse

exception Error of { offset_tokens : int; message : string }

(* Per-parse totals folded into the registry once per parse, mirroring
   the IGLR engine's "glr.*" family for the deterministic baseline. *)
let m_parse_span = Metrics.timer "inclr.parse"
let m_parses = Metrics.counter "inclr.parses"
let m_reductions = Metrics.counter "inclr.reductions"
let m_breakdowns = Metrics.counter "inclr.breakdowns"
let m_shifted_subtrees = Metrics.counter "inclr.shifted_subtrees"
let m_shifted_terminals = Metrics.counter "inclr.shifted_terminals"
let m_nodes_created = Metrics.counter "inclr.nodes_created"

let record stats =
  Metrics.incr m_parses;
  Metrics.add m_reductions stats.Glr.reductions;
  Metrics.add m_breakdowns stats.Glr.breakdowns;
  Metrics.add m_shifted_subtrees stats.Glr.shifted_subtrees;
  Metrics.add m_shifted_terminals stats.Glr.shifted_terminals;
  Metrics.add m_nodes_created stats.Glr.nodes_created

let parse table root =
  (match root.Node.kind with
  | Node.Root -> ()
  | _ -> invalid_arg "Inc_lr.parse: not a document root");
  Trace.span Trace.Glr "inclr.parse" @@ fun () ->
  Glr.process_modifications root;
  let t0 = Metrics.start () in
  let g = Table.grammar table in
  let stats = Glr.fresh_stats () in
  stats.Glr.max_parsers <- 1;
  let bos = root.Node.kids.(0) in
  let eos = root.Node.kids.(Array.length root.Node.kids - 1) in
  let stack = ref [ (Table.start_state table, None) ] in
  let top () = fst (List.hd !stack) in
  let cursor = Traverse.cursor_at root in
  let pos = ref 0 in
  let fail message = raise (Error { offset_tokens = !pos; message }) in
  let single_action term =
    match Table.actions table ~state:(top ()) ~term with
    | [ a ] -> Some a
    | [] -> None
    | _ :: _ :: _ -> fail "conflicted entry (grammar not deterministic)"
  in
  let shift target (node : Node.t) =
    node.Node.state <- top ();
    stack := (target, Some node) :: !stack;
    pos := !pos + Node.token_count node;
    Traverse.advance cursor
  in
  let reduce p =
    stats.Glr.reductions <- stats.Glr.reductions + 1;
    let prod = Cfg.production g p in
    let arity = Array.length prod.Cfg.rhs in
    let kids = Array.make (max arity 1) None in
    for i = arity - 1 downto 0 do
      match !stack with
      | (_, node) :: rest ->
          kids.(i) <- node;
          stack := rest
      | [] -> assert false
    done;
    let preceding = top () in
    let kids =
      Array.init arity (fun i ->
          match kids.(i) with Some k -> k | None -> assert false)
    in
    stats.Glr.nodes_created <- stats.Glr.nodes_created + 1;
    let node = Node.make_prod ~prod:p ~state:preceding kids in
    let target = Table.goto table ~state:preceding ~nt:prod.Cfg.lhs in
    if target < 0 then fail "internal: goto undefined";
    stack := (target, Some node) :: !stack
  in
  let result = ref None in
  while !result = None do
    let n = Traverse.current cursor in
    match n.Node.kind with
    | Node.Term i -> (
        match single_action i.Node.term with
        | Some (Table.Shift s) ->
            stats.Glr.shifted_terminals <- stats.Glr.shifted_terminals + 1;
            shift s n
        | Some (Table.Reduce p) -> reduce p
        | Some Table.Accept | None -> fail "syntax error")
    | Node.Eos _ -> (
        match single_action Cfg.eof with
        | Some (Table.Reduce p) -> reduce p
        | Some Table.Accept -> (
            match !stack with
            | (_, Some topnode) :: _ -> result := Some topnode
            | _ -> fail "internal: accept with empty stack")
        | Some (Table.Shift _) | None -> fail "syntax error at end of input")
    | Node.Prod _ | Node.Choice _ -> (
        let subtree_ok =
          (not (Node.has_changes n))
          && n.Node.state = top ()
          &&
          match Node.symbol g n with
          | `N nt -> Table.goto table ~state:(top ()) ~nt >= 0
          | `T _ | `Other -> false
        in
        if subtree_ok then begin
          match Node.symbol g n with
          | `N nt ->
              stats.Glr.shifted_subtrees <- stats.Glr.shifted_subtrees + 1;
              shift (Table.goto table ~state:(top ()) ~nt) n
          | `T _ | `Other -> assert false
        end
        else
          (* Precomputed nonterminal reductions (§3.2) avoid locating the
             following terminal when the decision is uniform. *)
          let nt_red =
            if Node.has_changes n then None
            else
              match Node.symbol g n with
              | `N nt -> (
                  match Table.actions_on_nt table ~state:(top ()) ~nt with
                  | Some [ Table.Reduce p ] -> Some p
                  | _ -> None)
              | `T _ | `Other -> None
          in
          match nt_red with
          | Some p -> reduce p
          | None -> (
              (* Consult the leftmost terminal for the decision; reduce
                 without consuming, otherwise decompose the subtree. *)
              let red = Traverse.peek_terminal cursor in
              let term =
                match red.Node.kind with
                | Node.Term i -> i.Node.term
                | Node.Eos _ -> Cfg.eof
                | _ -> assert false
              in
              match single_action term with
              | Some (Table.Reduce p) -> reduce p
              | Some (Table.Shift _) | Some Table.Accept ->
                  stats.Glr.breakdowns <- stats.Glr.breakdowns + 1;
                  Traverse.descend cursor
              | None -> fail "syntax error"))
    | Node.Error _ ->
        (* Isolated error region: always decompose to its raw tokens. *)
        stats.Glr.breakdowns <- stats.Glr.breakdowns + 1;
        Traverse.descend cursor
    | Node.Bos | Node.Root -> fail "internal: sentinel lookahead"
  done;
  root.Node.kids <- [| bos; Option.get !result; eos |];
  Node.refresh_token_count root;
  Node.commit root;
  record stats;
  Metrics.stop m_parse_span t0;
  stats
