module Cfg = Grammar.Cfg
module Table = Lrtab.Table
module Node = Parsedag.Node
module Traverse = Parsedag.Traverse

exception Error of { offset_tokens : int; message : string }

(* One single-stack loop for both techniques of §3.2.  [state_matching]
   is the technique itself and decides exactly two things: whether shift
   and reduce record a node state, and how an unmodified subtree
   lookahead is validated (footnote 6). *)
let run ~state_matching table root =
  (match root.Node.kind with
  | Node.Root -> ()
  | _ -> invalid_arg "Inc_lr.parse: not a document root");
  Glr.process_modifications root;
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
    if state_matching then node.Node.state <- top ();
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
    let state = if state_matching then preceding else Node.nostate in
    let node = Node.make_prod ~prod:p ~state kids in
    let target = Table.goto table ~state:preceding ~nt:prod.Cfg.lhs in
    if target < 0 then fail "internal: goto undefined";
    stack := (target, Some node) :: !stack
  in
  let shift_subtree target n =
    stats.Glr.shifted_subtrees <- stats.Glr.shifted_subtrees + 1;
    shift target n
  in
  let breakdown () =
    stats.Glr.breakdowns <- stats.Glr.breakdowns + 1;
    Traverse.descend cursor
  in
  let result = ref None in
  while !result = None do
    let n = Traverse.current cursor in
    match n.Node.kind with
    | Node.Term i -> (
        match single_action i.term with
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
        let nt =
          if Node.has_changes n then None
          else match Node.symbol g n with `N nt -> Some nt | _ -> None
        in
        let goto =
          match nt with
          | Some nt -> Table.goto table ~state:(top ()) ~nt
          | None -> -1
        in
        (* Consult the leftmost terminal for the decision: reduce without
           consuming; on a shift, reuse the subtree whole or decompose it. *)
        let by_terminal ~reuse =
          match single_action (Glr.term_of (Traverse.peek_terminal cursor)) with
          | Some (Table.Reduce p) -> reduce p
          | Some (Table.Shift _) | Some Table.Accept ->
              if reuse then shift_subtree goto n else breakdown ()
          | None -> fail "syntax error"
        in
        if state_matching then
          if goto >= 0 && n.Node.state = top () then shift_subtree goto n
          else
            (* Precomputed nonterminal reductions (§3.2) avoid locating
               the following terminal when the decision is uniform. *)
            match
              Option.bind nt (fun nt ->
                  Table.actions_on_nt table ~state:(top ()) ~nt)
            with
            | Some [ Table.Reduce p ] -> reduce p
            | _ -> by_terminal ~reuse:false
        else
          (* The sentential-form rule: pending reductions fire first, then
             an unmodified subtree is shifted whole whenever the automaton
             accepts its symbol — no recorded state is consulted. *)
          by_terminal ~reuse:(goto >= 0))
    | Node.Error _ ->
        (* Isolated error region: always decompose to its raw tokens. *)
        breakdown ()
    | Node.Bos | Node.Root -> fail "internal: sentinel lookahead"
  done;
  root.Node.kids <- [| bos; Option.get !result; eos |];
  Node.refresh_token_count root;
  Node.commit root;
  stats

let parse table root = run ~state_matching:true table root
let parse_sentential table root = run ~state_matching:false table root
