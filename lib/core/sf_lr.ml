module Cfg = Grammar.Cfg
module Table = Lrtab.Table
module Node = Parsedag.Node
module Traverse = Parsedag.Traverse

exception Error of { offset_tokens : int; message : string }

let usable = Table.is_deterministic

let parse table root =
  (match root.Node.kind with
  | Node.Root -> ()
  | _ -> invalid_arg "Sf_lr.parse: not a document root");
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
    | _ :: _ :: _ ->
        fail "conflicted entry (sentential-form parsing needs determinism)"
  in
  let shift target (node : Node.t) =
    (* No state recording: reuse validity comes from the grammar. *)
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
    let node = Node.make_prod ~prod:p ~state:Node.nostate kids in
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
        (* The sentential-form rule: pending reductions (decided by the
           leftmost terminal) fire first; then an unmodified subtree is
           shifted whole whenever the automaton accepts its symbol. *)
        let symbol_nt =
          match Node.symbol g n with
          | `N nt -> Some nt
          | `T _ | `Other -> None
        in
        let red = Traverse.peek_terminal cursor in
        let term =
          match red.Node.kind with
          | Node.Term i -> i.Node.term
          | Node.Eos _ -> Cfg.eof
          | _ -> assert false
        in
        match single_action term with
        | Some (Table.Reduce p) -> reduce p
        | Some (Table.Shift _) | Some Table.Accept -> (
            match symbol_nt with
            | Some nt
              when (not (Node.has_changes n))
                   && Table.goto table ~state:(top ()) ~nt >= 0 ->
                stats.Glr.shifted_subtrees <- stats.Glr.shifted_subtrees + 1;
                shift (Table.goto table ~state:(top ()) ~nt) n
            | _ ->
                stats.Glr.breakdowns <- stats.Glr.breakdowns + 1;
                Traverse.descend cursor)
        | None -> fail "syntax error")
    | Node.Error _ ->
        (* Isolated error region: always decompose to its raw tokens. *)
        stats.Glr.breakdowns <- stats.Glr.breakdowns + 1;
        Traverse.descend cursor
    | Node.Bos | Node.Root -> fail "internal: sentinel lookahead"
  done;
  root.Node.kids <- [| bos; Option.get !result; eos |];
  Node.refresh_token_count root;
  Node.commit root;
  stats
