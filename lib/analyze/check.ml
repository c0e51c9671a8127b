module Cfg = Grammar.Cfg
module Table = Lrtab.Table
module Node = Parsedag.Node
module Sequence = Parsedag.Sequence

type violation = { nid : int; rule : string; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "node %d [%s]: %s" v.nid v.rule v.detail

exception Corrupt of violation list

let kind_name (n : Node.t) =
  match n.Node.kind with
  | Node.Term _ -> "term"
  | Node.Prod _ -> "prod"
  | Node.Choice _ -> "choice"
  | Node.Error _ -> "error"
  | Node.Bos -> "bos"
  | Node.Eos _ -> "eos"
  | Node.Root -> "root"

let is_error_kid (k : Node.t) =
  match k.Node.kind with Node.Error _ -> true | _ -> false

let dag ?(allow_pending = false) ?expect_text table root =
  let g = Table.grammar table in
  let num_states = Table.num_states table in
  let vs = ref [] in
  let add (n : Node.t) rule fmt =
    Format.kasprintf
      (fun detail -> vs := { nid = n.Node.nid; rule; detail } :: !vs)
      fmt
  in
  (* The shared "no parent" sentinel stays as [Node] made it: a write to
     it would leak into every dag. *)
  (let o = Node.orphan in
   if
     o.Node.parent != o || o.Node.flags <> 0 || o.Node.tcount <> 0
     || Array.length o.Node.kids <> 0
     || o.Node.state <> Node.nostate
     || match o.Node.kind with Node.Root -> false | _ -> true
   then add o "orphan" "the no-parent sentinel was written to");
  (* Root shape. *)
  (match root.Node.kind with
  | Node.Root ->
      let k = Array.length root.Node.kids in
      if k < 2 then add root "root-shape" "root has %d kid(s), need >= 2" k
      else begin
        (match root.Node.kids.(0).Node.kind with
        | Node.Bos -> ()
        | _ -> add root "root-shape" "first kid is not bos");
        match root.Node.kids.(k - 1).Node.kind with
        | Node.Eos _ -> ()
        | _ -> add root "root-shape" "last kid is not eos"
      end
  | _ -> add root "root-shape" "top node is %s, not root" (kind_name root));
  (match expect_text with
  | None -> ()
  | Some text ->
      let yield = Node.text_yield root in
      if not (String.equal yield text) then
        add root "text-yield" "dag yield %S differs from document text %S"
          yield text);
  let check (n : Node.t) =
    (* Link symmetry: every non-root node hangs off a parent that owns it
       (shared terminals point along the first-alternative spine). *)
    if n != root then begin
      let p = n.Node.parent in
      if not (Node.has_parent n) then
        add n "parent-link" "reachable node has no parent"
      else if not (Array.exists (fun k -> k == n) p.Node.kids) then
        add n "parent-link" "parent %d does not list this node as a kid"
          p.Node.nid;
      match n.Node.kind with
      | Node.Root -> add n "root-shape" "interior node has kind root"
      | Node.Bos | Node.Eos _ ->
          if p != root then add n "sentinel" "sentinel below an interior node"
      | Node.Term _ | Node.Prod _ | Node.Choice _ | Node.Error _ -> ()
    end;
    (* No change bits survive a commit (unless the caller is inspecting a
       mid-recovery dag whose damage is deliberately pending). *)
    if (not allow_pending) && Node.has_changes n then
      add n "change-bits" "change bits set after commit (changed=%b nested=%b)"
        (Node.changed n) (Node.nested n);
    (* Parse-state validity against the table. *)
    if
      n.Node.state <> Node.nostate
      && (n.Node.state < 0 || n.Node.state >= num_states)
    then
      add n "state" "parse state %d outside [0, %d)" n.Node.state num_states;
    (* Cached token counts. *)
    let expected_tcount =
      match n.Node.kind with
      | Node.Term _ -> 1
      | Node.Bos | Node.Eos _ -> 0
      | Node.Choice _ ->
          if Array.length n.Node.kids = 0 then 0
          else n.Node.kids.(0).Node.tcount
      | Node.Prod _ | Node.Error _ | Node.Root ->
          Array.fold_left (fun acc (k : Node.t) -> acc + k.Node.tcount) 0
            n.Node.kids
    in
    if n.Node.tcount <> expected_tcount then
      add n "token-count" "cached count %d, kids imply %d" n.Node.tcount
        expected_tcount;
    match n.Node.kind with
    | Node.Term i ->
        if i.term < 0 || i.term >= Cfg.num_terminals g then
          add n "terminal" "terminal id %d out of range" i.term;
        if Array.length n.Node.kids <> 0 then
          add n "terminal" "terminal with kids"
    | Node.Prod p ->
        if p < 0 || p >= Cfg.num_productions g then
          add n "production" "production id %d out of range" p
        else begin
          (* Error kids are transparent to the grammar: an isolated error
             region spliced among the rhs instances carries extra tokens
             but stands for no rhs symbol. *)
          let rhs = (Cfg.production g p).Cfg.rhs in
          let kids =
            Array.of_list
              (List.filter
                 (fun k -> not (is_error_kid k))
                 (Array.to_list n.Node.kids))
          in
          if Array.length kids <> Array.length rhs then
            add n "production" "%a has %d kid(s), rhs needs %d"
              (Cfg.pp_production g) p (Array.length kids)
              (Array.length rhs)
          else
            Array.iteri
              (fun i (k : Node.t) ->
                let matches =
                  match k.Node.kind, rhs.(i) with
                  | Node.Term ti, Cfg.T t -> ti.term = t
                  | Node.Prod q, Cfg.N m -> (Cfg.production g q).Cfg.lhs = m
                  | Node.Choice ci, Cfg.N m -> ci.Node.nt = m
                  | _ -> false
                in
                if not matches then
                  add n "production" "kid %d (%s) does not match rhs symbol %s"
                    i (kind_name k)
                    (Cfg.symbol_name g rhs.(i)))
              kids
        end
    | Node.Choice ci ->
        let arity = Array.length n.Node.kids in
        if arity < 2 then
          add n "choice" "choice with %d alternative(s), need >= 2" arity;
        if n.Node.state <> Node.nostate then
          add n "choice" "choice carries state %d, must be nostate"
            n.Node.state;
        if ci.Node.selected < -1 || ci.Node.selected >= arity then
          add n "choice" "selected=%d outside [-1, %d)" ci.Node.selected arity;
        Array.iteri
          (fun i (alt : Node.t) ->
            (match alt.Node.kind with
            | Node.Choice _ ->
                add n "choice" "alternative %d is itself a choice" i
            | Node.Prod q ->
                if (Cfg.production g q).Cfg.lhs <> ci.Node.nt then
                  add n "choice"
                    "alternative %d derives '%s', choice phylum is '%s'" i
                    (Cfg.nonterminal_name g (Cfg.production g q).Cfg.lhs)
                    (Cfg.nonterminal_name g ci.Node.nt)
            | _ ->
                add n "choice" "alternative %d has kind %s" i
                  (kind_name alt));
            if i > 0 then begin
              if not (String.equal (Node.text_yield alt)
                        (Node.text_yield n.Node.kids.(0)))
              then
                add n "choice" "alternative %d's yield differs from the first"
                  i;
              if alt.Node.tcount <> n.Node.kids.(0).Node.tcount then
                add n "choice"
                  "alternative %d has %d token(s), the first has %d" i
                  alt.Node.tcount n.Node.kids.(0).Node.tcount
            end;
            for j = i + 1 to arity - 1 do
              if Node.structural_equal alt n.Node.kids.(j) then
                add n "choice" "alternatives %d and %d are structurally equal"
                  i j
            done)
          n.Node.kids
    | Node.Error _ ->
        (* An error node wraps exactly the isolated token run: >= 1
           kids, all raw terminals whose parent is this node (so each
           leaf's parent path reaches its region), count cached as their
           sum; it carries nostate (never reusable by state matching); it
           must not hang under a choice (alternatives must share one
           terminal yield, which a damage region cannot guarantee). *)
        let arity = Array.length n.Node.kids in
        if arity = 0 then add n "error-node" "error node with no kids";
        Array.iteri
          (fun i (k : Node.t) ->
            (match k.Node.kind with
            | Node.Term _ -> ()
            | _ ->
                add n "error-node" "kid %d has kind %s, error kids must be terminals"
                  i (kind_name k));
            if k.Node.parent != n then
              add n "error-node" "kid %d's parent is not this error node" i)
          n.Node.kids;
        if n.Node.state <> Node.nostate then
          add n "error-node" "error node carries state %d, must be nostate"
            n.Node.state;
        (match n.Node.parent.Node.kind with
        | Node.Choice _ ->
            add n "error-node" "error node is a choice alternative"
        | _ -> ())
    | Node.Bos | Node.Eos _ | Node.Root -> ()
  in
  Node.iter check root;
  (* Sequence balance: at every spine root, the flattened view must agree
     with the spine — no element may itself be a node of the spine's own
     sequence nonterminal (a missed spine link), and the elements' tokens
     must be covered by the spine's count.  Checking at the roots only
     walks a spine of length k once, not k times. *)
  Node.iter
    (fun n ->
      match Node.symbol g n with
      | `N nt when Sequence.is_spine_root g n ->
          let elements = Sequence.elements g n in
          List.iteri
            (fun i (e : Node.t) ->
              match Node.symbol g e with
              | `N m when m = nt ->
                  add n "sequence"
                    "element %d of the flattened spine is still a '%s' node" i
                    (Cfg.nonterminal_name g nt)
              | _ -> ())
            elements;
          let etokens =
            List.fold_left (fun acc (e : Node.t) -> acc + e.Node.tcount) 0
              elements
          in
          if etokens > n.Node.tcount then
            add n "sequence"
              "flattened elements carry %d token(s), the spine only %d"
              etokens n.Node.tcount
      | _ -> ())
    root;
  List.rev !vs

let () =
  Printexc.register_printer (function
    | Corrupt vs ->
        Some
          (Format.asprintf "@[<v>parse dag corrupt:@,%a@]"
             (Format.pp_print_list pp_violation)
             vs)
    | _ -> None)

let assert_dag ?allow_pending ?expect_text table root =
  match dag ?allow_pending ?expect_text table root with
  | [] -> ()
  | vs -> raise (Corrupt vs)
