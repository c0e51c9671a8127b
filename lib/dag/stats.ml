type t = {
  total_nodes : int;
  term_nodes : int;
  prod_nodes : int;
  choice_nodes : int;
  choice_alts : int;
  dag_words : int;
  tree_words : int;
  sentential_words : int;
}

(* A heap block's words, header included. *)
let block v = Obj.size (Obj.repr v) + 1

(* The words of the nodes [iter] visits.  A node owns its record, a
   non-empty kid array, its kind's blocks (a [Term]'s inline record; the
   constructor block and record of a [Choice], [Error] or [Eos]; nothing
   for a [Prod], whose value is shared per production) and its strings.
   Spellings such as the empty trivia are shared, so each string counts
   once by physical identity: the runtime's reachability walk over a
   list of them visits a block once, less the list's three-word cells. *)
let words iter =
  let blocks = ref 0 and strings = ref [] in
  iter (fun n ->
      let kind, ss =
        match n.Node.kind with
        | Node.Term i -> (block n.Node.kind, [ i.text; i.trivia ])
        | Node.Choice c -> (block n.Node.kind + block c, [])
        | Node.Error e -> (block n.Node.kind + block e, [ e.message ])
        | Node.Eos e -> (block n.Node.kind + block e, [ e.trailing ])
        | Node.Prod _ | Node.Bos | Node.Root -> (0, [])
      in
      let kids = n.Node.kids in
      let kids = if Array.length kids = 0 then 0 else block kids in
      blocks := !blocks + block n + kids + kind;
      strings := List.rev_append ss !strings);
  !blocks + Obj.reachable_words (Obj.repr !strings) - (3 * List.length !strings)

let measure root =
  let total = ref 0 and terms = ref 0 and prods = ref 0 in
  let choices = ref 0 and alts = ref 0 in
  Node.iter
    (fun n ->
      incr total;
      match n.Node.kind with
      | Node.Term _ -> incr terms
      | Node.Prod _ -> incr prods
      | Node.Choice _ ->
          incr choices;
          alts := !alts + Array.length n.Node.kids
      | Node.Error _ | Node.Bos | Node.Eos _ | Node.Root -> ())
    root;
  (* The disambiguated-tree baseline: walk with each choice node replaced
     by its selected (default: first) alternative. *)
  let tree_nodes = ref 0 in
  let seen = Hashtbl.create 256 in
  let rec walk f n =
    match n.Node.kind with
    | Node.Choice _ -> walk f (Node.alt n)
    | Node.Term _ | Node.Prod _ | Node.Error _ | Node.Bos | Node.Eos _
    | Node.Root ->
        if not (Hashtbl.mem seen n.Node.nid) then begin
          Hashtbl.replace seen n.Node.nid ();
          incr tree_nodes;
          f n;
          Array.iter (walk f) n.Node.kids
        end
  in
  let tree_words = words (fun f -> walk f root) in
  {
    total_nodes = !total;
    term_nodes = !terms;
    prod_nodes = !prods;
    choice_nodes = !choices;
    choice_alts = !alts;
    dag_words = words (fun f -> Node.iter f root);
    tree_words;
    sentential_words = tree_words - !tree_nodes;
  }

let space_overhead_pct t =
  if t.tree_words = 0 then 0.
  else
    float_of_int (t.dag_words - t.tree_words)
    /. float_of_int t.tree_words *. 100.

let state_word_overhead_pct t =
  if t.sentential_words = 0 then 0.
  else
    float_of_int (t.tree_words - t.sentential_words)
    /. float_of_int t.sentential_words *. 100.

let pp ppf t =
  Format.fprintf ppf
    "nodes=%d (term=%d prod=%d choice=%d alts=%d) dag=%dw tree=%dw (+%.2f%%)"
    t.total_nodes t.term_nodes t.prod_nodes t.choice_nodes t.choice_alts
    t.dag_words t.tree_words (space_overhead_pct t)
