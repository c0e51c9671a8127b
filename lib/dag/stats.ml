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

(* Header: kind tag, state, parent pointer, flags/length. *)
let header_words = 4
let words_of_string s = 1 + ((String.length s + 7) / 8)

let node_words n =
  let kids = Array.length n.Node.kids in
  let payload =
    match n.Node.kind with
    | Node.Term i -> words_of_string i.text + words_of_string i.trivia
    | Node.Eos e -> words_of_string e.trailing
    | Node.Error e -> words_of_string e.message
    | Node.Prod _ | Node.Choice _ | Node.Bos | Node.Root -> 0
  in
  header_words + kids + payload

let measure root =
  let total = ref 0 and terms = ref 0 and prods = ref 0 in
  let choices = ref 0 and alts = ref 0 in
  let dag_words = ref 0 in
  Node.iter
    (fun n ->
      incr total;
      dag_words := !dag_words + node_words n;
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
  let tree_words = ref 0 in
  let tree_nodes = ref 0 in
  let seen = Hashtbl.create 256 in
  let rec walk n =
    match n.Node.kind with
    | Node.Choice _ -> (
        match Node.chosen n with
        | Some alt -> walk alt
        | None -> walk n.Node.kids.(0))
    | Node.Term _ | Node.Prod _ | Node.Error _ | Node.Bos | Node.Eos _
    | Node.Root ->
        if not (Hashtbl.mem seen n.Node.nid) then begin
          Hashtbl.replace seen n.Node.nid ();
          incr tree_nodes;
          tree_words := !tree_words + node_words n;
          Array.iter walk n.Node.kids
        end
  in
  walk root;
  {
    total_nodes = !total;
    term_nodes = !terms;
    prod_nodes = !prods;
    choice_nodes = !choices;
    choice_alts = !alts;
    dag_words = !dag_words;
    tree_words = !tree_words;
    sentential_words = !tree_words - !tree_nodes;
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
