(* Incremental synthesized attributes, carried by query cells: one
   cell per dag node, keyed by node identity, with the node's
   kid-fingerprint as an input cell — the engine's dependency
   validation replaces the hand-rolled memo table this module used to
   keep.  A retained node's cell validates clean (its fingerprint
   input is unchanged and its kids' cells are clean), so after an edit
   only the damage path recomputes, and early cutoff backdates a
   recomputed attribute whose value came out equal. *)

module Cfg = Grammar.Cfg
module Node = Parsedag.Node

type 'a t = {
  g : Cfg.t;
  leaf : Node.t -> 'a;
  rule : Cfg.production -> 'a array -> 'a;
  choice : 'a array -> 'a;
  engine : Query.t;
  fp_in : int array Query.input;
  attr_q : 'a Query.def;
  nodes : (int, Node.t) Hashtbl.t;  (* nid -> node, for the compute *)
  mutable evaluations : int;
}

let fingerprint_of (n : Node.t) =
  Array.map (fun (k : Node.t) -> k.Node.nid) n.Node.kids

let rec eval t (n : Node.t) =
  Hashtbl.replace t.nodes n.Node.nid n;
  (* Publish the node's current kid fingerprint: a retained choice
     whose interpretations were replaced in place re-evaluates. *)
  Query.set t.engine t.fp_in n.Node.nid (fingerprint_of n);
  Query.fetch t.engine t.attr_q n.Node.nid

and compute t e nid =
  let n = Hashtbl.find t.nodes nid in
  ignore (Query.read e t.fp_in nid);  (* record the fingerprint dep *)
  t.evaluations <- t.evaluations + 1;
  match n.Node.kind with
  | Node.Term _ -> t.leaf n
  | Node.Prod p ->
      t.rule (Cfg.production t.g p) (Array.map (eval t) n.Node.kids)
  | Node.Choice _ -> (
      match Node.chosen n with
      | Some alt -> (* Disambiguated: transparent, per §4.2(d). *) eval t alt
      | None -> t.choice (Array.map (eval t) n.Node.kids))
  | Node.Error _ ->
      (* Isolated error region: no production applies.  Degrade to the
         ambiguity combinator over the raw token values — total, so
         semantic passes survive damaged documents. *)
      t.choice (Array.map (eval t) n.Node.kids)
  | Node.Root -> (
      (* The single top-level subtree between the sentinels. *)
      match
        Array.to_list n.Node.kids
        |> List.filter (fun (k : Node.t) -> not (Node.is_sentinel k))
      with
      | [ top ] -> eval t top
      | _ -> invalid_arg "Attrs.eval: unparsed document root")
  | Node.Bos | Node.Eos _ -> invalid_arg "Attrs.eval: sentinel node"

let create g ~leaf ~rule ~choice =
  let tref = ref None in
  let attr_q =
    Query.define ~name:"attrs.value" (fun e nid ->
        match !tref with
        | Some t -> compute t e nid
        | None -> assert false)
  in
  let t =
    {
      g;
      leaf;
      rule;
      choice;
      engine = Query.create ();
      fp_in = Query.input ~name:"attrs.fp" ();
      attr_q;
      nodes = Hashtbl.create 256;
      evaluations = 0;
    }
  in
  tref := Some t;
  t

let evaluations t = t.evaluations

let reset t =
  Query.clear t.engine;
  Hashtbl.reset t.nodes
