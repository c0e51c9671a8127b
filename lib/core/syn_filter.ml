module Cfg = Grammar.Cfg
module Node = Parsedag.Node

type rule =
  | Prefer_production of string
  | Production_priority of (string * int) list
  | Fewest_nodes
  | Custom of (Cfg.t -> Node.t -> int option)

type report = { examined : int; filtered : int; remaining : int }

(* Hot-loop cost of dynamic disambiguation: the whole point of static
   filter compilation is driving these to zero. *)
let m_apply_calls = Metrics.counter "filter.apply_calls"
let m_examined = Metrics.counter "filter.choices_examined"
let m_resolved = Metrics.counter "filter.choices_resolved"

let rule_name = function
  | Prefer_production n -> "prefer-production:" ^ n
  | Production_priority _ -> "production-priority"
  | Fewest_nodes -> "fewest-nodes"
  | Custom _ -> "custom"

let first_kid_nt g (alt : Node.t) =
  match alt.Node.kind with
  | Node.Prod _ when Array.length alt.Node.kids > 0 -> (
      match Node.symbol g alt.Node.kids.(0) with
      | `N nt -> Some (Cfg.nonterminal_name g nt)
      | `T _ | `Other -> None)
  | _ -> None

let operator_of g (alt : Node.t) =
  (* The terminal at the second position of the top production: the
     operator in an infix interpretation. *)
  match alt.Node.kind with
  | Node.Prod _ when Array.length alt.Node.kids >= 2 -> (
      match alt.Node.kids.(1).Node.kind with
      | Node.Term i -> Some (Cfg.terminal_name g i.term)
      | _ -> None)
  | _ -> None

let subtree_size n =
  let count = ref 0 in
  Node.iter (fun _ -> incr count) n;
  !count

let decide g rule (choice : Node.t) =
  let kids = choice.Node.kids in
  match rule with
  | Prefer_production name ->
      let matches =
        Array.to_list (Array.mapi (fun i a -> (i, a)) kids)
        |> List.filter (fun (_, a) -> first_kid_nt g a = Some name)
      in
      (match matches with [ (i, _) ] -> Some i | [] | _ :: _ -> None)
  | Production_priority priorities ->
      let ranked =
        Array.to_list (Array.mapi (fun i a -> (i, a)) kids)
        |> List.filter_map (fun (i, a) ->
               match operator_of g a with
               | Some op -> (
                   match List.assoc_opt op priorities with
                   | Some p -> Some (i, p)
                   | None -> None)
               | None -> None)
      in
      (match List.sort (fun (_, a) (_, b) -> compare b a) ranked with
      | (i, p) :: (_, q) :: _ when p > q -> Some i
      | [ (i, _) ] -> Some i
      | _ -> None)
  | Fewest_nodes ->
      let sized =
        Array.to_list (Array.mapi (fun i a -> (i, subtree_size a)) kids)
      in
      (match List.sort (fun (_, a) (_, b) -> compare a b) sized with
      | (i, s) :: (_, s') :: _ when s < s' -> Some i
      | _ -> None)
  | Custom f -> f g choice

let apply g rules root =
  Metrics.incr m_apply_calls;
  let examined = ref 0 and filtered = ref 0 in
  let rec decide_rules choice = function
    | [] -> None
    | rule :: rest -> (
        match decide g rule choice with
        | Some i -> Some i
        | None -> decide_rules choice rest)
  in
  (* Walk with the parent at hand so resolved choices can be spliced out.
     Syntactically rejected interpretations are discarded (not retained),
     per §4.1. *)
  let rec walk (parent : Node.t) =
    Array.iteri
      (fun slot (k : Node.t) ->
        match k.Node.kind with
        | Node.Choice _ -> (
            incr examined;
            match decide_rules k rules with
            | Some i ->
                let survivor = k.Node.kids.(i) in
                parent.Node.kids.(slot) <- survivor;
                survivor.Node.parent <- parent;
                incr filtered;
                walk survivor
            | None ->
                (* Leave the ambiguity for later stages; process the
                   first alternative's structure. *)
                walk k.Node.kids.(0))
        | Node.Prod _ | Node.Error _ | Node.Root -> walk k
        | Node.Term _ | Node.Bos | Node.Eos _ -> ())
      parent.Node.kids
  in
  walk root;
  Metrics.add m_examined !examined;
  Metrics.add m_resolved !filtered;
  let report =
    { examined = !examined; filtered = !filtered;
      remaining = !examined - !filtered }
  in
  if Trace.enabled () then
    Trace.instant Trace.Filter "apply"
      [
        ("examined", Trace.Int report.examined);
        ("filtered", Trace.Int report.filtered);
        ("remaining", Trace.Int report.remaining);
      ];
  report
