module Cfg = Grammar.Cfg

let role g p = (Cfg.production g p).Cfg.role

let is_sequence g (n : Node.t) =
  match n.Node.kind with
  | Node.Prod p -> Cfg.seq_kind g (Cfg.production g p).Cfg.lhs = Cfg.Seq
  | Node.Choice ci -> Cfg.seq_kind g ci.Node.nt = Cfg.Seq
  | _ -> false

let is_spine_root g (n : Node.t) =
  is_sequence g n
  &&
  let p = n.Node.parent in
  match p.Node.kind with
  | Node.Prod q ->
      not (role g q = Cfg.Seq_cons && is_sequence g p && p.Node.kids.(0) == n)
  | _ -> true

let rec is_element g (n : Node.t) =
  let p = n.Node.parent in
  match p.Node.kind with
  | Node.Choice _ -> is_element g p
  | Node.Prod q -> (
      is_sequence g p
      &&
      match role g q with
      | Cfg.Seq_one | Cfg.Seq_cons ->
          Array.length p.Node.kids > 0
          && p.Node.kids.(Array.length p.Node.kids - 1) == n
      | Cfg.Seq_empty | Cfg.Plain -> false)
  | _ -> false

type step = Choice | Skip | Element

(* The spine is left-recursive: descend its cons chain first, reporting
   each choice before following it.  Every spine node covers a prefix of
   the elements, so the chain's choices come before any element, as
   document order has it.  Then the bottom's kids and each cons node's
   kids past the list, innermost cons first. *)
let walk g top f =
  let rec down (n : Node.t) conses =
    match n.Node.kind with
    | Node.Choice _ ->
        f Choice n;
        down (Node.alt n) conses
    | Node.Prod p when role g p = Cfg.Seq_cons ->
        down n.Node.kids.(0) (n :: conses)
    | _ -> (n, conses)
  in
  let bottom, conses = down top [] in
  (* The element is the last kid; separators and spliced error nodes sit
     between [first] and it. *)
  let kids first (n : Node.t) =
    let kids = n.Node.kids in
    let last = Array.length kids - 1 in
    for i = first to last - 1 do
      f Skip kids.(i)
    done;
    f Element kids.(last)
  in
  (match bottom.Node.kind with
  | Node.Prod p -> (
      match role g p with
      | Cfg.Seq_one -> kids 0 bottom
      | Cfg.Seq_empty | Cfg.Seq_cons -> ()
      | Cfg.Plain -> Array.iter (f Skip) bottom.Node.kids)
  | Node.Error _ -> f Element bottom
  | _ -> f Skip bottom);
  List.iter (kids 1) conses

let elements g node =
  let top = Node.alt node in
  if not (is_sequence g top) then [ top ]
  else begin
    let acc = ref [] in
    walk g top (fun step n ->
        if step = Element then acc := Node.alt n :: !acc);
    List.rev !acc
  end
