module Node = Parsedag.Node
module Scanner = Lexgen.Scanner

type result = {
  first : int;
  replaced : int;
  tokens : Scanner.token list;
  trailing : string option;
}

let rec first_above get ~lo ~hi x =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if get mid > x then first_above get ~lo ~hi:mid x
    else first_above get ~lo:(mid + 1) ~hi x

let lex_la (n : Node.t) =
  match n.Node.kind with
  | Node.Term i -> i.lex_la
  | _ -> invalid_arg "Relex: leaf is not a terminal"

let relex ~lexer ~count:n ~leaf ~start ~la_bound ~pos ~del ~insert ~new_text =
  let delta = String.length insert - del in
  (* First leaf whose examined bytes reach the edit.  Leaf [i] ends at
     [start (i+1)]: the first leaf ending past [pos] is damaged, and an
     earlier one only if its lookahead reaches [pos], so the candidates
     are the leaves ending within [la_bound] bytes before it. *)
  let leaf_ending_past x = first_above start ~lo:1 ~hi:(n + 1) x - 1 in
  let at_pos = leaf_ending_past pos in
  let rec find i =
    if i >= at_pos || start (i + 1) + lex_la (leaf i) > pos then i
    else find (i + 1)
  in
  let damage_lo = find (leaf_ending_past (pos - la_bound)) in
  (* Old tokens lying entirely after the edited region start at new-text
     offset [start j + delta]; [j] walks them as the scan advances, and
     the scan resynchronizes when it lands exactly on one. *)
  let rec scan acc cur j =
    if j < n && start j + delta < cur then scan acc cur (j + 1)
    else if j < n && start j + delta = cur then
      {
        first = damage_lo;
        replaced = j - damage_lo;
        tokens = List.rev acc;
        trailing = None;
      }
    else
      match Scanner.next lexer new_text ~pos:cur with
      | Some (tok, cur') -> scan (tok :: acc) cur' j
      | None ->
          (* Only trivia remains: everything to the right of the damage
             is replaced and the document's trailing trivia changes. *)
          {
            first = damage_lo;
            replaced = n - damage_lo;
            tokens = List.rev acc;
            trailing =
              Some (String.sub new_text cur (String.length new_text - cur));
          }
  in
  scan [] (start damage_lo)
    (first_above start ~lo:0 ~hi:n (pos + del - 1))
