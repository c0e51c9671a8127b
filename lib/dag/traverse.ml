let index_of p n =
  let rec find i =
    if i >= Array.length p.Node.kids then None
    else if p.Node.kids.(i) == n then Some i
    else find (i + 1)
  in
  find 0

let rec pop_lookahead n =
  match n.Node.parent with
  | None -> invalid_arg "Traverse.pop_lookahead: node has no parent"
  | Some p -> (
      match p.Node.kind with
      | Node.Choice _ ->
          (* Alternatives have no mutual siblings: climb past the choice. *)
          pop_lookahead p
      | Node.Term _ | Node.Prod _ | Node.Error _ | Node.Bos | Node.Eos _
      | Node.Root -> (
          match index_of p n with
          | None ->
              invalid_arg "Traverse.pop_lookahead: stale parent pointer"
          | Some i ->
              if i + 1 < Array.length p.Node.kids then p.Node.kids.(i + 1)
              else pop_lookahead p))

let left_breakdown n =
  if Array.length n.Node.kids > 0 then n.Node.kids.(0) else pop_lookahead n

let rec next_terminal n =
  match n.Node.kind with
  | Node.Term _ | Node.Eos _ -> n
  | Node.Bos -> next_terminal (pop_lookahead n)
  | Node.Choice _ | Node.Prod _ | Node.Error _ | Node.Root -> (
      match Node.first_terminal n with
      | Some t -> t
      | None -> next_terminal (pop_lookahead n))

(* The path from the root to the current subtree: one frame per
   ancestor, deepest first; [current] is [kids.(i)] of the head frame.
   Frames are mutable, so a step to the next sibling allocates nothing. *)
type frame = { node : Node.t; mutable i : int }
type cursor = { mutable path : frame list }

let cursor_at root =
  match root.Node.kind with
  | Node.Root -> { path = [ { node = root; i = 1 } ] }
  | _ -> invalid_arg "Traverse.cursor_at: not a document root"

let current c =
  match c.path with
  | f :: _ -> f.node.Node.kids.(f.i)
  | [] -> invalid_arg "Traverse.current: exhausted cursor"

let rec advance c =
  match c.path with
  | [] -> invalid_arg "Traverse.advance: exhausted cursor"
  | f :: rest ->
      (* Alternatives of a choice are not siblings: leaving the first
         alternative leaves the whole choice. *)
      let p = f.node in
      let next_i =
        match p.Node.kind with
        | Node.Choice _ -> Array.length p.Node.kids
        | _ -> f.i + 1
      in
      if next_i < Array.length p.Node.kids then f.i <- next_i
      else begin
        c.path <- rest;
        match rest with
        | [] -> invalid_arg "Traverse.advance: past eos"
        | _ -> advance c
      end

let descend c =
  let n = current c in
  if Array.length n.Node.kids = 0 then
    match n.Node.kind with
    | Node.Term _ | Node.Eos _ ->
        invalid_arg "Traverse.descend: cannot break a terminal down"
    | _ -> advance c (* ε subtree: contributes nothing *)
  else c.path <- { node = n; i = 0 } :: c.path

let peek_terminal c =
  match (current c).Node.kind with
  | Node.Term _ | Node.Eos _ -> current c
  | _ -> (
  match Node.first_terminal (current c) with
  | Some t -> t
  | None ->
      (* Walk a copy of the path forward: [advance] steps frames in
         place, so the probe gets frames of its own. *)
      let probe =
        { path = List.map (fun f -> { node = f.node; i = f.i }) c.path }
      in
      let rec go () =
        advance probe;
        let n = current probe in
        match n.Node.kind with
        | Node.Eos _ -> n
        | _ -> (
            match Node.first_terminal n with Some t -> t | None -> go ())
      in
      go ())
