(* Parent links are established as the copy is built: the copy looks
   intact to [Node.commit] (parent set, no change bits), so commit's
   intact-subtree shortcut will not walk into it to repair them. *)
let rec deep_copy n =
  let c =
    match n.Node.kind with
    | Node.Term i ->
        Node.make_term ~term:i.term ~text:i.text ~trivia:i.trivia
          ~lex_la:i.lex_la
    | Node.Prod p ->
        Node.make_prod ~prod:p ~state:n.Node.state
          (Array.map deep_copy n.Node.kids)
    | Node.Choice ci ->
        let c =
          Node.make_choice ~nt:ci.nt (Array.map deep_copy n.Node.kids)
        in
        (match c.Node.kind with
        | Node.Choice ci' -> ci'.selected <- ci.selected
        | _ -> assert false);
        c
    | Node.Error e ->
        Node.make_error ~message:e.message (Array.map deep_copy n.Node.kids)
    | Node.Bos -> Node.make_bos ()
    | Node.Eos e -> Node.make_eos ~trailing:e.trailing
    | Node.Root -> Node.make_root (Array.map deep_copy n.Node.kids)
  in
  Array.iter (fun (k : Node.t) -> k.Node.parent <- c) c.Node.kids;
  c

let m_runs = Metrics.counter "dag.unshare_runs"
let m_copies = Metrics.counter "dag.unshare_copies"

(* Runs before commit: a kid whose parent pointer already points here and
   which carries no change bits is an intact previous-version subtree —
   already unshared by earlier passes — so only the freshly built region
   is walked.  Returns the copies made below [n]. *)
let rec walk seen (n : Node.t) =
  let kids = n.Node.kids in
  let copies = ref 0 in
  for i = 0 to Array.length kids - 1 do
    let k = kids.(i) in
    let intact = k.Node.parent == n && not (Node.has_changes k) in
    if not intact then begin
      if Node.token_count k = 0 && not (Node.is_sentinel k) then
        if Hashtbl.mem seen k.Node.nid then begin
          let copy = deep_copy k in
          kids.(i) <- copy;
          copy.Node.parent <- n;
          incr copies
        end
        else Hashtbl.replace seen k.Node.nid ();
      copies := !copies + walk seen kids.(i)
    end
  done;
  !copies

let run root =
  if Trace.enabled () then Trace.begin_span Trace.Commit "unshare" [];
  let duplicated = walk (Hashtbl.create 64) root in
  Metrics.incr m_runs;
  Metrics.add m_copies duplicated;
  if Trace.enabled () then
    Trace.end_span Trace.Commit "unshare" [ ("copies", Trace.Int duplicated) ];
  duplicated
