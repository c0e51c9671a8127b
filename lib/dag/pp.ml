module Cfg = Grammar.Cfg

let node_label g n =
  match n.Node.kind with
  | Node.Term i -> Printf.sprintf "%s %S" (Cfg.terminal_name g i.term) i.text
  | Node.Prod p ->
      let prod = Cfg.production g p in
      Printf.sprintf "%s [p%d]" (Cfg.nonterminal_name g prod.lhs) p
  | Node.Choice c -> Printf.sprintf "amb<%s>" (Cfg.nonterminal_name g c.nt)
  | Node.Error e -> Printf.sprintf "<error %S>" e.message
  | Node.Bos -> "<bos>"
  | Node.Eos _ -> "<eos>"
  | Node.Root -> "<root>"

let pp g ppf root =
  let rec walk indent n =
    Format.fprintf ppf "%s%s" indent (node_label g n);
    if n.Node.state <> Node.nostate then
      Format.fprintf ppf " @%d" n.Node.state;
    if Node.changed n then Format.pp_print_string ppf " *";
    if Node.nested n then Format.pp_print_string ppf " ~";
    Format.pp_print_newline ppf ();
    Array.iter (walk (indent ^ "  ")) n.Node.kids
  in
  walk "" root

let to_sexp g root =
  let buf = Buffer.create 256 in
  let rec walk n =
    match n.Node.kind with
    | Node.Term i -> Buffer.add_string buf (Printf.sprintf "%S" i.text)
    | Node.Bos -> Buffer.add_string buf "<bos>"
    | Node.Eos _ -> Buffer.add_string buf "<eos>"
    | Node.Prod p ->
        let prod = Cfg.production g p in
        Buffer.add_char buf '(';
        Buffer.add_string buf (Cfg.nonterminal_name g prod.lhs);
        Array.iter
          (fun k ->
            Buffer.add_char buf ' ';
            walk k)
          n.Node.kids;
        Buffer.add_char buf ')'
    | Node.Choice _ ->
        Buffer.add_string buf "(amb";
        Array.iter
          (fun k ->
            Buffer.add_char buf ' ';
            walk k)
          n.Node.kids;
        Buffer.add_char buf ')'
    | Node.Error _ ->
        Buffer.add_string buf "(<error>";
        Array.iter
          (fun k ->
            Buffer.add_char buf ' ';
            walk k)
          n.Node.kids;
        Buffer.add_char buf ')'
    | Node.Root ->
        Buffer.add_string buf "(root";
        Array.iter
          (fun k ->
            match k.Node.kind with
            | Node.Bos | Node.Eos _ -> ()
            | _ ->
                Buffer.add_char buf ' ';
                walk k)
          n.Node.kids;
        Buffer.add_char buf ')'
  in
  walk root;
  Buffer.contents buf

let to_dot ?reused g root =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph parsedag {\n  node [fontname=\"monospace\"];\n";
  (* Ids are assigned per call in traversal order, so the output depends
     only on dag shape — stable for golden tests regardless of how many
     nodes the process allocated before. *)
  let ids = Hashtbl.create 64 in
  let fresh = ref 0 in
  let id (n : Node.t) =
    match Hashtbl.find_opt ids n.Node.nid with
    | Some i -> i
    | None ->
        let i = !fresh in
        incr fresh;
        Hashtbl.replace ids n.Node.nid i;
        i
  in
  let seen = Hashtbl.create 64 in
  let rec walk (n : Node.t) =
    if not (Hashtbl.mem seen n.Node.nid) then begin
      Hashtbl.replace seen n.Node.nid ();
      let is_reused = match reused with Some f -> f n | None -> false in
      let attrs =
        match n.Node.kind with
        | Node.Term i ->
            Printf.sprintf "label=%S shape=box style=filled fillcolor=%s"
              i.text
              (if is_reused then "palegreen" else "lightgrey")
        | Node.Prod p ->
            let prod = Cfg.production g p in
            Printf.sprintf "label=%S shape=ellipse%s"
              (Cfg.nonterminal_name g prod.lhs)
              (if is_reused then " style=filled fillcolor=palegreen" else "")
        | Node.Choice ci ->
            Printf.sprintf
              "label=\"%s?\" shape=diamond style=filled fillcolor=gold"
              (Cfg.nonterminal_name g ci.nt)
        | Node.Error _ ->
            "label=\"error\" shape=box style=filled fillcolor=salmon"
        | Node.Bos -> "label=\"bos\" shape=point"
        | Node.Eos _ -> "label=\"eos\" shape=point"
        | Node.Root -> "label=\"root\" shape=plaintext"
      in
      Buffer.add_string buf (Printf.sprintf "  n%d [%s];\n" (id n) attrs);
      Array.iteri
        (fun i k ->
          let style =
            match n.Node.kind with
            | Node.Choice ci when ci.selected >= 0 && i <> ci.selected ->
                " [style=dashed]"
            | Node.Choice _ -> " [style=dotted]"
            | _ -> ""
          in
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> n%d%s;\n" (id n) (id k) style);
          walk k)
        n.Node.kids
    end
  in
  walk root;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
