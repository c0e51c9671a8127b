(* A miniature IDE loop: after every keystroke-sized edit the document is
   incrementally relexed, reparsed, semantically disambiguated, and an
   attribute (a node count standing in for any synthesized analysis) is
   refreshed — each stage doing work proportional to the damage, not the
   file (§4.2's pass-oriented pipeline, run incrementally).

   Run with:  dune exec examples/ide_session.exe *)

module Session = Iglr.Session
module Language = Languages.Language
module Diag = Semantics.Diag
module Attrs = Semantics.Attrs

let lang = Languages.C_subset.language
let g = lang.Language.grammar

let () =
  let source =
    "typedef int len_t;\n\
     int head () { int i; len_t (n); i = 1; }\n\
     int tail () { int j; j = 2; }\n"
  in
  print_endline "--- the file under edit ---";
  print_string source;
  let session, outcome =
    Session.create ~table:(Language.table lang) ~lexer:(Language.lexer lang)
      source
  in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> failwith "initial parse failed");
  let sem = Diag.create g in
  let nodes =
    Attrs.create g
      ~leaf:(fun _ -> 1)
      ~rule:(fun _ kids -> 1 + Array.fold_left ( + ) 0 kids)
      ~choice:(fun vs -> Array.fold_left max 0 vs)
  in
  let pipeline tag =
    let r = Diag.decide sem (Session.root session) in
    let size = Attrs.eval nodes (Session.root session) in
    Printf.printf
      "%-28s sem: %d decisions (%d flips), attr: %d nodes, %d evaluations\n"
      tag r.Diag.decided r.Diag.reinterpreted size
      (Attrs.evaluations nodes)
  in
  pipeline "initial analysis";

  (* Keystrokes: the user renames "i = 1" to "i = 142", one char at a
     time, reparsing after each. *)
  let eq = ref 0 in
  String.iteri
    (fun i c -> if c = '1' && !eq = 0 then eq := i)
    (Session.text session);
  List.iter
    (fun insert ->
      Session.edit session ~pos:(!eq + 1) ~del:0 ~insert;
      match Session.reparse session with
      | Session.Parsed stats ->
          Printf.printf "keystroke %S: %d nodes rebuilt; " insert
            stats.Iglr.Glr.nodes_created;
          pipeline "after keystroke"
      | Session.Recovered _ -> print_endline "recovered")
    [ "4"; "2" ];

  (* A breaking keystroke and its repair: the session recovers without
     losing the document. *)
  Session.edit session ~pos:0 ~del:0 ~insert:"}";
  (match Session.reparse session with
  | Session.Recovered { flagged; _ } ->
      Printf.printf "stray '}' recovered; %d token(s) flagged\n" flagged
  | Session.Parsed _ -> failwith "expected recovery");
  Session.edit session ~pos:0 ~del:1 ~insert:"";
  (match Session.reparse session with
  | Session.Parsed _ -> pipeline "after repair"
  | Session.Recovered _ -> failwith "repair failed");

  (* Deleting the typedef flips the ambiguous statement from declaration
     to call: the parser reuses the region untouched; only the semantic
     decision is recomputed. *)
  Session.edit session ~pos:0 ~del:19 ~insert:"";
  (match Session.reparse session with
  | Session.Parsed stats ->
      Printf.printf "typedef removed: %d nodes rebuilt; "
        stats.Iglr.Glr.nodes_created;
      pipeline "after typedef removal"
  | Session.Recovered _ -> failwith "reparse failed");

  (* Render the final dag for inspection. *)
  let dot = Parsedag.Pp.to_dot g (Session.root session) in
  Out_channel.with_open_bin "/tmp/parsedag.dot" (fun oc ->
      Out_channel.output_string oc dot);
  Printf.printf "dag written to /tmp/parsedag.dot (%d bytes of dot)\n"
    (String.length dot)
