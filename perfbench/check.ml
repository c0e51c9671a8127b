(* Correctness checks on the daemon's answers, run after the timed
   phase: the daemon must agree with the library computing from
   scratch. *)

module Json = Metrics.Json
module Session = Iglr.Session
module Registry = Languages.Registry
module Diag = Semantics.Diag

let lang_of name =
  match Registry.find name with
  | Some l -> l
  | None -> failwith ("unknown language " ^ name)

(* The parts of a [diag] answer that depend only on the text, built the
   way the daemon renders them. *)
let diag_view s (r : Diag.result) =
  Json.Obj
    [
      ( "diagnostics",
        Json.List
          (List.map
             (fun (d : Diag.diag) ->
               let l = Session.location_of_token s d.Diag.d_token in
               Json.Obj
                 [
                   ("code", Json.String d.Diag.d_code);
                   ("line", Json.Int l.Session.line);
                   ("col", Json.Int l.Session.col);
                   ("token", Json.Int d.Diag.d_token);
                   ("message", Json.String d.Diag.d_message);
                 ])
             r.Diag.diags) );
      ( "bindings",
        Json.List
          (List.map
             (fun (b : Diag.binding) ->
               Json.Obj
                 [
                   ("name", Json.String b.Diag.b_name);
                   ("kind", Json.String (Diag.kind_name b.Diag.b_kind));
                   ("type", Json.String (Diag.ty_name b.Diag.b_ty));
                 ])
             r.Diag.bindings) );
      ("typedefs", Json.List (List.map (fun n -> Json.String n) r.Diag.typedefs));
    ]

(* A fresh session and fresh analyzers over [text]. *)
let scratch_view lang text =
  let l = lang_of lang in
  let s, _ = Replay.open_session l text in
  diag_view s (Replay.run_diag (Replay.analysis l s) s)

let answer_view json =
  let field k j =
    match Json.member k j with Some v -> v | None -> failwith ("answer lacks " ^ k)
  in
  let result = field "result" json in
  Json.Obj
    (List.map (fun k -> (k, field k result)) [ "diagnostics"; "bindings"; "typedefs" ])

(* From-scratch analyses, by (language, text). *)
let oracle = Hashtbl.create 16

let mismatch fmt = Printf.ksprintf (fun s -> raise (Daemon.Mismatch s)) fmt
let excerpt line = String.sub line 0 (min 200 (String.length line))

(* A response line as JSON, if it answers [r]. *)
let envelope (r : Gen.req) line =
  let json =
    match Json.of_string line with
    | j -> j
    | exception _ -> mismatch "malformed response to request %d" r.Gen.id
  in
  (match Option.bind (Json.member "id" json) Json.to_int with
  | Some id when id = r.Gen.id -> ()
  | Some id -> mismatch "response id %d where request %d was due" id r.Gen.id
  | None -> mismatch "response without an id where request %d was due" r.Gen.id);
  json

let is_error json = Json.member "error" json <> None

(* Every request got one response, in request order, with its id
   echoed ([answers] pairs each request with the line that arrived in
   its place); every [diag] answer with an expected analysis equals the
   from-scratch analysis of that text.  Returns the number of error
   envelopes. *)
let answers answers =
  List.fold_left
    (fun errors ((r : Gen.req), line) ->
      let json = envelope r line in
      (match r.Gen.expect with
      | Some (lang, text) ->
          let want =
            match Hashtbl.find_opt oracle (lang, text) with
            | Some v -> v
            | None ->
                let v = scratch_view lang text in
                Hashtbl.replace oracle (lang, text) v;
                v
          in
          if is_error json || answer_view json <> want then
            mismatch "diag answer differs from the scratch analysis: %s" (excerpt line)
      | None -> ());
      if is_error json then errors + 1 else errors)
    0 answers

(* Every open document parses clean in the daemon, with the token count
   of a batch parse of the text the generator expects. *)
let documents daemon fresh (docs : Gen.doc list) =
  List.iter
    (fun (d : Gen.doc) ->
      let r = Gen.doc_req fresh "stats" d in
      let line = Daemon.call daemon r in
      let result =
        match Json.member "result" (envelope r line) with
        | Some v -> v
        | None -> mismatch "%s: stats failed: %s" d.Gen.name (excerpt line)
      in
      let tokens = Option.bind (Json.member "tokens" result) Json.to_int in
      let errs = Option.bind (Json.member "has_errors" result) Json.to_bool in
      let s, outcome = Replay.open_session (lang_of d.Gen.lang) d.Gen.text in
      let want = Parsedag.Node.token_count (Session.root s) in
      (match outcome with
      | Session.Parsed _ -> ()
      | Session.Recovered _ -> mismatch "expected text of %s does not parse" d.Gen.name);
      if tokens <> Some want || errs <> Some false then
        mismatch "%s: daemon has %s tokens (errors %s), batch parse %d" d.Gen.name
          (match tokens with Some n -> string_of_int n | None -> "?")
          (match errs with Some b -> string_of_bool b | None -> "?")
          want)
    docs
