module Json = Metrics.Json
module Glr = Iglr.Glr
module Session = Iglr.Session

type edit_op = { pos : int; del : int; insert : string }

type request =
  | Open of {
      doc : string;
      lang : string;
      text : string;
      budget : Glr.budget option;
    }
  | Edit of { doc : string; edits : edit_op list }
  | Parse of {
      doc : string;
      budget : Glr.budget option;
      timing : bool;
      metrics : bool;
    }
  | Errors of { doc : string }
  | Diag of { doc : string; metrics : bool }
  | Ambig of { doc : string; max_len : int }
  | Stats of { doc : string option; metrics : bool }
  | Telemetry of { view : string }
  | Close of { doc : string }

let doc_of = function
  | Open { doc; _ }
  | Edit { doc; _ }
  | Parse { doc; _ }
  | Errors { doc }
  | Diag { doc; _ }
  | Ambig { doc; _ }
  | Close { doc } ->
      Some doc
  | Stats { doc; _ } -> doc
  | Telemetry _ -> None

type rpc_error = { code : int; message : string }

let e_parse = -32700
let e_invalid_request = -32600
let e_method = -32601
let e_params = -32602
let e_internal = -32603
let e_unknown_doc = -32001
let e_doc_exists = -32002
let e_unknown_lang = -32003
let e_lex = -32004
let e_payload = -32005
let e_worker = -32006
let e_overloaded = -32007
let e_shutting_down = -32008
let e_unsupported = -32009

(* ------------------------------------------------------------------ *)
(* Decoding.                                                           *)

exception Bad of rpc_error

let bad code fmt = Printf.ksprintf (fun message -> raise (Bad { code; message })) fmt

let str_field name obj =
  match Option.bind (Json.member name obj) Json.to_str with
  | Some s -> s
  | None -> bad e_params "missing or non-string param %S" name

let int_field ~default name obj =
  match Json.member name obj with
  | None -> default
  | Some j -> (
      match Json.to_int j with
      | Some i -> i
      | None -> bad e_params "param %S must be an integer" name)

let bool_field ~default name obj =
  match Json.member name obj with
  | None -> default
  | Some j -> (
      match Json.to_bool j with
      | Some b -> b
      | None -> bad e_params "param %S must be a boolean" name)

let budget_of_json j =
  let base = Glr.no_budget in
  let get name default conv =
    match Json.member name j with
    | None -> default
    | Some v -> (
        match conv v with
        | Some x -> x
        | None -> bad e_params "budget field %S is ill-typed" name)
  in
  {
    Glr.max_parsers = get "max_parsers" base.Glr.max_parsers Json.to_int;
    max_nodes = get "max_nodes" base.Glr.max_nodes Json.to_int;
    deadline_ms = get "deadline_ms" base.Glr.deadline_ms Json.to_float;
  }

let budget_field obj =
  match Json.member "budget" obj with
  | None -> None
  | Some (Json.Obj _ as j) -> Some (budget_of_json j)
  | Some _ -> bad e_params "param \"budget\" must be an object"

let req_int name obj =
  match Option.bind (Json.member name obj) Json.to_int with
  | Some i -> i
  | None -> bad e_params "missing or non-integer param %S" name

let edit_of_json = function
  | Json.Obj _ as j ->
      {
        pos = req_int "pos" j;
        del = int_field ~default:0 "del" j;
        insert =
          (match Option.bind (Json.member "insert" j) Json.to_str with
          | Some s -> s
          | None -> "");
      }
  | _ -> bad e_params "each edit must be an object"

let request_of ~meth ~params =
  match meth with
  | "open" ->
      Open
        {
          doc = str_field "doc" params;
          lang = str_field "lang" params;
          text = str_field "text" params;
          budget = budget_field params;
        }
  | "edit" -> (
      match Json.member "edits" params with
      | Some (Json.List es) ->
          Edit { doc = str_field "doc" params; edits = List.map edit_of_json es }
      | Some _ -> bad e_params "param \"edits\" must be a list"
      | None -> bad e_params "missing param \"edits\"")
  | "parse" ->
      Parse
        {
          doc = str_field "doc" params;
          budget = budget_field params;
          timing = bool_field ~default:false "timing" params;
          metrics = bool_field ~default:false "metrics" params;
        }
  | "errors" -> Errors { doc = str_field "doc" params }
  | "diag" ->
      Diag
        {
          doc = str_field "doc" params;
          metrics = bool_field ~default:false "metrics" params;
        }
  | "ambig" ->
      Ambig
        {
          doc = str_field "doc" params;
          max_len = int_field ~default:5 "max_len" params;
        }
  | "stats" ->
      let doc = Option.bind (Json.member "doc" params) Json.to_str in
      let metrics = bool_field ~default:false "metrics" params in
      (* The registry is process-wide: no per-document share of it is
         kept, so a document's metrics are per request. *)
      if doc <> None && metrics then
        bad e_params
          "stats has no per-document metrics; ask parse or diag with \
           metrics:true";
      Stats { doc; metrics }
  | "telemetry" -> (
      let view =
        match Json.member "view" params with
        | None -> "health"
        | Some j -> (
            match Json.to_str j with
            | Some s -> s
            | None -> bad e_params "param %S must be a string" "view")
      in
      match view with
      | "health" | "metrics" | "flight" -> Telemetry { view }
      | other ->
          bad e_params
            "unknown telemetry view %S (expected health, metrics or flight)"
            other)
  | "close" -> Close { doc = str_field "doc" params }
  | other -> bad e_method "unknown method %S" other

let decode line =
  match Json.of_string line with
  | exception Json.Parse msg ->
      Error (Json.Null, { code = e_parse; message = "malformed JSON: " ^ msg })
  | Json.Obj _ as obj -> (
      let id = Option.value (Json.member "id" obj) ~default:Json.Null in
      match Option.bind (Json.member "method" obj) Json.to_str with
      | None ->
          Error
            (id, { code = e_invalid_request; message = "missing \"method\"" })
      | Some meth -> (
          let params =
            Option.value (Json.member "params" obj) ~default:(Json.Obj [])
          in
          match params with
          | Json.Obj _ -> (
              try Ok (id, request_of ~meth ~params)
              with Bad e -> Error (id, e))
          | _ ->
              Error
                (id, { code = e_params; message = "\"params\" must be an object" })
          ))
  | _ ->
      Error
        ( Json.Null,
          { code = e_invalid_request; message = "request must be a JSON object" }
        )

(* ------------------------------------------------------------------ *)
(* Encoding.                                                           *)

(* [req] is the server-assigned request sequence number — the
   correlation id every response, trace span and access-log line of one
   RPC shares.  The client-chosen [id] still echoes alongside it. *)
let envelope ?req ~id body =
  Json.to_line
    (Analyze.Envelope.make ~tool:"iglrd"
       ((("id", id)
        :: (match req with None -> [] | Some r -> [ ("req", Json.Int r) ]))
       @ body))

let ok ?req ~id result = envelope ?req ~id [ ("result", result) ]

let err ?req ~id { code; message } =
  envelope ?req ~id
    [
      ( "error",
        Json.Obj [ ("code", Json.Int code); ("message", Json.String message) ]
      );
    ]

let outcome_to_json = function
  | Session.Parsed (st : Glr.stats) ->
      Json.Obj
        [
          ("status", Json.String "parsed");
          ("shifted_subtrees", Json.Int st.Glr.shifted_subtrees);
          ("shifted_terminals", Json.Int st.Glr.shifted_terminals);
          ("reductions", Json.Int st.Glr.reductions);
          ("breakdowns", Json.Int st.Glr.breakdowns);
          ("nodes_created", Json.Int st.Glr.nodes_created);
          ("degraded", Json.Bool st.Glr.degraded);
        ]
  | Session.Recovered { flagged; isolated; degraded; error; location } ->
      Json.Obj
        [
          ("status", Json.String "recovered");
          ("flagged", Json.Int flagged);
          ("isolated", Json.Int isolated);
          ("degraded", Json.Bool degraded);
          ("message", Json.String error.Glr.message);
          ("offset_tokens", Json.Int location.Session.offset_tokens);
          ("line", Json.Int location.Session.line);
          ("col", Json.Int location.Session.col);
        ]

let edit_to_json { pos; del; insert } =
  Json.Obj
    [
      ("pos", Json.Int pos);
      ("del", Json.Int del);
      ("insert", Json.String insert);
    ]

let regions_to_json regions =
  Json.List
    (List.map
       (fun (r : Session.region) ->
         Json.Obj
           [
             ("line", Json.Int r.Session.r_start.Session.line);
             ("col", Json.Int r.Session.r_start.Session.col);
             ("byte_start", Json.Int r.Session.r_start.Session.offset_bytes);
             ("byte_end", Json.Int r.Session.r_end_byte);
             ("tokens", Json.Int r.Session.r_tokens);
             ("message", Json.String r.Session.r_message);
           ])
       regions)
