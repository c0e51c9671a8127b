(** The [iglrd] wire protocol: newline-delimited JSON-RPC under the
    [iglr-analysis/1] envelope ({!Analyze.Envelope}) shared with [iglrc
    lint]/[ambig]/[filtcomp]/[diag].

    One request per line, one response per line.  Requests:

    {v
    {"id": 1, "method": "open",
     "params": {"doc": "a.c", "lang": "c", "text": "...",
                "budget": {"deadline_ms": 50}}}
    v}

    Responses echo the request id inside the envelope (its [schema]
    field elided here):

    {v
    {"schema": ..., "tool": "iglrd", "id": 1, "result": {...}}
    {"schema": ..., "tool": "iglrd", "id": null,
     "error": {"code": -32700, "message": "..."}}
    v}

    Every failure — malformed JSON, unknown method or document, a lexer
    rejecting an edit, an uncaught handler exception — comes back as a
    structured [error] envelope; the daemon never drops a request or
    lets an exception cross the wire. *)

module Json = Metrics.Json

type edit_op = { pos : int; del : int; insert : string }

type request =
  | Open of {
      doc : string;
      lang : string;
      text : string;
      budget : Iglr.Glr.budget option;
    }
  | Edit of { doc : string; edits : edit_op list }
      (** Textual edits only — no reparse.  Consecutive [Edit] requests
          coalesce in the document's pending-change bits until the next
          [Parse] pays for a single incremental reparse. *)
  | Parse of {
      doc : string;
      budget : Iglr.Glr.budget option;
      timing : bool;
      metrics : bool;
          (** attach the request's exact domain-local metric delta
              ({!Iglr.Session.measure}) to the response *)
    }
  | Errors of { doc : string }
  | Diag of { doc : string; metrics : bool }
      (** Semantic diagnostics from the incremental query layer on the
          committed dag: name resolution, unused bindings,
          use-before-declaration, type mismatches.  [metrics] attaches
          the request's exact domain-local metric delta
          ({!Iglr.Session.measure}) — the [query.*] counters show how
          much of the analysis was reused. *)
  | Ambig of { doc : string; max_len : int }
  | Stats of { doc : string option; metrics : bool }
  | Telemetry of { view : string }
      (** Server-scoped observability: [view] is ["health"] (live docs,
          queue depths, reorder-buffer depth, domain utilisation, trace
          drops), ["metrics"] (OpenMetrics text of the merged registry)
          or ["flight"] (the slow-request flight recorder). *)
  | Close of { doc : string }

val doc_of : request -> string option
(** The document a request addresses; [None] for server-scoped
    requests (a doc-less [Stats], [Telemetry]). *)

type rpc_error = { code : int; message : string }

(** {1 Error codes} — JSON-RPC reserved codes plus application codes. *)

val e_parse : int  (** -32700: line is not valid JSON *)

val e_invalid_request : int  (** -32600: not an object / missing method *)

val e_method : int  (** -32601: unknown method *)

val e_params : int  (** -32602: missing or ill-typed params *)

val e_internal : int  (** -32603: uncaught exception in the handler *)

val e_unknown_doc : int  (** -32001 *)

val e_doc_exists : int  (** -32002 *)

val e_unknown_lang : int  (** -32003 *)

val e_lex : int  (** -32004: an edit produced unscannable text *)

val e_payload : int  (** -32005: request line exceeds the payload cap *)

val e_worker : int
(** -32006: the worker domain executing the request crashed; the job
    was not retried (it had already started, or a retry also crashed) *)

val e_overloaded : int
(** -32007: request shed by bounded admission — the per-document or
    global queue limit was reached *)

val e_shutting_down : int
(** -32008: the engine is draining for shutdown and admits no new
    requests *)

val e_unsupported : int
(** -32009: the request's analysis is not available for the document's
    language (e.g. [diag] on a language without semantic analysis) *)

(** {1 Decoding} *)

val decode : string -> (Json.t * request, Json.t * rpc_error) result
(** [decode line] — parse one request line.  The [Json.t] component is
    the request id ([Null] when absent or undecodable), echoed in the
    response either way. *)

val budget_of_json : Json.t -> Iglr.Glr.budget
(** Partial budget object ([max_parsers]/[max_nodes]/[deadline_ms]);
    absent fields keep {!Iglr.Glr.no_budget}'s values. *)

(** {1 Encoding} *)

val ok : ?req:int -> id:Json.t -> Json.t -> string
(** One response line (no trailing newline): result envelope.  [req] is
    the server-assigned request sequence number — the correlation id the
    response shares with every trace span and access-log line of the
    same RPC; it rides in the envelope as a ["req"] field next to the
    client-chosen [id]. *)

val err : ?req:int -> id:Json.t -> rpc_error -> string

val outcome_to_json : Iglr.Session.outcome -> Json.t
(** [{"status":"parsed",...stats}] or [{"status":"recovered",...}]. *)

val edit_to_json : edit_op -> Json.t
(** One entry of an [edit] request's [edits] list. *)

val regions_to_json : Iglr.Session.region list -> Json.t
