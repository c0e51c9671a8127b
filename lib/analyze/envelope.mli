(** The [iglr-analysis/1] JSON envelope: the leading fields of every
    machine-readable document the analysis tools emit ([iglrc lint],
    [ambig], [filtcomp], [diag], [parse --stats=json]) and of every
    [iglrd] response, so downstream tooling parses one format. *)

val make :
  tool:string ->
  ?language:string ->
  (string * Metrics.Json.t) list ->
  Metrics.Json.t
(** [make ~tool ?language fields] — the object
    [{schema; tool; language?; fields...}], in that order. *)
