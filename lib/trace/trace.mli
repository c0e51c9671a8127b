(** Structured span/instant tracing for the incremental engine.

    Where {!Metrics} answers "how much" in aggregate, this sink answers
    "why did this reparse behave that way": a stream of typed events —
    begin/end spans and instants with monotone timestamps and small
    key/value payloads — recorded into preallocated per-domain ring
    buffers behind a process-global enable flag.  Disabled, every
    emission is a single branch; call sites that would allocate an
    argument list guard on {!enabled} first (the same pattern as
    [lib/metrics]).

    Each domain owns its ring (keyed on the {!Metrics.domain_slot}
    assignment), every event is stamped with the recording domain's id,
    and {!events} merges the rings time-ordered — so concurrent worker
    domains never contend, and the Chrome export shows one Perfetto
    lane per domain.  {!with_request} brackets stamp a request id onto
    every event recorded inside, attributing the merged stream back to
    individual RPCs.

    Consumers: {!Export.to_chrome} (Perfetto / [chrome://tracing] JSON),
    {!to_legacy_string} (the Appendix B action-trace strings the retired
    [Glr.config.trace] callback produced), {!Explain} (per-edit reuse
    breakdowns) and {!Check.well_formed} (stream invariants for tests). *)

(** Event categories, one per instrumented subsystem: initial lexing,
    incremental relexing, the GLR engine, the graph-structured stack,
    subtree-reuse decisions, dag commit/unshare maintenance, syntactic
    filters, session-level root spans, and the incremental semantic
    query engine. *)
type cat = Lex | Relex | Glr | Gss | Reuse | Commit | Filter | Session | Query

val cat_name : cat -> string

type arg = Int of int | Str of string | Bool of bool

type phase = Begin | End | Instant

type event = {
  seq : int;  (** per-domain emission index (dense, increasing) *)
  ts : float;
      (** seconds; monotone non-decreasing across the stream.  Only
          [Begin] and [End] read the clock: an [Instant] carries the
          previous timestamp of its domain's stream (the clock only for
          a domain's first event). *)
  did : int;  (** id of the domain that recorded the event *)
  phase : phase;
  cat : cat;
  name : string;
  args : (string * arg) list;
}

(** {1 The sink} *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Enabling allocates the ring (once per capacity change); disabling
    keeps recorded events readable. *)

val set_capacity : int -> unit
(** Per-domain ring capacity in events (default 65536).  On overflow the
    oldest events of that domain are overwritten and counted by
    {!dropped}. *)

val clear : unit -> unit
(** Drop all recorded events (per-edit isolation in tests and [iglrc
    explain]). *)

val recorded : unit -> int
(** Events emitted since the last {!clear} (including overwritten ones). *)

val dropped : unit -> int
(** Events lost to ring overflow since the last {!clear}. *)

(** {1 Emission} — no-ops (one branch) when disabled. *)

val instant : cat -> string -> (string * arg) list -> unit
val begin_span : cat -> string -> (string * arg) list -> unit
val end_span : cat -> string -> (string * arg) list -> unit

val span : cat -> string -> (unit -> 'a) -> 'a
(** Exception-safe begin/end bracket; an escaping exception is recorded
    on the end event as [exception=true]. *)

(** {1 Request correlation} *)

val with_request : string -> (unit -> 'a) -> 'a
(** [with_request rid f] — every event recorded by [f] on this domain
    carries an extra [("rid", Str rid)] argument.  Brackets nest
    (restores the previous id); a no-op (one branch) when disabled. *)

(** {1 Reading the stream} *)

val events : unit -> event list
(** Retained events across every domain's ring, merged and
    time-ordered (ties break on domain id, then per-domain sequence,
    so each domain's substream keeps its emission order). *)

val str_arg : string -> event -> string option
val int_arg : string -> event -> int option

val pp_event : Format.formatter -> event -> unit

val to_legacy_string : event -> string option
(** Compatibility pretty-printer: renders [glr.reduce], [glr.shift],
    [gss.pack] and [gss.merge] events as the strings the old
    [Glr.config.trace : string -> unit] callback produced ("reduce: U ->
    x (target state 3)", "amb: symbol node for stmt (2
    interpretations)", ...); [None] for every other event.  A shifted
    terminal renders as before ("shift: \" x\" -> 1 parser(s)", its
    trivia and text cut at 24 bytes); a subtree shifted whole carries its
    symbol and size instead of its text ("shift: stmt (8 tokens) -> 1
    parser(s)"), so labelling it never walks its leaves. *)

module Export : sig
  val to_chrome : event list -> Metrics.Json.t
  (** Chrome trace-event JSON ([traceEvents] array with [B]/[E]/[i]
      phases, microsecond timestamps rebased on the first event, and
      [tid] = recording domain id — one Perfetto lane per domain);
      loadable in Perfetto and [chrome://tracing]. *)
end

module Check : sig
  val well_formed : event list -> string list
  (** Stream invariants: timestamps non-decreasing across the merged
      stream, begin/end spans balanced with strict stack discipline
      *per domain* (a span begins and ends on the domain that executes
      it).  Returns violation messages; empty = well-formed.
      Meaningless after ring overflow — check {!dropped} first. *)
end

module Explain : sig
  (** One subtree-reuse decision extracted from the stream. *)
  type subtree = {
    symbol : string;
    tok_from : int;  (** token offset where the decision was taken *)
    tokens : int;  (** yield length of the candidate subtree *)
    reason : string;  (** slug: "reused", "pending-edit", "state-mismatch", ... *)
    detail : string;  (** the same reason as a sentence *)
  }

  type t = {
    tokens_relexed : int;
    tokens_reused : int;
    accepted : subtree list;  (** subtrees shifted whole, input order *)
    rebuilt : subtree list;  (** candidates decomposed instead, input order *)
    reductions : int;
    reparse_ms : float option;  (** from the session root span, if present *)
  }

  val of_events : event list -> t
  (** Fold one edit's event stream into a reuse breakdown: every rebuilt
      subtree is attributed to the concrete reason its reuse candidate
      was rejected. *)
end
