(** The daemon's session pool: one {!Iglr.Session.t} per open document,
    keyed by document id.

    Grammar, LR table and lexer DFA are NOT per-entry state: they come
    from the shared {!Languages.Registry} lazies, constructed once per
    process and shared immutably across every session of a language.

    The table is thread-safe (a mutex guards the map); the sessions
    inside are not — callers must respect the scheduler's per-document
    ordering when touching an entry's session.

    {b Quarantine.}  A session that lets an exception escape a mutating
    entry point (an injected fault, a worker-domain crash mid-parse, an
    engine bug) may hold a half-updated document.  {!poison} marks the
    entry; the engine calls {!heal} on the next request that touches the
    document, replacing the session with a fresh one built from the
    entry's last committed text — the document survives the incident
    with at worst the uncommitted edits of the crashed request lost. *)

type entry = {
  doc : string;
  lang_name : string;
  lang : Languages.Language.t;
  mutable session : Iglr.Session.t;
  mutable committed_text : string;
      (** text as of the last request that completed cleanly — the
          rebuild point after {!poison} *)
  mutable poisoned : bool;
  mutable analysis : Semantics.Diag.t option;
      (** lazily-built incremental semantic analyzer, commit-subscribed
          to the entry's session (typedef decisions included); reset by
          {!heal} because its commit subscription dies with the old
          session *)
}

type t

val create : unit -> t
val add : t -> entry -> unit
val find : t -> string -> entry option
val remove : t -> string -> unit

val ids : t -> string list
(** Open document ids, sorted. *)

val size : t -> int

val poison : t -> string -> unit
(** Mark [doc]'s session as untrustworthy (idempotent; counts
    [server.quarantined] once per incident).  Unknown docs are
    ignored. *)

val poisoned : t -> string list
(** Documents currently quarantined, sorted. *)

val commit_text : entry -> string -> unit
(** Update the entry's rebuild point after a cleanly-completed
    mutating request. *)

val heal : entry -> unit
(** Replace the entry's session with a fresh one parsed from
    [committed_text], under the poisoned session's budget, and clear
    the poison flag.  Must run under the
    scheduler's per-document ordering (it mutates the entry).  Counts
    [server.rebuilt]. *)
