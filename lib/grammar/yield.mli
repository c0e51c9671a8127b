(** Sentence generation from a grammar: shortest terminal yields, bounded
    sentence enumeration, and minimal surrounding contexts.

    This is the single home for yield expansion — lint's productivity
    check and shortest-example search and the ambiguity witness generator
    build on it, so they can never drift apart.  Everything here is
    deterministic: fixpoints relax in production-id order and the
    enumeration queue is FIFO, so repeated runs produce identical output
    (golden tests rely on this). *)

(** [shortest_yields g] precomputes the shortest terminal yield of every
    symbol and returns a lookup: [Some terms] is a minimal-length string
    the symbol derives, [None] means the symbol is unproductive.
    Terminals yield themselves. *)
val shortest_yields : Cfg.t -> Cfg.symbol -> int list option

(** [enumerate g ~from ~max_len] — every distinct terminal sentence of
    length [<= max_len] derivable from nonterminal [from], by bounded
    leftmost expansion of sentential forms with min-yield pruning.

    The search is capped: at most [max_work] sentential-form expansions
    (default 200_000) and at most [max_count] sentences kept (default
    600, the shortest in shortlex order).  Hitting a cap silently
    truncates the language sample — callers after exhaustiveness must
    check lengths themselves.  Output is sorted shortest-first, then
    lexicographically by terminal index. *)
val enumerate :
  ?max_count:int -> ?max_work:int -> Cfg.t -> from:int -> max_len:int ->
  int list list

(** A sentential context for a nonterminal occurrence: a sentence
    [pre ^ u ^ post] is derivable from the start symbol whenever the
    nonterminal derives [u]. *)
type context = { pre : int list; post : int list }

(** [occurrence_contexts g nt] — one minimal context per grammar
    occurrence of [nt] (each position [A -> alpha . nt beta] combines the
    shortest yields of [alpha]/[beta] with a minimal context of [A]),
    deduplicated and sorted by total length.  Empty when [nt] is
    unreachable or an occurrence's siblings are unproductive.  At most
    [max_count] contexts are returned (default 8). *)
val occurrence_contexts : ?max_count:int -> Cfg.t -> int -> context list
