(** The graph-structured parse stack (Tomita/Rekers, §3.1).

    Each node is one active parser configuration; links point toward the
    stack bottom and are labeled by the dag node spanning that edge.  The
    GSS is a {e transient} structure of one parse (§3.5) — unlike
    Ferro & Dion's persistent-GSS representation, nothing of it survives
    into the program representation. *)

type node = {
  gid : int;
  state : int;
  mutable links : link list;
}

and link = {
  head : node;  (** toward the bottom of the stack *)
  mutable label : Parsedag.Node.t;  (** upgraded in place when a second
                                        interpretation merges (the lazy
                                        symbol-node installation) *)
}

val make_node : state:int -> link list -> node
val add_link : node -> link -> unit
val make_link : head:node -> label:Parsedag.Node.t -> link

val allocated : unit -> int
(** Process-wide count of GSS nodes ever allocated; the delta across one
    parse is its GSS footprint (the observability layer reads it). *)

(** [iter_paths top ~arity ~through k env tag] — the reduction walker:
    calls [k env tag ~many bottom kids] once per downward path of exactly
    [arity] links from [top], where [kids] is a fresh array of the path's
    labels in left-to-right (yield) order and [bottom] the node the path
    ends at.  With [~through:(Some link)] only paths using [link] at least
    once count (a limited reduction).  [many] is true on every call when
    there are at least two such paths.  Paths come depth first, each
    node's links taken last to first; node ids and the order of choice
    alternatives follow from this order.  A single-link chain — the
    deterministic case — is walked with no allocation beyond [kids];
    [env] and [tag] pass through to [k] so the caller needs no closure. *)
val iter_paths :
  node ->
  arity:int ->
  through:link option ->
  ('a -> int -> many:bool -> node -> Parsedag.Node.t array -> unit) ->
  'a ->
  int ->
  unit

(** [validate ?max_parsers ~num_states tops] — the GSS sanitizer: checks
    that the active parsers carry pairwise distinct states (Tomita's
    merge invariant), that every reachable node's state is a real table
    state, and that links are acyclic (they must point strictly toward
    the stack bottom).  With [max_parsers] (a {!Glr.budget} in force),
    additionally faults a frontier wider than the cap — degraded parses
    prune before shifting, so the budget must hold at every step.
    Returns [(gid, message)] faults; empty = sane. *)
val validate :
  ?max_parsers:int -> num_states:int -> node list -> (int * string) list
