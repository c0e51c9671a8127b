(** Salsa-style incremental computation over the parse dag.

    A generalization of the hand-rolled memo tables the semantic passes
    grew: named {e queries} computed on demand over integer keys
    (typically dag-node ids), memoized into revision-stamped {e cells}.
    During a computation every nested {!fetch}, {!read} and
    {!depend_node} is recorded as a dependency of the active cell, so
    later revisions can validate a cell bottom-up without recomputing
    it ({e pull}), while edits only advance the revision and mark the
    inputs they actually changed ({e push}).

    The machinery follows the rust-analyzer/salsa red-green algorithm:

    - every cell carries [changed_at] (revision its value last
      actually changed) and [verified_at] (revision it was last known
      up to date);
    - a fetch first tries to {e validate}: if every recorded dependency
      is unchanged since [verified_at], the cell is clean and only its
      stamp moves — no user code runs;
    - otherwise the cell recomputes.  If the new value equals the old
      one the cell is {e backdated}: [changed_at] keeps its old stamp,
      so dependents still validate clean — the early-cutoff that stops
      an edit's damage from propagating past the first unchanged
      value;
    - a recursive fetch of a cell already being computed raises the
      typed {!Cycle} error carrying the dependency path;
    - {!collect} sweeps the cells no fetch, validation or read used
      since the previous sweep (dead keys accumulate as the dag rebuilds
      nodes under fresh ids).

    A cell is addressed by (definition id, int key): no fetch hashes a
    string.  A dependency edge points at its cell.  A swept cell is dead
    and drops its value and edges; an edge to a dead cell, or to an input
    read while unset, reads as changed.  A {e hit} is a fetch that runs
    no user code.

    Dag integration: cells keyed by a {e retained} node's id never go
    stale by themselves — the parser's reuse discipline guarantees a
    retained production node's subtree is unchanged — so invalidation
    reduces to (a) fresh nodes get fresh keys (a miss), (b)
    {!commit_tree} advances the revision after every committed
    reparse, and (c) in-place mutations that bypass the parser (a
    semantic filter flipping a retained choice node's selection) are
    pushed with {!touch_node}, dirtying exactly the cells that
    {!depend_node}'d on that node.

    Concurrency: an engine is single-owner mutable state with the same
    contract as [Session] — every public entry point takes an
    ownership token for its duration and raises {!Busy} on concurrent
    entry from another domain (nested calls from inside a computation
    on the owning domain are fine).  One engine per session; the
    daemon's per-document scheduling makes [Busy] a scheduler bug, not
    a recoverable condition. *)

type t
(** An engine: the cell store plus its revision counter. *)

exception Busy
(** Concurrent entry from a second domain (see the ownership note). *)

(** A cell's identity: the query (or input) name and the key. *)
type cell_id = { query : string; key : int }

exception Cycle of cell_id list
(** Raised when a computation recursively demands itself; the payload
    is the dependency path, outermost first, ending with the repeated
    cell. *)

val create : unit -> t

val revision : t -> int
(** The current revision stamp.  Advances on {!commit_tree},
    {!touch_node} and any {!set} that actually changes a value. *)

(** {1 Derived queries} *)

type 'v def
(** A query definition: a unique name, a compute function and a value
    equality used for early cutoff.  Definitions are engine-independent
    (the compute function receives the engine).  A definition's or
    input's first cell in an engine claims its name there: another
    definition or input with that name then raises [Invalid_argument]. *)

val define : name:string -> ?equal:('v -> 'v -> bool) -> (t -> int -> 'v) -> 'v def
(** [equal] defaults to structural equality guarded against functional
    values (incomparable values are treated as changed). *)

val exclusive : t -> (unit -> 'a) -> 'a
(** [exclusive t f] runs [f] holding the engine, so every call [f] makes
    takes the owning path: no lock and no closure per call. *)

val fetch : t -> 'v def -> int -> 'v
(** Demand the query's value for a key: validate the cached cell or
    (re)compute it, recording a dependency when called from inside
    another computation.  The cell, and every cell its validation
    visits, stays live until the next {!collect}. *)

(** {1 Inputs} *)

type 'v input
(** A named family of input cells keyed by int: the leaves of the
    dependency graph, set explicitly from outside. *)

val input : name:string -> ?equal:('v -> 'v -> bool) -> unit -> 'v input

val set : t -> 'v input -> int -> 'v -> unit
(** Create or update an input cell.  A value equal to the stored one is
    a no-op (cutoff at the source); otherwise the revision advances and
    the cell is stamped changed.  Setting an input that a currently
    executing computation already read is unsupported. *)

val read : t -> 'v input -> int -> 'v option
(** The input's current value ([None] when never set), recorded as a
    dependency of the active computation. *)

val peek : t -> 'v input -> int -> 'v option
(** Like {!read} but records no dependency (inspection/tests). *)

(** {1 Dag integration} *)

val depend_node : t -> Parsedag.Node.t -> unit
(** Record the active computation's dependency on a dag node, so a
    later {!touch_node} on it dirties the cell.  No-op outside a
    computation. *)

val touch_node : t -> Parsedag.Node.t -> unit
(** Push an in-place mutation of a retained node (e.g. a semantic
    filter flipping a choice selection): advances the revision and
    marks the node changed for every cell that {!depend_node}'d it. *)

val commit_tree : t -> watermark:int -> Parsedag.Node.t -> unit
(** Invalidation hook for a committed reparse: advance the revision and
    mark every node allocated after [watermark] (the
    [Parsedag.Node.allocated] reading taken before the reparse)
    changed.  The walk prunes at retained nodes, so its cost is the
    damage size, not the tree size. *)

(** {1 Lifecycle} *)

val collect : t -> int
(** Sweep the cells not used since the previous {!collect}: neither
    fetched (at top level or from a computation), nor validated as a
    dependency of a fetched cell, nor read.  A computation that runs
    every epoch therefore keeps exactly what it reaches.  Returns the
    number of cells dropped. *)

val cells : t -> int
(** Live cells (derived and input). *)

val clear : t -> unit
(** Drop every cell (but keep the revision monotone) — the big hammer
    behind [Attrs.reset]. *)

(** {1 Statistics} *)

(** Per-engine lifetime totals, always on (unlike the process-global
    [query.*] metrics, which honour [Metrics.set_enabled]). *)
type stats = {
  computes : int;  (** compute runs (first computes and recomputes) *)
  hits : int;  (** fetches served without running user code *)
  backdated : int;  (** recomputes whose value was unchanged *)
  collected : int;  (** cells swept by {!collect} *)
}

val stats : t -> stats
