(** Incremental synthesized-attribute evaluation over parse dags.

    The paper's pipeline runs formal semantic analyses over the dag
    (§4.2, §6); this module provides the substrate: synthesized
    attributes computed bottom-up, memoized by {e node identity}.  The
    parser shifts an unchanged subtree whole (state-matching, §3.2), so
    the subtree keeps its nodes across reparses and its attribute values
    are reused for free — after an edit, only attributes of rebuilt nodes
    (the damage path) are recomputed.  This is the incremental-attribution
    behaviour the paper gets from reusing "program annotations" with the
    retained nodes.

    Soundness of the identity-keyed memo relies on the parser's reuse
    discipline: a node's children only change when the node itself was
    rebuilt with fresh ancestors; the memo additionally fingerprints the
    children's ids so a choice node whose interpretations were replaced
    in place re-evaluates.  Run
    dynamic syntactic filters (which splice choices in freshly rebuilt
    regions) before evaluating, as {!Iglr.Session} does.

    Evaluation of a choice node uses the {e selected} interpretation when
    semantic filtering has decided one, and the [choice] combinator over
    all interpretations otherwise — tools see the embedded tree of
    §4.2(d) once disambiguation is complete. *)

type 'a t

(** [create g ~leaf ~rule ~choice] — an evaluator:
    [leaf] values terminals, [rule prod kid_values] synthesizes at a
    production instance, and [choice values] combines the interpretations
    of an {e unresolved} choice node. *)
val create :
  Grammar.Cfg.t ->
  leaf:(Parsedag.Node.t -> 'a) ->
  rule:(Grammar.Cfg.production -> 'a array -> 'a) ->
  choice:('a array -> 'a) ->
  'a t

(** [eval t node] — the attribute value, memoized. *)
val eval : 'a t -> Parsedag.Node.t -> 'a

(** Rule/leaf/choice applications performed since creation (the work
    measure: after an edit and reparse, this grows by the damage size,
    not the tree size). *)
val evaluations : 'a t -> int

(** Drop all memoized values (e.g. after changing external context the
    attributes depend on). *)
val reset : 'a t -> unit
