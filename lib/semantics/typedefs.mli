(** The benchmark replay's shim over {!Diag}'s typedef decisions.

    Every other caller reads decisions and counters from one {!Diag}
    analyzer ({!Diag.decide}) and typedef names from its result.  The
    replay still builds this view, which owns a second, decision-only
    [Diag] engine, and cross-checks [Diag.run ~typedefs] against it.  The
    shim goes with the benchmark commit that moves the replay onto one
    analyzer; so does [Diag.run]'s [?typedefs]. *)

(** The typedef policy of a C-like language (its [sem_policy]).  Both
    policies select the same alternative; they differ only in whether
    the prefer-declaration rule is counted. *)
type policy =
  | Namespace_only
      (** C: the identifier's namespace decides; a type name in
          expression position (or vice versa) is a semantic error. *)
  | Prefer_decl
      (** C++: when both interpretations remain plausible (the leading
          identifier names a type), prefer the declaration (§4.1 / ref
          [3]). *)

type t
(** A decision-only analyzer; reuse it across runs on the same document
    for incremental behaviour. *)

val create : ?policy:policy -> Grammar.Cfg.t -> t
(** [policy] is accepted and ignored: nothing the shim returns depends
    on it. *)

val on_select : t -> (Parsedag.Node.t -> unit) -> unit
(** Install a hook invoked with each choice node whose selection a
    decision changed (the replay bridges it to [Diag.touch]). *)

val analyze : t -> Parsedag.Node.t -> Diag.decisions
(** {!Diag.decide}, then sweep the engine's dead cells. *)

val global_typedefs : t -> string list
(** Typedef names visible at top level after the last run. *)
