(** Classical grammar analyses: nullability, FIRST, FOLLOW.

    All sets are terminal {!Bitset.t}s indexed by terminal id; FOLLOW of the
    start symbol contains {!Cfg.eof}.  These feed SLR/LALR table
    construction, the Earley baseline, and the incremental parser's
    precomputed nonterminal reductions (§3.2 of the paper). *)

type t

val compute : Cfg.t -> t

val nullable : t -> int -> bool
(** [nullable a nt] — does the nonterminal derive ε? *)

val first : t -> int -> Bitset.t
(** FIRST set of a nonterminal.  Do not mutate the result. *)

val follow : t -> int -> Bitset.t
(** FOLLOW set of a nonterminal.  Do not mutate the result. *)

(** [first_of_word g a rhs ~from] is [(s, eps)] where [s] is
    FIRST(rhs\[from..\]) and [eps] says whether the suffix derives ε. *)
val first_of_word : Cfg.t -> t -> Cfg.symbol array -> from:int -> Bitset.t * bool

val symbol_nullable : t -> Cfg.symbol -> bool

val pp : Cfg.t -> Format.formatter -> t -> unit
