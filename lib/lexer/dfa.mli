(** Subset-construction DFA over bytes.

    State [0] is the start state.  Each state accepts the
    highest-priority (lowest-index) rule of its NFA states, if any, and
    the transition table is dense: 256 targets per state, [-1] = stuck.
    Both tables are flat int arrays, so the scanner's loop reads them
    without allocating or calling out. *)

type t

val of_nfa : Nfa.t -> t

(** [make ~next ~accept] — assemble a DFA from raw tables (state 0 is the
    start; [next.(s)] has 256 entries, [-1] = stuck).  Used by
    {!Minimize}. *)
val make : next:int array array -> accept:int option array -> t
val num_states : t -> int
val next : t -> int -> char -> int

(** [accept t s] — the rule state [s] accepts, if any. *)
val accept : t -> int -> int option

(** The flat transition table: the target of state [s] on byte [c] is at
    [(s lsl 8) lor c], [-1] = stuck.  Shared, not a copy: read only. *)
val transitions : t -> int array

(** The accept table: the rule state [s] accepts at [s], [-1] for none.
    Shared, not a copy: read only. *)
val rules : t -> int array
