(** Subset-construction DFA over bytes.

    State [0] is the start state.  [accept] maps each DFA state to the
    highest-priority (lowest-index) rule accepted there, and [next] is a
    dense 256-way transition table ([-1] = stuck). *)

type t

val of_nfa : Nfa.t -> t

(** [make ~next ~accept] — assemble a DFA from raw tables (state 0 is the
    start; [-1] entries are stuck).  Used by {!Minimize}. *)
val make : next:int array array -> accept:int option array -> t
val num_states : t -> int
val next : t -> int -> char -> int
val accept : t -> int -> int option

