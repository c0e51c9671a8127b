(** Context-free grammars with extended (regular-right-part) sequence
    notation.

    Terminals and nonterminals are small integers; [symbol] tags which space
    an index lives in.  Terminal [eof] (index 0) is implicit in every
    grammar.  Sequence nonterminals — those introduced by the builder's
    [star]/[plus] notation — are flagged so downstream layers (the parse
    dag) may re-balance their left-recursive spines into logarithmic-depth
    trees, as required by the paper's §3.4 performance model. *)

type symbol = T of int | N of int

val equal_symbol : symbol -> symbol -> bool

type assoc = Left | Right | Nonassoc

(** How a nonterminal was declared. *)
type seq_kind =
  | Not_seq  (** ordinary nonterminal *)
  | Seq      (** sequence nonterminal: its productions form a
                 left-recursive spine that represents an associative list *)

(** Role of a production within a sequence desugaring. *)
type prod_role =
  | Plain
  | Seq_empty  (** [L -> ε] *)
  | Seq_one    (** [L -> elem] *)
  | Seq_cons   (** [L -> L elem] or [L -> L sep elem] *)

type production = {
  p_id : int;
  lhs : int;  (** nonterminal index *)
  rhs : symbol array;
  role : prod_role;
  prec : (int * assoc) option;
      (** effective precedence: explicit [%prec] or rightmost terminal's *)
}

type t

(** {1 Sizes and names} *)

val eof : int
(** Index of the implicit end-of-input terminal (always [0]). *)

val num_terminals : t -> int
val num_nonterminals : t -> int
val num_productions : t -> int
val terminal_name : t -> int -> string
val nonterminal_name : t -> int -> string
val symbol_name : t -> symbol -> string

(** [find_terminal g name] and [find_nonterminal g name] look indices up by
    name.  @raise Not_found if absent. *)
val find_terminal : t -> string -> int

val find_nonterminal : t -> string -> int

(** {1 Structure} *)

val production : t -> int -> production
val productions : t -> production array
val productions_of : t -> int -> int array
(** Production ids whose left-hand side is the given nonterminal. *)

val iter_productions : t -> (production -> unit) -> unit

(** [fold_productions g f acc] folds [f] over the productions in id order. *)
val fold_productions : t -> ('a -> production -> 'a) -> 'a -> 'a

val operator_terminal : t -> int -> int option
(** The terminal at the second right-hand position of production [p]
    ([A -> B op …]): the {e operator} of the interpretation the
    production builds.  Exactly mirrors the extraction the dynamic
    operator-priority filter performs on dag nodes, so table-compilation
    analyses can predict the filter's ranking statically.  [None] when
    the right-hand side is shorter than two symbols or the second symbol
    is a nonterminal. *)

val start : t -> int
(** The user-declared start nonterminal. *)

val seq_kind : t -> int -> seq_kind
val term_prec : t -> int -> (int * assoc) option

val production_name : t -> int -> string
(** ["lhs -> x y"] ([ε] for an empty right-hand side), rendered once when
    the grammar is made. *)

val pp_production : t -> Format.formatter -> int -> unit
val pp : Format.formatter -> t -> unit

(** {1 Construction (used by {!Builder})} *)

val make :
  terminal_names:string array ->
  nonterminal_names:string array ->
  productions:production array ->
  seq_kinds:seq_kind array ->
  term_precs:(int * assoc) option array ->
  start:int ->
  t
