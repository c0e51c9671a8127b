(** Gap arrays: a sequence in one array with a gap at the last edit point.

    {!replace} moves the gap to the edit, drops the deleted entries into
    it and writes the new ones, so it costs the distance the gap moves
    plus the damage; it allocates only when the gap is too small, and
    then doubles the array.  Reads are an index computation. *)

type 'a t

val slack : int
(** Free slots a growing array keeps past its entries; a good slack for
    a freshly filled array too. *)

val of_prefix : 'a array -> len:int -> fill:'a -> 'a t
(** [of_prefix a ~len ~fill] takes ownership of [a]: the sequence is
    [a.(0..len-1)] and the rest of [a] is the gap.  [fill] is written
    into every slot the gap holds, so the gap retains no removed entry.
    @raise Invalid_argument unless [0 <= len <= Array.length a]. *)

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** @raise Invalid_argument outside [\[0, length g)]. *)

val replace : 'a t -> at:int -> del:int -> 'a array -> unit
(** [replace g ~at ~del src] replaces entries [at..at+del-1] with [src].
    @raise Invalid_argument if the range is out of bounds. *)

(** Ascending offsets into a text, where an edit also shifts every offset
    past it.  Entries past the gap are stored relative to a displacement,
    so the shift is one addition however many entries follow. *)
module Ints : sig
  type t

  val of_prefix : int array -> len:int -> t
  val length : t -> int
  val get : t -> int -> int

  val replace : t -> at:int -> del:int -> int array -> shift:int -> unit
  (** [replace t ~at ~del src ~shift] replaces entries [at..at+del-1]
      with [src] (absolute offsets in the new text) and adds [shift] to
      every entry after them. *)
end
