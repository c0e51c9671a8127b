(** Deterministic incremental parsing by state-matching (§3.2; Jalili &
    Gallier, ref [8]).

    The single-stack baseline the IGLR parser is compared against in §5:
    identical input-stream traversal and subtree-reuse condition, but no
    GSS and no support for conflicted tables.  Operates on the same
    document representation as {!Glr} (the two parsers can even alternate
    on one document). *)

exception
  Error of {
    offset_tokens : int;
    message : string;
  }

(** [parse table root] — incremental reparse in place, like {!Glr.parse}.
    @raise Error on syntax errors or a conflicted table entry. *)
val parse : Lrtab.Table.t -> Parsedag.Node.t -> Glr.stats
