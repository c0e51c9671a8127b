(* Semantic disambiguation of the C-like subsets (§4.2), as a view of
   [Diag]'s decision cells: an analyzer owns a [Diag] analyzer whose
   engine holds only decision cells, runs [Diag.decide], and reports its
   counters under their historical names. *)

module Node = Parsedag.Node

type policy = Namespace_only | Prefer_decl

type report = {
  typedefs : int;
  choices : int;
  decided : int;
  reinterpreted : int;
  unresolved : int;
  prefer_decl_applied : int;
  errors : (string * string) list;
}

type t = {
  diag : Diag.t;
  policy : policy;
  mutable globals : string list;
  mutable on_select : Node.t -> unit;
}

let create ?(policy = Namespace_only) g =
  { diag = Diag.create g; policy; globals = []; on_select = ignore }

let engine t = Diag.engine t.diag
let on_select t f = t.on_select <- f
let global_typedefs t = t.globals

let chosen (n : Node.t) =
  match n.Node.kind with
  | Node.Choice c when c.selected >= 0 && c.selected < Array.length n.Node.kids
    ->
      Some n.Node.kids.(c.selected)
  | _ -> None

let analyze t root =
  let d = Diag.decide t.diag ~on_select:t.on_select root in
  t.globals <- d.Diag.typedef_names;
  {
    typedefs = d.Diag.typedef_decls;
    choices = d.Diag.choices;
    decided = d.Diag.decided;
    reinterpreted = d.Diag.reinterpreted;
    unresolved = d.Diag.unresolved;
    (* Both policies select the declaration; only C++ counts the rule. *)
    prefer_decl_applied =
      (match t.policy with
      | Prefer_decl -> d.Diag.prefer_candidates
      | Namespace_only -> 0);
    errors = d.Diag.sem_errors;
  }
