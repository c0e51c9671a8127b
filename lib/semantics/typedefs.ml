(* The benchmark replay's shim: a decision-only [Diag] analyzer. *)

type policy = Namespace_only | Prefer_decl

type t = {
  diag : Diag.t;
  mutable globals : string list;
  mutable on_select : Parsedag.Node.t -> unit;
}

let create ?policy:_ g =
  { diag = Diag.create g; globals = []; on_select = ignore }

let on_select t f = t.on_select <- f
let global_typedefs t = t.globals

let analyze t root =
  let d = Diag.decide t.diag ~on_select:t.on_select root in
  ignore (Query.collect (Diag.engine t.diag));
  t.globals <- d.Diag.typedef_names;
  d
