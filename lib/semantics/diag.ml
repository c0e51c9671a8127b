(* Incremental semantic diagnostics (see diag.mli for the architecture).

   The unit of incrementality is the top-level item — a [calc]
   statement, a C-subset external declaration: the elements of the
   start symbol's sequence spine.  Each item carries up to four cells
   keyed by its dag node id:

     diag.decide   C subsets: the item's typedef decisions (§4.2) —
                   every choice node in the item selected against the
                   typedef-names input, block-local contours resolved
                   inside the cell
     diag.scope    env-free summary: exported defs, free uses, local
                   diagnostics, and a typing skeleton (a small
                   expression IR with item-local names already bound)
     diag.resolve  free uses filtered against the visible-names input
     diag.types    the skeleton evaluated against the typing-env input

   A reparse gives a rebuilt item a fresh node id, so its cells are
   recomputed from scratch while every retained item's cells validate
   clean — the engine's dependency check sees an unchanged node, an
   unchanged environment restriction, and stops.  The scope walk reads
   the selections [diag.decide] made, so a decision that flips reaches
   it as a changed dependency.  Cross-item aggregation is plain per-run
   code over the cell values: linear in the item count and free of tree
   walks. *)

module Cfg = Grammar.Cfg
module Node = Parsedag.Node
module Sequence = Parsedag.Sequence

type ty = Int | Float | Char | Void | Named of string | Unknown

let ty_name = function
  | Int -> "int"
  | Float -> "float"
  | Char -> "char"
  | Void -> "void"
  | Named n -> n
  | Unknown -> "?"

type def_kind = Var | Func | Type | Param

let kind_name = function
  | Var -> "var"
  | Func -> "func"
  | Type -> "type"
  | Param -> "param"

type binding = { b_name : string; b_kind : def_kind; b_ty : ty; b_token : int }
type diag = { d_code : string; d_token : int; d_message : string }

type result = {
  bindings : binding list;
  diags : diag list;
  types : (int * ty) list Lazy.t;
  typedefs : string list;
}

(* ------------------------------------------------------------------ *)
(* Internal analysis vocabulary.  All of it is pure immutable data, so
   cell values compare with structural equality (early cutoff).       *)

type ns = Ord | Typ  (* C's ordinary vs type namespaces *)

let ns_of_kind = function Type -> Typ | Var | Func | Param -> Ord

(* Syntactic type of a declaration: known base, a typedef-name
   reference (resolved against the environment by the types layer), or
   inferred from the initialising expression (calc assignments). *)
type sts = Sb of ty | Snm of string | Sinfer

(* Typing skeleton: expressions with item-local names already resolved
   to def indices and everything else left symbolic.  Token offsets are
   relative to the item, so an item that merely moves keeps an equal
   summary. *)
type ex =
  | Enum of ty
  | Elocal of int  (* index into the item's def table *)
  | Efree of string
  | Ebin of string * int * ex * ex  (* operator, its relative token *)
  | Ecall of ex * ex list
  | Eseq of ex list
  | Enone

type sdef = {
  sd_name : string;
  sd_kind : def_kind;
  sd_tok : int;  (* relative token offset of the defining occurrence *)
  sd_ts : sts;
  sd_export : bool;  (* defined at item level: visible to later items *)
  sd_used : bool;  (* referenced somewhere within the item *)
  sd_unused : string;
      (* an exported def's unused-binding message, built once by the
         scope cell rather than on every run; "" for a local *)
}

type suse = { su_name : string; su_ns : ns; su_tok : int }

(* A typed context: a statement expression, an initialiser, a calc
   assignment right-hand side. *)
type tctx = {
  tc_tok : int;
  tc_check : int option;  (* def whose declared type must match *)
  tc_bind : int option;  (* def that receives the computed type *)
  tc_ex : ex;
}

type summary = {
  sm_defs : sdef array;
  sm_uses : suse list;  (* free uses, source order *)
  sm_names : (string * ns) list;  (* the free uses' names, sorted, unique *)
  sm_ctxs : tctx list;  (* source order *)
  sm_diags : (int * string * string) list;
      (* rel token, code, message; sorted, unique *)
}

type resolution = { rv_unresolved : suse list }

type tenv = {
  te_vals : (string * ty) list;  (* visible value bindings, restricted *)
  te_types : (string * ty) list;  (* visible typedef meanings, restricted *)
}

type tyres = {
  tr_exports : (string * ty) list;  (* value exports, for the running env *)
  tr_typedefs : (string * ty) list;  (* typedef exports, resolved to base *)
  tr_bindings : ty list;  (* display type per exported def, in order *)
  tr_types : (int * ty) list;  (* rel token, computed type; sorted *)
  tr_diags : (int * string * string) list;  (* sorted, unique *)
}

(* An item's typedef decisions: the [diag.decide] value.  [dc_sels]
   lists the selections in walk order, so a flip changes the value and
   the item's scope cell (which depends on it) re-walks. *)
type item_decisions = {
  dc_exports : string list;  (* file-scope typedefs declared, in order *)
  dc_sels : int list;  (* -1: unresolved *)
  dc_typedefs : int;  (* typedef declarations walked *)
  dc_errors : (string * string) list;  (* (kind, name), walk order *)
}

(* The [diag.decide] input: the typedef names visible at file scope
   before the item, restricted to the leading identifiers of its
   choices ([tv_leads], a function of the item's structure alone, kept
   here so later runs need not re-walk the item to find them). *)
type typedef_vis = { tv_leads : string list; tv_vis : string list }

(* The per-run summary of every decision in the document. *)
type decisions = {
  typedef_names : string list;
  typedef_decls : int;
  choices : int;
  decided : int;
  reinterpreted : int;
  unresolved : int;
  prefer_candidates : int;
  sem_errors : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Grammar recognition.                                                *)

type mode = Calc | Clike

type ids = {
  id_t : int;
  num_t : int;
  expr_nt : int;
  type_spec_nt : int;  (* clike only; -1 for calc *)
  decl_nt : int;  (* clike only; -1 for calc *)
}

(* Per-production dispatch, precomputed at [create]. *)
type shape =
  | S_other
  | S_assign  (* calc: stmt -> id = expr ; *)
  | S_binop of string  (* expr -> expr OP expr *)
  | S_paren  (* expr -> ( expr ) *)
  | S_call0  (* expr -> expr ( ) *)
  | S_call  (* expr -> expr ( args ) *)
  | S_typedef_decl  (* decl -> typedef type_spec id ; *)
  | S_decl  (* decl -> type_spec init_decls ; *)
  | S_func  (* func_def -> type_spec id ( [params] ) compound *)
  | S_param  (* param -> type_spec id *)
  | S_compound
  | S_init_plain  (* init_decl -> declarator *)
  | S_init_eq  (* init_decl -> declarator = expr *)

type t = {
  g : Cfg.t;
  mode : mode;
  ids : ids;
  shapes : shape array;
  engine : Query.t;
  decide_q : item_decisions Query.def;
  scope_q : summary Query.def;
  resolve_q : resolution Query.def;
  types_q : tyres Query.def;
  tdvis_in : typedef_vis Query.input;
  envnames_in : (string * ns) list Query.input;
  envty_in : tenv Query.input;
  nodes : (int, Node.t) Hashtbl.t;  (* item nid -> node, per run *)
  (* Decision counters of the current run: they move only where a
     choice is actually (re)decided, so a validated cell adds nothing. *)
  mutable n_decided : int;
  mutable n_reinterp : int;
  mutable n_prefer : int;
  mutable on_flip : Node.t -> unit;  (* a selection changed *)
}

let find_nt g n = try Cfg.find_nonterminal g n with Not_found -> -1
let find_t g n = try Cfg.find_terminal g n with Not_found -> -1

let mode_of g =
  if
    find_nt g "translation_unit" >= 0
    && find_nt g "ext_decl" >= 0
    && find_nt g "type_spec" >= 0
    && find_nt g "expr" >= 0
    && find_t g "typedef" >= 0
    && find_t g "id" >= 0
  then Some Clike
  else if
    find_nt g "program" >= 0
    && find_nt g "stmt" >= 0
    && find_nt g "expr" >= 0
    && find_t g "id" >= 0
    && find_t g "num" >= 0
    && find_t g "=" >= 0
  then Some Calc
  else None

let supported g = mode_of g <> None

let classify g mode ids (pr : Cfg.production) =
  let rhs = pr.Cfg.rhs in
  let n = Array.length rhs in
  let is_t k name = k < n && rhs.(k) = Cfg.T (find_t g name) in
  let is_nt k nt = k < n && nt >= 0 && rhs.(k) = Cfg.N nt in
  let lhs_name = Cfg.nonterminal_name g pr.Cfg.lhs in
  if pr.Cfg.lhs = ids.expr_nt then
    if n = 3 && is_nt 0 ids.expr_nt && is_nt 2 ids.expr_nt then
      match rhs.(1) with
      | Cfg.T op -> S_binop (Cfg.terminal_name g op)
      | Cfg.N _ -> S_other
    else if n = 3 && is_t 0 "(" && is_nt 1 ids.expr_nt && is_t 2 ")" then
      S_paren
    else if n = 3 && is_nt 0 ids.expr_nt && is_t 1 "(" && is_t 2 ")" then
      S_call0
    else if n = 4 && is_nt 0 ids.expr_nt && is_t 1 "(" && is_t 3 ")" then
      S_call
    else S_other
  else
    match (mode, lhs_name) with
    | Calc, "stmt" when n = 4 && is_t 1 "=" && is_t 3 ";" -> S_assign
    | Clike, "decl" when n > 0 && is_t 0 "typedef" -> S_typedef_decl
    | Clike, "decl" when n = 3 && is_t 2 ";" -> S_decl
    | Clike, "func_def" -> S_func
    | Clike, "param" when n = 2 -> S_param
    | Clike, "compound" -> S_compound
    | Clike, "init_decl" when n = 1 -> S_init_plain
    | Clike, "init_decl" when n = 3 && is_t 1 "=" -> S_init_eq
    | _ -> S_other

(* ------------------------------------------------------------------ *)
(* Typedef decisions (§4.2).  Typedef declarations are gathered into
   binding contours in document order; the contour in force at a choice
   node decides the namespace of the region's leading identifier, which
   selects the declaration or the expression reading.  Unselected
   alternatives stay in the dag (a distant typedef change may flip the
   choice back), and regions that cannot be resolved keep every reading
   (§4.3).  Only typedef names count: a non-typedef binding of the same
   name does not shadow one.

   One walker serves two masters: [diag.decide] runs it over one item,
   with the file-scope typedefs before the item given as its restricted
   input, and the per-run frame walk ([frame], below) runs it over
   everything outside the items — the root, the path down to the item
   spine and the spine itself — with the running file scope. *)

type dwalker = {
  da : t;
  vis : string -> bool;  (* a file-scope typedef visible to the walk *)
  add_global : string -> unit;  (* declare a file-scope typedef *)
  hook : dwalker -> Node.t -> bool;  (* true: the node was handled *)
  mutable tok : int;  (* tokens before the walk's position *)
  mutable blocks : string list list;  (* block contours, innermost first *)
  mutable d_typedefs : int;
  mutable d_errors : (string * string) list;  (* reversed *)
  mutable d_sels : int list;  (* reversed: the decision cell's value *)
  mutable d_choices : int;
  mutable d_unresolved : int;
}

let dwalker a ~vis ~add_global ~hook =
  {
    da = a; vis; add_global; hook; tok = 0; blocks = []; d_typedefs = 0;
    d_errors = []; d_sels = []; d_choices = 0; d_unresolved = 0;
  }

let count_sel w sel =
  w.d_choices <- w.d_choices + 1;
  if sel < 0 then w.d_unresolved <- w.d_unresolved + 1

let dlookup w name = List.exists (List.mem name) w.blocks || w.vis name

let declare w name =
  match w.blocks with
  | b :: rest -> w.blocks <- (name :: b) :: rest
  | [] -> w.add_global name

(* The identifier a region starts with (its first terminal, through
   first alternatives), or [None] when it starts otherwise. *)
let leading_id a (n : Node.t) =
  match Node.first_terminal n with
  | Some { Node.kind = Node.Term i; _ } when i.term = a.ids.id_t ->
      Some i.text
  | _ -> None

(* Leading identifiers of every choice in an item, under any
   alternative: the names whose typedef status its decisions can read. *)
let leads_of a (n : Node.t) =
  let acc = ref [] and seen = ref [] in
  let rec go (n : Node.t) =
    match n.Node.kind with
    | Node.Choice _ ->
        if not (List.memq n !seen) then begin
          seen := n :: !seen;
          (match leading_id a n with
          | Some x when not (List.mem x !acc) -> acc := x :: !acc
          | _ -> ());
          Array.iter go n.Node.kids
        end
    | Node.Term _ | Node.Bos | Node.Eos _ -> ()
    | Node.Prod _ | Node.Error _ | Node.Root -> Array.iter go n.Node.kids
  in
  go n;
  List.sort compare !acc

(* Classify an alternative by its first child's nonterminal. *)
let alt_kind a (alt : Node.t) =
  match alt.Node.kind with
  | Node.Prod _ when Array.length alt.Node.kids > 0 -> (
      match Node.symbol a.g alt.Node.kids.(0) with
      | `N nt when nt = a.ids.decl_nt -> `Decl
      | `N nt when nt = a.ids.expr_nt -> `Expr
      | _ -> `Other)
  | _ -> `Other

(* Decide one choice node.  A choice whose new selection equals the one
   it holds is not re-decided (it counts nothing); a fresh or unresolved
   choice always is.  The prefer-declaration count records decisions
   where both readings exist and the name is a type: the C++ policy
   applies there, and both policies select the declaration. *)
let decide_choice w (n : Node.t) ci =
  let a = w.da in
  Query.depend_node a.engine n;
  let find kind =
    let rec scan i =
      if i >= Array.length n.Node.kids then None
      else if alt_kind a n.Node.kids.(i) = kind then Some i
      else scan (i + 1)
    in
    scan 0
  in
  let both = ref false in
  let sel =
    match leading_id a n with
    | None ->
        (* Not rooted in the typedef problem: left to other filters. *)
        -1
    | Some x -> (
        let error kind =
          w.d_errors <- (kind, x) :: w.d_errors;
          -1
        in
        if dlookup w x then (
          match find `Decl with
          | Some i ->
              both := find `Expr <> None;
              i
          | None -> error "type-in-expression-position")
        else
          match find `Expr with
          | Some i -> i
          | None ->
              (* Only a declaration reading, and the name is not a type:
                 a program error; keep the interpretations. *)
              error "unknown-type-name")
  in
  let prev = ci.Node.selected in
  if prev < 0 || prev <> sel then begin
    a.n_decided <- a.n_decided + 1;
    if !both then a.n_prefer <- a.n_prefer + 1;
    if prev >= 0 && sel >= 0 then a.n_reinterp <- a.n_reinterp + 1
  end;
  ci.Node.selected <- sel;
  w.d_sels <- sel :: w.d_sels;
  count_sel w sel;
  if sel <> prev then a.on_flip n

let term_text (n : Node.t) =
  match n.Node.kind with Node.Term i -> i.text | _ -> ""

(* Walk in document order, deciding every choice on the selected path
   — error regions included — before descending into the selection. *)
let rec dwalk w (n : Node.t) =
  if not (w.hook w n) then
    match n.Node.kind with
    | Node.Choice ci ->
        if w.da.mode = Clike then decide_choice w n ci;
        dwalk w (Node.alt n)
    | Node.Term _ | Node.Bos | Node.Eos _ -> w.tok <- w.tok + Node.token_count n
    | Node.Prod p when w.da.shapes.(p) = S_compound ->
        w.blocks <- [] :: w.blocks;
        Array.iter (dwalk w) n.Node.kids;
        w.blocks <- List.tl w.blocks
    | Node.Prod p ->
        if w.da.shapes.(p) = S_typedef_decl then begin
          (* typedef type_spec id ; *)
          w.d_typedefs <- w.d_typedefs + 1;
          declare w (term_text n.Node.kids.(2))
        end;
        Array.iter (dwalk w) n.Node.kids
    | Node.Error _ | Node.Root -> Array.iter (dwalk w) n.Node.kids

let decide_compute a e nid =
  let n = Hashtbl.find a.nodes nid in
  let vis =
    match Query.read e a.tdvis_in nid with Some v -> v.tv_vis | None -> []
  in
  let globals = ref [] in
  let w =
    dwalker a
      ~vis:(fun x -> List.mem x vis || List.mem x !globals)
      ~add_global:(fun x -> globals := x :: !globals)
      ~hook:(fun _ _ -> false)
  in
  dwalk w n;
  {
    dc_exports = List.rev !globals;
    dc_sels = List.rev w.d_sels;
    dc_typedefs = w.d_typedefs;
    dc_errors = List.rev w.d_errors;
  }

(* ------------------------------------------------------------------ *)
(* The item walker (scope pass).  One traversal per item produces the
   full env-free summary: everything later layers need is distilled
   into plain data here, so the resolve and types cells never touch
   the dag. *)

type wdef = {
  m_name : string;
  m_kind : def_kind;
  m_tok : int;
  mutable m_ts : sts;
  m_export : bool;
}

type wst = {
  a : t;
  e : Query.t;
  mutable tok : int;
  mutable scopes : (ns * string, int) Hashtbl.t list;  (* innermost first *)
  mutable ndefs : int;
  mutable rdefs : wdef list;  (* reversed *)
  used : (int, unit) Hashtbl.t;
  mutable ruses : suse list;  (* reversed *)
  mutable rctxs : tctx list;  (* reversed *)
  mutable rdiags : (int * string * string) list;  (* reversed *)
  mutable cur_ts : sts;  (* decl's type_spec, for its init_decls *)
}

(* Descend a choice along its selected (or first) alternative,
   recording the node dependency: a selection flipped from outside
   arrives as [touch] and re-runs every cell whose walk crossed this
   node. *)
let alt w (n : Node.t) =
  Query.depend_node w.e n;
  Node.alt n

let lookup w ns name =
  let rec go = function
    | [] -> None
    | s :: rest -> (
        match Hashtbl.find_opt s (ns, name) with
        | Some i -> Some i
        | None -> go rest)
  in
  go w.scopes

let add_def ?(inscope = true) w ~name ~kind ~tok ~ts =
  let export = List.length w.scopes <= 1 in
  let i = w.ndefs in
  w.ndefs <- i + 1;
  w.rdefs <- { m_name = name; m_kind = kind; m_tok = tok; m_ts = ts; m_export = export } :: w.rdefs;
  (if inscope then
     match w.scopes with
     | s :: _ -> Hashtbl.replace s (ns_of_kind kind, name) i
     | [] -> ());
  i

let mark_used w i = Hashtbl.replace w.used i ()

let free_use w ~name ~ns ~tok = w.ruses <- { su_name = name; su_ns = ns; su_tok = tok } :: w.ruses

let add_ctx w c = w.rctxs <- c :: w.rctxs

let lit_ty text = if String.contains text '.' then Float else Int

(* Expression walk: count tokens, resolve item-local names, build the
   typing skeleton.  Identifier terminals reached here are uses. *)
let rec wexpr w (n : Node.t) : ex =
  match n.Node.kind with
  | Node.Term i ->
      let tok = w.tok in
      w.tok <- w.tok + 1;
      if i.term = w.a.ids.id_t then (
        match lookup w Ord i.text with
        | Some d ->
            mark_used w d;
            Elocal d
        | None ->
            free_use w ~name:i.text ~ns:Ord ~tok;
            Efree i.text)
      else if i.term = w.a.ids.num_t then Enum (lit_ty i.text)
      else Enone
  | Node.Bos | Node.Eos _ -> Enone
  | Node.Error _ ->
      w.tok <- w.tok + Node.token_count n;
      Enone
  | Node.Root ->
      Eseq (Array.to_list (Array.map (wexpr w) n.Node.kids))
  | Node.Choice _ -> wexpr w (alt w n)
  | Node.Prod p -> (
      let kids = n.Node.kids in
      match w.a.shapes.(p) with
      | S_binop op ->
          let x = wexpr w kids.(0) in
          let optok = w.tok in
          w.tok <- w.tok + 1;
          let y = wexpr w kids.(2) in
          Ebin (op, optok, x, y)
      | S_paren ->
          w.tok <- w.tok + 1;
          let e = wexpr w kids.(1) in
          w.tok <- w.tok + 1;
          e
      | S_call0 ->
          let f = wexpr w kids.(0) in
          w.tok <- w.tok + 2;
          Ecall (f, [])
      | S_call ->
          let f = wexpr w kids.(0) in
          w.tok <- w.tok + 1;
          let args = wexpr w kids.(2) in
          w.tok <- w.tok + 1;
          let rec flat = function
            | Eseq l -> List.concat_map flat l
            | Enone -> []
            | e -> [ e ]
          in
          Ecall (f, flat args)
      | _ -> (
          match Array.to_list (Array.map (wexpr w) kids) with
          | [ e ] -> e
          | l -> Eseq (List.filter (fun e -> e <> Enone) l)))

(* Type specifier: a keyword gives a base type; an identifier is a use
   in the type namespace and stays symbolic. *)
let rec wtype_spec w (n : Node.t) : sts =
  match n.Node.kind with
  | Node.Choice _ -> wtype_spec w (alt w n)
  | Node.Prod _ when Array.length n.Node.kids = 1 -> (
      match n.Node.kids.(0).Node.kind with
      | Node.Term i ->
          let tok = w.tok in
          w.tok <- w.tok + 1;
          if i.term = w.a.ids.id_t then (
            (match lookup w Typ i.text with
            | Some d -> mark_used w d
            | None -> free_use w ~name:i.text ~ns:Typ ~tok);
            Snm i.text)
          else (
            match Cfg.terminal_name w.a.g i.term with
            | "int" -> Sb Int
            | "float" -> Sb Float
            | "char" -> Sb Char
            | "void" -> Sb Void
            | _ -> Sb Unknown)
      | _ ->
          w.tok <- w.tok + Node.token_count n;
          Sb Unknown)
  | _ ->
      w.tok <- w.tok + Node.token_count n;
      Sb Unknown

(* Declarator: locate the declared identifier, counting tokens. *)
let rec wdeclarator w (n : Node.t) : (string * int) option =
  match n.Node.kind with
  | Node.Term i ->
      let tok = w.tok in
      w.tok <- w.tok + 1;
      if i.term = w.a.ids.id_t then Some (i.text, tok) else None
  | Node.Choice _ -> wdeclarator w (alt w n)
  | Node.Prod _ | Node.Error _ | Node.Root ->
      Array.fold_left
        (fun acc k ->
          match wdeclarator w k with Some _ as r -> r | None -> acc)
        None n.Node.kids
  | Node.Bos | Node.Eos _ -> None

let push_scope w = w.scopes <- Hashtbl.create 8 :: w.scopes

let pop_scope w =
  match w.scopes with _ :: rest -> w.scopes <- rest | [] -> ()

let rec walk w (n : Node.t) =
  match n.Node.kind with
  | Node.Term _ -> w.tok <- w.tok + 1
  | Node.Bos | Node.Eos _ -> ()
  | Node.Error _ -> w.tok <- w.tok + Node.token_count n
  | Node.Root -> Array.iter (walk w) n.Node.kids
  | Node.Choice _ -> walk w (alt w n)
  | Node.Prod p -> (
      let kids = n.Node.kids in
      let pr = Cfg.production w.a.g p in
      if pr.Cfg.lhs = w.a.ids.expr_nt then (
        (* Expression boundary: every expression context — statement
           expressions, conditions, return values — becomes a typed
           context, so type errors anywhere are caught. *)
        let tok0 = w.tok in
        let ex = wexpr w n in
        add_ctx w { tc_tok = tok0; tc_check = None; tc_bind = None; tc_ex = ex })
      else if w.a.ids.type_spec_nt >= 0 && pr.Cfg.lhs = w.a.ids.type_spec_nt
      then ignore (wtype_spec w n)
      else
        match w.a.shapes.(p) with
        | S_assign ->
            (* calc: id = expr ; — the assignment both defines the name
               and types it from its right-hand side.  The name is not
               scoped into the item (the right-hand side reads the
               previous value), so self-references resolve through the
               cross-item environment. *)
            let name = term_text kids.(0) in
            let dtok = w.tok in
            w.tok <- w.tok + 2 (* id = *);
            let etok = w.tok in
            let ex = wexpr w kids.(2) in
            w.tok <- w.tok + 1 (* ; *);
            let i = add_def ~inscope:false w ~name ~kind:Var ~tok:dtok ~ts:Sinfer in
            add_ctx w { tc_tok = etok; tc_check = None; tc_bind = Some i; tc_ex = ex }
        | S_typedef_decl ->
            (* typedef type_spec id ; *)
            w.tok <- w.tok + 1;
            let ts = wtype_spec w kids.(1) in
            let name = term_text kids.(2) in
            ignore (add_def w ~name ~kind:Type ~tok:w.tok ~ts);
            w.tok <- w.tok + 2 (* id ; *)
        | S_decl ->
            let ts = wtype_spec w kids.(0) in
            w.cur_ts <- ts;
            walk w kids.(1);
            w.cur_ts <- Sb Unknown;
            w.tok <- w.tok + 1 (* ; *)
        | S_init_plain | S_init_eq -> (
            let shape = w.a.shapes.(p) in
            match wdeclarator w kids.(0) with
            | None ->
                if shape = S_init_eq then begin
                  w.tok <- w.tok + 1 (* = *);
                  ignore (wexpr w kids.(2))
                end
            | Some (name, dtok) -> (
                let i = add_def w ~name ~kind:Var ~tok:dtok ~ts:w.cur_ts in
                match shape with
                | S_init_eq ->
                    w.tok <- w.tok + 1 (* = *);
                    let etok = w.tok in
                    let ex = wexpr w kids.(2) in
                    add_ctx w
                      { tc_tok = etok; tc_check = Some i; tc_bind = None; tc_ex = ex }
                | _ -> ()))
        | S_func ->
            (* type_spec id ( [params] ) compound *)
            let ts = wtype_spec w kids.(0) in
            let name = term_text kids.(1) in
            ignore (add_def w ~name ~kind:Func ~tok:w.tok ~ts);
            w.tok <- w.tok + 1 (* id *);
            push_scope w;
            for i = 2 to Array.length kids - 1 do
              walk w kids.(i)
            done;
            pop_scope w
        | S_param -> (
            let ts = wtype_spec w kids.(0) in
            match kids.(1).Node.kind with
            | Node.Term i when i.term = w.a.ids.id_t ->
                ignore (add_def w ~name:i.text ~kind:Param ~tok:w.tok ~ts);
                w.tok <- w.tok + 1
            | _ -> walk w kids.(1))
        | S_compound ->
            push_scope w;
            Array.iter (walk w) kids;
            pop_scope w
        | S_binop _ | S_paren | S_call0 | S_call | S_other ->
            Array.iter (walk w) kids)

let scope_compute a e nid =
  let n = Hashtbl.find a.nodes nid in
  Query.depend_node e n;
  (* The walk follows the selections the item's decisions made. *)
  if a.mode = Clike then ignore (Query.fetch e a.decide_q nid);
  let w =
    {
      a;
      e;
      tok = 0;
      scopes = [ Hashtbl.create 8 ];
      ndefs = 0;
      rdefs = [];
      used = Hashtbl.create 16;
      ruses = [];
      rctxs = [];
      rdiags = [];
      cur_ts = Sb Unknown;
    }
  in
  walk w n;
  let defs = Array.of_list (List.rev w.rdefs) in
  (* Local use-before-declaration: an unresolved use whose name is
     declared later in this item.  The def counts as used (its only
     reference precedes it) and the use stops being free. *)
  let uses =
    List.filter
      (fun u ->
        let later = ref (-1) in
        Array.iteri
          (fun i d ->
            if
              !later < 0 && d.m_name = u.su_name
              && ns_of_kind d.m_kind = u.su_ns
              && d.m_tok > u.su_tok
            then later := i)
          defs;
        if !later >= 0 then begin
          mark_used w !later;
          w.rdiags <-
            ( u.su_tok,
              "use-before-decl",
              Printf.sprintf "%s is used before its declaration" u.su_name )
            :: w.rdiags;
          false
        end
        else true)
      (List.rev w.ruses)
  in
  (* Unused locals (exported defs are judged across items by the
     driver). *)
  Array.iteri
    (fun i d ->
      if (not d.m_export) && not (Hashtbl.mem w.used i) then
        w.rdiags <-
          ( d.m_tok,
            "unused-binding",
            Printf.sprintf "%s %s is never used" (kind_name d.m_kind) d.m_name )
          :: w.rdiags)
    defs;
  {
    sm_defs =
      Array.mapi
        (fun i d ->
          {
            sd_name = d.m_name;
            sd_kind = d.m_kind;
            sd_tok = d.m_tok;
            sd_ts = d.m_ts;
            sd_export = d.m_export;
            sd_used = Hashtbl.mem w.used i;
            sd_unused =
              (if d.m_export then
                 Printf.sprintf "%s %s is never used" (kind_name d.m_kind)
                   d.m_name
               else "");
          })
        defs;
    sm_uses = uses;
    sm_names =
      List.sort_uniq compare (List.map (fun u -> (u.su_name, u.su_ns)) uses);
    sm_ctxs = List.rev w.rctxs;
    sm_diags = List.sort_uniq compare w.rdiags;
  }

(* ------------------------------------------------------------------ *)
(* Name resolution: free uses against the restricted visible set.      *)

let resolve_compute a e nid =
  let s = Query.fetch e a.scope_q nid in
  let vis =
    match Query.read e a.envnames_in nid with Some v -> v | None -> []
  in
  {
    rv_unresolved =
      List.filter (fun u -> not (List.mem (u.su_name, u.su_ns) vis)) s.sm_uses;
  }

(* ------------------------------------------------------------------ *)
(* Type checking: evaluate the skeleton under the restricted typing
   environment.                                                        *)

let types_compute a e nid =
  let s = Query.fetch e a.scope_q nid in
  let env =
    match Query.read e a.envty_in nid with
    | Some env -> env
    | None -> { te_vals = []; te_types = [] }
  in
  let defs = s.sm_defs in
  let tds =
    Array.to_list defs
    |> List.filter_map (fun d ->
           if d.sd_kind = Type then Some (d.sd_name, d.sd_ts) else None)
  in
  let rec base depth = function
    | Sb b -> b
    | Sinfer -> Unknown
    | Snm n -> (
        if depth > 12 then Unknown
        else
          match List.assoc_opt n tds with
          | Some ts -> base (depth + 1) ts
          | None -> (
              match List.assoc_opt n env.te_types with
              | Some b -> b
              | None -> Unknown))
  in
  let chk = Array.map (fun d -> base 0 d.sd_ts) defs in
  let disp =
    Array.map
      (fun d ->
        match d.sd_ts with Snm n -> Named n | Sb b -> b | Sinfer -> Unknown)
      defs
  in
  let rdiags = ref [] and rtypes = ref [] in
  let mismatch tok a b =
    rdiags :=
      (tok, "type-mismatch", Printf.sprintf "%s vs %s" (ty_name a) (ty_name b))
      :: !rdiags
  in
  let rec eval = function
    | Enum ty -> ty
    | Elocal i -> chk.(i)
    | Efree n -> (
        match List.assoc_opt n env.te_vals with Some ty -> ty | None -> Unknown)
    | Enone -> Unknown
    | Eseq l -> (
        match l with
        | [ e ] -> eval e
        | l ->
            List.iter (fun e -> ignore (eval e)) l;
            Unknown)
    | Ecall (f, args) ->
        List.iter (fun e -> ignore (eval e)) args;
        eval f
    | Ebin (op, tok, x, y) -> (
        let tx = eval x and ty = eval y in
        if tx <> Unknown && ty <> Unknown && tx <> ty then mismatch tok tx ty;
        match (a.mode, op) with
        | Calc, "/" ->
            (* calc's toy arithmetic: / is true division. *)
            Float
        | _, ("==" | "<") -> Int
        | _ -> if tx <> Unknown then tx else ty)
  in
  List.iter
    (fun c ->
      let ty = eval c.tc_ex in
      rtypes := (c.tc_tok, ty) :: !rtypes;
      (match c.tc_check with
      | Some i ->
          if chk.(i) <> Unknown && ty <> Unknown && chk.(i) <> ty then
            mismatch c.tc_tok chk.(i) ty
      | None -> ());
      match c.tc_bind with
      | Some i ->
          chk.(i) <- ty;
          disp.(i) <- ty
      | None -> ())
    s.sm_ctxs;
  let exports = ref [] and tdefs = ref [] and binds = ref [] in
  Array.iteri
    (fun i d ->
      if d.sd_export then begin
        binds := disp.(i) :: !binds;
        if d.sd_kind = Type then tdefs := (d.sd_name, chk.(i)) :: !tdefs
        else exports := (d.sd_name, chk.(i)) :: !exports
      end)
    defs;
  {
    tr_exports = List.rev !exports;
    tr_typedefs = List.rev !tdefs;
    tr_bindings = List.rev !binds;
    tr_types = List.sort compare !rtypes;
    tr_diags = List.sort_uniq compare !rdiags;
  }

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)

let create g =
  let mode =
    match mode_of g with
    | Some m -> m
    | None -> invalid_arg "Diag.create: unsupported grammar"
  in
  let ids =
    {
      id_t = find_t g "id";
      num_t = find_t g "num";
      expr_nt = find_nt g "expr";
      type_spec_nt = find_nt g "type_spec";
      decl_nt = (match mode with Clike -> find_nt g "decl" | Calc -> -1);
    }
  in
  let shapes =
    Array.init (Cfg.num_productions g) (fun p ->
        classify g mode ids (Cfg.production g p))
  in
  let aref = ref None in
  let force name f = Query.define ~name (fun e nid ->
      match !aref with Some a -> f a e nid | None -> assert false)
  in
  let a =
    {
      g;
      mode;
      ids;
      shapes;
      engine = Query.create ();
      decide_q = force "diag.decide" decide_compute;
      scope_q = force "diag.scope" scope_compute;
      resolve_q = force "diag.resolve" resolve_compute;
      types_q = force "diag.types" types_compute;
      tdvis_in = Query.input ~name:"diag.typedefs" ();
      envnames_in = Query.input ~name:"diag.envnames" ();
      envty_in = Query.input ~name:"diag.envty" ();
      nodes = Hashtbl.create 64;
      n_decided = 0;
      n_reinterp = 0;
      n_prefer = 0;
      on_flip = ignore;
    }
  in
  aref := Some a;
  a

let engine a = a.engine
let commit a ~watermark root = Query.commit_tree a.engine ~watermark root
let touch a n = Query.touch_node a.engine n

(* ------------------------------------------------------------------ *)
(* The frame walk: the items are the elements of the start symbol's
   sequence spine.  One pass in document order finds them and, for the
   C subsets, decides the choices outside them and fetches each item's
   decision cell with the file-scope typedefs declared before it.      *)

(* Fetch an item's decisions, setting their input from the frame walk's
   view of the file scope, and declare its exports there. *)
let decide_item a w (it : Node.t) =
  let nid = it.Node.nid in
  let leads =
    match Query.peek a.engine a.tdvis_in nid with
    | Some v -> v.tv_leads
    | None -> leads_of a it
  in
  Query.set a.engine a.tdvis_in nid
    { tv_leads = leads; tv_vis = List.filter (dlookup w) leads };
  let d = Query.fetch a.engine a.decide_q nid in
  List.iter (declare w) d.dc_exports;
  w.d_typedefs <- w.d_typedefs + d.dc_typedefs;
  List.iter (count_sel w) d.dc_sels;
  if d.dc_errors <> [] then w.d_errors <- List.rev_append d.dc_errors w.d_errors

(* Returns the items in document order, each with the absolute offset of
   its first token, the frame walker (its counters total the document's
   decisions) and the file-scope typedef names in force at the end,
   sorted. *)
let frame a root =
  Query.exclusive a.engine @@ fun () ->
  Hashtbl.clear a.nodes;
  a.n_decided <- 0;
  a.n_reinterp <- 0;
  a.n_prefer <- 0;
  let items = ref [] in
  (* The spine is the first sequence node on the selected path.  The walk
     counts every token outside the items, error regions included, so
     [w.tok] is at an item's first token when it is reached; a choice on
     the spine's cons chain is decided before the walk follows it. *)
  let pending = ref true in
  let hook w (n : Node.t) =
    !pending && Sequence.is_sequence a.g n
    && begin
         pending := false;
         Sequence.walk a.g n (fun step (it : Node.t) ->
             match (step, it.Node.kind) with
             | Sequence.Choice, Node.Choice ci when a.mode = Clike ->
                 decide_choice w it ci
             | Sequence.Choice, _ -> ()
             | Sequence.Skip, _ -> dwalk w it
             | Sequence.Element, _ ->
                 Hashtbl.replace a.nodes it.Node.nid it;
                 items := (w.tok, it) :: !items;
                 if a.mode = Clike then decide_item a w it;
                 w.tok <- w.tok + Node.token_count it);
         true
       end
  in
  let running = Hashtbl.create 16 in
  let w =
    dwalker a ~vis:(Hashtbl.mem running)
      ~add_global:(fun x -> Hashtbl.replace running x ())
      ~hook
  in
  dwalk w root;
  let names = Hashtbl.fold (fun x () acc -> x :: acc) running [] in
  (List.rev !items, w, List.sort compare names)

let decide a ?(on_select = ignore) root =
  a.on_flip <- on_select;
  let _, w, names =
    Fun.protect ~finally:(fun () -> a.on_flip <- ignore) (fun () -> frame a root)
  in
  {
    typedef_names = names;
    typedef_decls = w.d_typedefs;
    choices = w.d_choices;
    decided = a.n_decided;
    reinterpreted = a.n_reinterp;
    unresolved = w.d_unresolved;
    prefer_candidates = a.n_prefer;
    sem_errors = List.rev w.d_errors;
  }

(* ------------------------------------------------------------------ *)
(* The per-run pass: fetch cells, thread the environment, aggregate.
   Every per-item list is sorted (the cells sort their own output) and
   the items are disjoint and in token order, so the document's lists
   are concatenations plus a linear merge — no global sort.            *)

let cmp_diag x y =
  match Int.compare x.d_token y.d_token with
  | 0 -> (
      match String.compare x.d_code y.d_code with
      | 0 -> String.compare x.d_message y.d_message
      | c -> c)
  | c -> c

(* Merge two sorted lists, dropping duplicates. *)
let merge_uniq cmp xs ys =
  let push x = function y :: _ as acc when cmp x y = 0 -> acc | acc -> x :: acc in
  let rec go xs ys acc =
    match (xs, ys) with
    | [], [] -> List.rev acc
    | x :: xs', [] | [], x :: xs' -> go xs' [] (push x acc)
    | x :: xs', y :: ys' ->
        if cmp x y <= 0 then go xs' ys (push x acc) else go xs ys' (push y acc)
  in
  go xs ys []

(* One string table per namespace. *)
module Stbl = Hashtbl.Make (String)

type 'a spaces = { ord : 'a Stbl.t; typ : 'a Stbl.t }

let spaces () = { ord = Stbl.create 64; typ = Stbl.create 16 }
let space sp = function Ord -> sp.ord | Typ -> sp.typ
let mem sp name ns = Stbl.mem (space sp ns) name
let add sp name ns v = Stbl.replace (space sp ns) name v

let run a ?typedefs root =
  Query.exclusive a.engine @@ fun () ->
  let items, _, typedef_names = frame a root in
  (match typedefs with
  | Some l when List.sort_uniq compare l <> typedef_names ->
      invalid_arg "Diag.run: ~typedefs disagrees with the computed typedef names"
  | _ -> ());
  let summaries =
    List.map
      (fun (at, (it : Node.t)) ->
        (at, it, Query.fetch a.engine a.scope_q it.Node.nid))
      items
  in
  (* Everything any item exports, for classifying unresolved names. *)
  let all_defs = spaces () in
  List.iter
    (fun (_, _, s) ->
      Array.iter
        (fun d -> if d.sd_export then add all_defs d.sd_name (ns_of_kind d.sd_kind) ())
        s.sm_defs)
    summaries;
  (* The running typing environment: value types and typedef meanings. *)
  let running = spaces () in
  let visible = spaces () in
  let usedname = spaces () in
  let rbindings = ref [] and rdiags = ref [] and rtypes = ref [] in
  List.iter
    (fun (at, (it : Node.t), s) ->
      let abs tok = at + tok in
      let use_names = s.sm_names in
      (* Environment restrictions: only what this item mentions. *)
      let envnames = List.filter (fun (n, ns) -> mem visible n ns) use_names in
      Query.set a.engine a.envnames_in it.Node.nid envnames;
      let r = Query.fetch a.engine a.resolve_q it.Node.nid in
      let restrict ns' =
        List.filter_map
          (fun (n, ns) ->
            if ns = ns' then
              match Stbl.find_opt (space running ns) n with
              | Some ty -> Some (n, ty)
              | None -> None
            else None)
          use_names
      in
      Query.set a.engine a.envty_in it.Node.nid
        { te_vals = restrict Ord; te_types = restrict Typ };
      let tr = Query.fetch a.engine a.types_q it.Node.nid in
      (* Thread the running environment forward. *)
      List.iter (fun (n, ty) -> Stbl.replace running.ord n ty) tr.tr_exports;
      List.iter (fun (n, ty) -> Stbl.replace running.typ n ty) tr.tr_typedefs;
      (* Aggregate. *)
      let btys = ref tr.tr_bindings in
      Array.iter
        (fun d ->
          if d.sd_export then begin
            let ty =
              match !btys with
              | ty :: rest ->
                  btys := rest;
                  ty
              | [] -> Unknown
            in
            let ns = ns_of_kind d.sd_kind in
            (* A name's first exported binding is the one reported. *)
            if not (mem visible d.sd_name ns) then begin
              add visible d.sd_name ns ();
              rbindings :=
                ( { b_name = d.sd_name; b_kind = d.sd_kind; b_ty = ty; b_token = abs d.sd_tok },
                  d.sd_unused )
                :: !rbindings
            end;
            if d.sd_used then add usedname d.sd_name ns ()
          end)
        s.sm_defs;
      List.iter (fun u -> add usedname u.su_name u.su_ns ()) s.sm_uses;
      if s.sm_diags <> [] || tr.tr_diags <> [] || r.rv_unresolved <> [] then begin
        let local l =
          List.map
            (fun (tok, code, msg) -> { d_code = code; d_token = abs tok; d_message = msg })
            l
        in
        (* Unresolved names: declared somewhere -> used before its
           declaration; never declared -> unbound. *)
        let unresolved =
          List.map
            (fun u ->
              let tok = abs u.su_tok and name = u.su_name in
              if mem all_defs name u.su_ns then
                {
                  d_code = "use-before-decl";
                  d_token = tok;
                  d_message = Printf.sprintf "%s is used before its declaration" name;
                }
              else
                {
                  d_code = "unbound-name";
                  d_token = tok;
                  d_message = Printf.sprintf "%s is not defined" name;
                })
            r.rv_unresolved
        in
        let item_diags =
          merge_uniq cmp_diag
            (merge_uniq cmp_diag (local s.sm_diags) (local tr.tr_diags))
            unresolved
        in
        rdiags := List.rev_append item_diags !rdiags
      end;
      if tr.tr_types <> [] then rtypes := (at, tr.tr_types) :: !rtypes)
    summaries;
  (* The bindings in source order, and the unused ones (no use anywhere,
     in any item) with the message their scope cell built. *)
  let bindings = ref [] and unused = ref [] in
  List.iter
    (fun (b, msg) ->
      bindings := b :: !bindings;
      if not (mem usedname b.b_name (ns_of_kind b.b_kind)) then
        unused :=
          { d_code = "unused-binding"; d_token = b.b_token; d_message = msg }
          :: !unused)
    !rbindings;
  let bindings = !bindings and unused = !unused in
  ignore (Query.collect a.engine);
  let rtypes = !rtypes in
  {
    bindings;
    diags = merge_uniq cmp_diag (List.rev !rdiags) unused;
    types =
      lazy
        (List.fold_left
           (fun acc (at, l) ->
             List.rev_append (List.rev_map (fun (tok, ty) -> (at + tok, ty)) l) acc)
           [] rtypes);
    typedefs = typedef_names;
  }

(* ------------------------------------------------------------------ *)
(* Deterministic rendering (the oracle's comparison key).              *)

let render r =
  let b = Buffer.create 256 in
  Buffer.add_string b "((bindings";
  List.iter
    (fun bd ->
      Buffer.add_string b
        (Printf.sprintf " (%s %s %s %d)" bd.b_name (kind_name bd.b_kind)
           (ty_name bd.b_ty) bd.b_token))
    r.bindings;
  Buffer.add_string b ")\n (diags";
  List.iter
    (fun d ->
      Buffer.add_string b
        (Printf.sprintf " (%s %d %S)" d.d_code d.d_token d.d_message))
    r.diags;
  Buffer.add_string b ")\n (types";
  List.iter
    (fun (tok, ty) ->
      Buffer.add_string b (Printf.sprintf " (%d %s)" tok (ty_name ty)))
    (Lazy.force r.types);
  Buffer.add_string b ")\n (typedefs";
  List.iter (fun n -> Buffer.add_string b (" " ^ n)) r.typedefs;
  Buffer.add_string b "))";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The JSON shape shared by the CLI and the daemon.                    *)

let json_fields ~loc r =
  let module J = Metrics.Json in
  [
    ( "diagnostics",
      J.List
        (List.map
           (fun d ->
             let line, col = loc d.d_token in
             J.Obj
               [
                 ("code", J.String d.d_code);
                 ("line", J.Int line);
                 ("col", J.Int col);
                 ("token", J.Int d.d_token);
                 ("message", J.String d.d_message);
               ])
           r.diags) );
    ( "bindings",
      J.List
        (List.map
           (fun b ->
             J.Obj
               [
                 ("name", J.String b.b_name);
                 ("kind", J.String (kind_name b.b_kind));
                 ("type", J.String (ty_name b.b_ty));
               ])
           r.bindings) );
    ("typedefs", J.List (List.map (fun n -> J.String n) r.typedefs));
  ]
