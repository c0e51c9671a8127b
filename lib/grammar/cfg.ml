type symbol = T of int | N of int

let equal_symbol a b =
  match a, b with
  | T x, T y | N x, N y -> x = y
  | T _, N _ | N _, T _ -> false

let compare_symbol a b =
  match a, b with
  | T x, T y | N x, N y -> compare x y
  | T _, N _ -> -1
  | N _, T _ -> 1

type assoc = Left | Right | Nonassoc
type seq_kind = Not_seq | Seq
type prod_role = Plain | Seq_empty | Seq_one | Seq_cons

type production = {
  p_id : int;
  lhs : int;
  rhs : symbol array;
  role : prod_role;
  prec : (int * assoc) option;
}

type t = {
  terminal_names : string array;
  nonterminal_names : string array;
  productions : production array;
  by_lhs : int array array;
  seq_kinds : seq_kind array;
  term_precs : (int * assoc) option array;
  production_names : string array;
  start : int;
  term_index : (string, int) Hashtbl.t;
  nonterm_index : (string, int) Hashtbl.t;
}

let eof = 0
let num_terminals g = Array.length g.terminal_names
let num_nonterminals g = Array.length g.nonterminal_names
let num_productions g = Array.length g.productions
let terminal_name g i = g.terminal_names.(i)
let nonterminal_name g i = g.nonterminal_names.(i)

let symbol_name g = function
  | T i -> terminal_name g i
  | N i -> nonterminal_name g i

let find_terminal g name = Hashtbl.find g.term_index name
let find_nonterminal g name = Hashtbl.find g.nonterm_index name
let production g i = g.productions.(i)
let productions g = g.productions
let productions_of g nt = g.by_lhs.(nt)
let iter_productions g f = Array.iter f g.productions
let fold_productions g f acc = Array.fold_left f acc g.productions

let rhs_mentions g p sym =
  Array.exists (equal_symbol sym) g.productions.(p).rhs

let operator_terminal g p =
  (* The terminal at the second right-hand position of an infix-shaped
     production [A -> B op ...]: the operator in the interpretation the
     production builds.  Mirrors the dag-side extraction performed by the
     operator-priority disambiguation filter, so static analyses can
     predict the filter's ranking from the production alone. *)
  let rhs = g.productions.(p).rhs in
  if Array.length rhs >= 2 then
    match rhs.(1) with T t -> Some t | N _ -> None
  else None

let start g = g.start
let seq_kind g nt = g.seq_kinds.(nt)
let term_prec g t = g.term_precs.(t)

let pp_symbol g ppf s = Format.pp_print_string ppf (symbol_name g s)

let production_name g i = g.production_names.(i)
let pp_production g ppf i = Format.pp_print_string ppf (production_name g i)

let pp ppf g =
  Format.fprintf ppf "start: %s@." (nonterminal_name g g.start);
  Array.iteri (fun i _ -> Format.fprintf ppf "%3d: %a@." i (pp_production g) i)
    g.productions

let index_names names =
  let h = Hashtbl.create 64 in
  Array.iteri (fun i n -> Hashtbl.replace h n i) names;
  h

let make ~terminal_names ~nonterminal_names ~productions ~seq_kinds
    ~term_precs ~start =
  let nn = Array.length nonterminal_names in
  if start < 0 || start >= nn then invalid_arg "Cfg.make: bad start";
  if Array.length seq_kinds <> nn then
    invalid_arg "Cfg.make: seq_kinds length mismatch";
  if Array.length term_precs <> Array.length terminal_names then
    invalid_arg "Cfg.make: term_precs length mismatch";
  Array.iteri
    (fun i p ->
      if p.p_id <> i then invalid_arg "Cfg.make: production ids must be dense";
      if p.lhs < 0 || p.lhs >= nn then invalid_arg "Cfg.make: bad lhs";
      Array.iter
        (function
          | T t ->
              if t < 0 || t >= Array.length terminal_names then
                invalid_arg "Cfg.make: bad terminal in rhs"
          | N n ->
              if n < 0 || n >= nn then
                invalid_arg "Cfg.make: bad nonterminal in rhs")
        p.rhs)
    productions;
  let by_lhs = Array.make nn [] in
  Array.iter (fun p -> by_lhs.(p.lhs) <- p.p_id :: by_lhs.(p.lhs)) productions;
  let by_lhs = Array.map (fun l -> Array.of_list (List.rev l)) by_lhs in
  (* Rendered once: traced reductions label every event with one. *)
  let production_names =
    Array.map
      (fun p ->
        let name = function
          | T t -> terminal_names.(t)
          | N n -> nonterminal_names.(n)
        in
        String.concat " "
          ((nonterminal_names.(p.lhs) ^ " ->")
          :: (if Array.length p.rhs = 0 then [ "ε" ]
              else Array.to_list (Array.map name p.rhs))))
      productions
  in
  {
    terminal_names;
    nonterminal_names;
    productions;
    by_lhs;
    seq_kinds;
    term_precs;
    production_names;
    start;
    term_index = index_names terminal_names;
    nonterm_index = index_names nonterminal_names;
  }
