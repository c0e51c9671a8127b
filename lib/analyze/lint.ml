module Cfg = Grammar.Cfg
module Analysis = Grammar.Analysis
module Table = Lrtab.Table
module Automaton = Lrtab.Automaton
module Item = Lrtab.Item

type severity = Error | Warning | Info

type conflict_class =
  | Prec_resolvable
  | Lexical_ambiguity
  | Genuine_ambiguity

type conflict_info = {
  conflict : Table.conflict;
  klass : conflict_class;
  hint : string;
  example : int list option;
  items : int list;
}

type diagnostic =
  | Unreachable_nt of int
  | Unproductive_nt of int
  | Useless_production of int
  | Derivation_cycle of int list
  | Unused_prec of { level : int; terminals : int list }
  | Dead_filter of { rule : string; why : string; example : int list option }
  | Conflict of conflict_info

let severity = function
  | Unreachable_nt _ | Unproductive_nt _ | Useless_production _
  | Derivation_cycle _ ->
      Error
  | Unused_prec _ | Dead_filter _ -> Warning
  | Conflict _ -> Info

let errors ds = List.filter (fun d -> severity d = Error) ds
let warnings ds = List.filter (fun d -> severity d = Warning) ds

(* ------------------------------------------------------------------ *)
(* Grammar hygiene.                                                    *)

(* Reachability from the start symbol through production right-hand
   sides. *)
let reachable_nts g =
  let seen = Array.make (Cfg.num_nonterminals g) false in
  let rec visit n =
    if not seen.(n) then begin
      seen.(n) <- true;
      Array.iter
        (fun pid ->
          Array.iter
            (function Cfg.N m -> visit m | Cfg.T _ -> ())
            (Cfg.production g pid).Cfg.rhs)
        (Cfg.productions_of g n)
    end
  in
  visit (Cfg.start g);
  seen

(* Unit/ε-cycles: edge A -> B when A -> α B β with α and β nullable, so
   A =>+ A is possible.  Each strongly-connected cycle is reported once,
   anchored at its smallest member, as a witness path in derivation
   order. *)
let derivation_cycles g analysis =
  let nn = Cfg.num_nonterminals g in
  let edges = Array.make nn [] in
  Cfg.iter_productions g (fun p ->
      let rhs = p.Cfg.rhs in
      let len = Array.length rhs in
      let nullable_except k =
        let ok = ref true in
        Array.iteri
          (fun i s ->
            if i <> k && not (Analysis.symbol_nullable analysis s) then
              ok := false)
          rhs;
        !ok
      in
      for k = 0 to len - 1 do
        match rhs.(k) with
        | Cfg.N m when nullable_except k ->
            if not (List.mem m edges.(p.Cfg.lhs)) then
              edges.(p.Cfg.lhs) <- m :: edges.(p.Cfg.lhs)
        | Cfg.N _ | Cfg.T _ -> ()
      done);
  (* For each anchor [a] (ascending), search for a path a =>+ a through
     nodes >= a only, so every cycle is reported exactly once, at its
     smallest member. *)
  let cycles = ref [] in
  for a = 0 to nn - 1 do
    let visited = Array.make nn false in
    let rec dfs path n =
      List.exists
        (fun m ->
          if m = a then begin
            cycles := List.rev path :: !cycles;
            true
          end
          else if m < a || visited.(m) then false
          else begin
            visited.(m) <- true;
            dfs (m :: path) m
          end)
        edges.(n)
    in
    visited.(a) <- true;
    ignore (dfs [ a ] a)
  done;
  List.rev !cycles

(* Precedence levels never consulted: a level is useful if one of its
   terminals occurs in some rhs (it can be a conflict lookahead) or some
   production borrowed the level (explicit %prec or rightmost-terminal
   default). *)
let unused_prec_levels g =
  let by_level = Hashtbl.create 8 in
  for t = 0 to Cfg.num_terminals g - 1 do
    match Cfg.term_prec g t with
    | None -> ()
    | Some (level, _) ->
        Hashtbl.replace by_level level
          (t :: (try Hashtbl.find by_level level with Not_found -> []))
  done;
  let used = Hashtbl.create 8 in
  Cfg.iter_productions g (fun p ->
      (match p.Cfg.prec with
      | Some (level, _) -> Hashtbl.replace used level ()
      | None -> ());
      Array.iter
        (function
          | Cfg.T t -> (
              match Cfg.term_prec g t with
              | Some (level, _) -> Hashtbl.replace used level ()
              | None -> ())
          | Cfg.N _ -> ())
        p.Cfg.rhs);
  Hashtbl.fold
    (fun level terminals acc ->
      if Hashtbl.mem used level then acc
      else Unused_prec { level; terminals = List.sort compare terminals } :: acc)
    by_level []
  |> List.sort compare

let grammar_diagnostics g =
  let yields = Grammar.Yield.shortest_yields g in
  let productive n = yields (Cfg.N n) <> None in
  let reachable = reachable_nts g in
  let analysis = Analysis.compute g in
  let nts = ref [] in
  for n = Cfg.num_nonterminals g - 1 downto 0 do
    if not reachable.(n) then nts := Unreachable_nt n :: !nts
    else if not (productive n) then nts := Unproductive_nt n :: !nts
  done;
  (* A production is useless when it can never appear in a terminal
     derivation even though its lhs otherwise can. *)
  let useless =
    Cfg.fold_productions g
      (fun acc p ->
        let mentions_unproductive =
          Array.exists
            (function Cfg.N n -> not (productive n) | Cfg.T _ -> false)
            p.Cfg.rhs
        in
        if mentions_unproductive && reachable.(p.Cfg.lhs)
           && productive p.Cfg.lhs
        then Useless_production p.Cfg.p_id :: acc
        else acc)
      []
    |> List.rev
  in
  let cycles =
    List.map (fun c -> Derivation_cycle c) (derivation_cycles g analysis)
  in
  !nts @ useless @ cycles @ unused_prec_levels g

(* ------------------------------------------------------------------ *)
(* Conflict diagnostics.                                               *)

let shortest_sentence table ~state ~term =
  match Table.algo table with
  | Table.LR1 -> None
  | Table.SLR | Table.LALR ->
      let auto = Table.automaton table in
      let aug = (Automaton.aug auto).Lrtab.Augment.grammar in
      (* Yield expansion is shared with the ambiguity witness generator
         (Grammar.Yield) — keep it that way. *)
      let yield = Grammar.Yield.shortest_yields aug in
      (* BFS over the LR(0) machine for a shortest symbol path from the
         start state. *)
      let ns = Automaton.num_states auto in
      let prev = Array.make ns None in
      let seen = Array.make ns false in
      let q = Queue.create () in
      let start = Automaton.start_state auto in
      seen.(start) <- true;
      Queue.add start q;
      (try
         while not (Queue.is_empty q) do
           let s = Queue.pop q in
           if s = state then raise Exit;
           List.iter
             (fun (sym, s') ->
               if not seen.(s') then begin
                 seen.(s') <- true;
                 prev.(s') <- Some (s, sym);
                 Queue.add s' q
               end)
             (Automaton.transitions auto s)
         done
       with Exit -> ());
      if not seen.(state) then None
      else begin
        let rec path s acc =
          match prev.(s) with
          | None -> acc
          | Some (s', sym) -> path s' (sym :: acc)
        in
        let syms = path state [] in
        let rec expand = function
          | [] -> Some [ term ]
          | sym :: rest -> (
              match yield sym, expand rest with
              | Some w, Some tail -> Some (w @ tail)
              | None, _ | _, None -> None)
        in
        expand syms
      end

let classify table (c : Table.conflict) =
  let g = Table.grammar table in
  let reduces =
    List.filter_map
      (function Table.Reduce p -> Some p | Table.Shift _ | Table.Accept -> None)
      c.Table.c_actions
  in
  let has_shift =
    List.exists
      (function Table.Shift _ -> true | _ -> false)
      c.Table.c_actions
  in
  let same_rhs p q =
    let a = (Cfg.production g p).Cfg.rhs and b = (Cfg.production g q).Cfg.rhs in
    Array.length a = Array.length b
    && Array.for_all2 Cfg.equal_symbol a b
  in
  let lexical_pair =
    let rec pairs = function
      | [] -> None
      | p :: rest -> (
          match
            List.find_opt
              (fun q ->
                (Cfg.production g p).Cfg.lhs <> (Cfg.production g q).Cfg.lhs
                && same_rhs p q)
              rest
          with
          | Some q -> Some (p, q)
          | None -> pairs rest)
    in
    pairs reduces
  in
  match lexical_pair with
  | Some (p, q) ->
      ( Lexical_ambiguity,
        Printf.sprintf
          "identical right-hand sides reduce to %s and %s: only \
           non-syntactic information (e.g. typedef bindings) can decide; \
           retained for semantic disambiguation"
          (Cfg.nonterminal_name g (Cfg.production g p).Cfg.lhs)
          (Cfg.nonterminal_name g (Cfg.production g q).Cfg.lhs) )
  | None ->
      if has_shift && reduces <> [] then begin
        let tname = Cfg.terminal_name g c.Table.c_term in
        let missing_term = Cfg.term_prec g c.Table.c_term = None in
        let missing_prods =
          List.filter
            (fun p -> (Cfg.production g p).Cfg.prec = None)
            reduces
        in
        let hint =
          match missing_term, missing_prods with
          | true, [] ->
              Printf.sprintf
                "declare precedence for terminal '%s' to resolve statically"
                tname
          | false, _ :: _ ->
              Printf.sprintf
                "give production(s) %s a precedence (%%prec) to resolve \
                 statically"
                (String.concat ", "
                   (List.map string_of_int missing_prods))
          | true, _ :: _ ->
              Printf.sprintf
                "declare precedence for terminal '%s' and production(s) %s \
                 to resolve statically"
                tname
                (String.concat ", " (List.map string_of_int missing_prods))
          | false, [] ->
              "both sides carry precedence; rebuild with resolve_prec to \
               filter statically"
        in
        (Prec_resolvable, hint)
      end
      else
        ( Genuine_ambiguity,
          "structurally distinct interpretations; retained as dag choice \
           nodes" )

let conflict_diagnostics table =
  List.map
    (fun (c : Table.conflict) ->
      let klass, hint = classify table c in
      {
        conflict = c;
        klass;
        hint;
        example =
          shortest_sentence table ~state:c.Table.c_state ~term:c.Table.c_term;
        items = Table.conflict_items table c;
      })
    (Table.conflicts table)

let run table =
  grammar_diagnostics (Table.grammar table)
  @ List.map (fun i -> Conflict i) (conflict_diagnostics table)

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let pp_class ppf = function
  | Prec_resolvable -> Format.pp_print_string ppf "prec-resolvable"
  | Lexical_ambiguity -> Format.pp_print_string ppf "lexical-ambiguity"
  | Genuine_ambiguity -> Format.pp_print_string ppf "genuine-ambiguity"

let pp_severity ppf = function
  | Error -> Format.pp_print_string ppf "error"
  | Warning -> Format.pp_print_string ppf "warning"
  | Info -> Format.pp_print_string ppf "info"

let pp_sentence g ppf terms =
  match terms with
  | [] -> Format.pp_print_string ppf "<empty>"
  | _ ->
      let body, la =
        let rec split acc = function
          | [ last ] -> (List.rev acc, last)
          | x :: rest -> split (x :: acc) rest
          | [] -> assert false
        in
        split [] terms
      in
      List.iter (fun t -> Format.fprintf ppf "%s " (Cfg.terminal_name g t)) body;
      Format.fprintf ppf "\xc2\xb7 %s" (Cfg.terminal_name g la)

let pp_diagnostic table ppf d =
  let g = Table.grammar table in
  Format.pp_open_vbox ppf 0;
  Format.fprintf ppf "%a: " pp_severity (severity d);
  (match d with
  | Unreachable_nt n ->
      Format.fprintf ppf "nonterminal '%s' is unreachable from '%s'"
        (Cfg.nonterminal_name g n)
        (Cfg.nonterminal_name g (Cfg.start g))
  | Unproductive_nt n ->
      Format.fprintf ppf
        "nonterminal '%s' is unproductive (derives no terminal string)"
        (Cfg.nonterminal_name g n)
  | Useless_production p ->
      Format.fprintf ppf
        "production %d (%a) is useless: it mentions an unproductive \
         nonterminal"
        p (Cfg.pp_production g) p
  | Derivation_cycle cycle ->
      Format.fprintf ppf
        "derivation cycle %s: infinitely many parse trees for some inputs \
         (unit/\xce\xb5-cycle)"
        (String.concat " => "
           (List.map (Cfg.nonterminal_name g) (cycle @ [ List.hd cycle ])))
  | Unused_prec { level; terminals } ->
      Format.fprintf ppf
        "precedence level %d (%s) is never used: its terminals occur in no \
         production and no production borrows it"
        level
        (String.concat ", "
           (List.map (fun t -> "'" ^ Cfg.terminal_name g t ^ "'") terminals))
  | Dead_filter { rule; why; example } ->
      Format.fprintf ppf
        "dynamic filter '%s' can never resolve anything: %s" rule why;
      (match example with
      | Some s ->
          Format.fprintf ppf "@,    example: %a" (pp_sentence g) s
      | None -> ())
  | Conflict info ->
      let c = info.conflict in
      Format.fprintf ppf "conflict in state %d on '%s' [%a]: %a@,"
        c.Table.c_state
        (Cfg.terminal_name g c.Table.c_term)
        pp_class info.klass
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " / ")
           Table.pp_action)
        c.Table.c_actions;
      (match info.example with
      | Some s -> Format.fprintf ppf "    example: %a@," (pp_sentence g) s
      | None -> ());
      let ctx = Automaton.ctx (Table.automaton table) in
      List.iter
        (fun item -> Format.fprintf ppf "    item: %a@," (Item.pp ctx) item)
        info.items;
      Format.fprintf ppf "    hint: %s" info.hint);
  Format.pp_close_box ppf ()

let to_json ?language table ds =
  let module J = Metrics.Json in
  let g = Table.grammar table in
  let str_of_severity = function
    | Error -> "error"
    | Warning -> "warning"
    | Info -> "info"
  in
  let rule = function
    | Unreachable_nt _ -> "unreachable-nonterminal"
    | Unproductive_nt _ -> "unproductive-nonterminal"
    | Useless_production _ -> "useless-production"
    | Derivation_cycle _ -> "derivation-cycle"
    | Unused_prec _ -> "unused-precedence"
    | Dead_filter _ -> "dead-filter"
    | Conflict _ -> "retained-conflict"
  in
  let sentence terms =
    String.concat " " (List.map (Cfg.terminal_name g) terms)
  in
  let extras = function
    | Conflict info ->
        let c = info.conflict in
        [
          ("state", J.Int c.Table.c_state);
          ("term", J.String (Cfg.terminal_name g c.Table.c_term));
          ("class", J.String (Format.asprintf "%a" pp_class info.klass));
          ( "example",
            match info.example with
            | Some s -> J.String (sentence s)
            | None -> J.Null );
          ("hint", J.String info.hint);
        ]
    | Unreachable_nt n | Unproductive_nt n ->
        [ ("nonterminal", J.String (Cfg.nonterminal_name g n)) ]
    | Useless_production p -> [ ("production", J.Int p) ]
    | Derivation_cycle cycle ->
        [
          ( "cycle",
            J.List
              (List.map
                 (fun n -> J.String (Cfg.nonterminal_name g n))
                 cycle) );
        ]
    | Unused_prec { level; terminals } ->
        [
          ("level", J.Int level);
          ( "terminals",
            J.List
              (List.map
                 (fun t -> J.String (Cfg.terminal_name g t))
                 terminals) );
        ]
    | Dead_filter { rule; why; example } ->
        [
          ("filter", J.String rule);
          ("why", J.String why);
          ( "example",
            match example with
            | Some s -> J.String (sentence s)
            | None -> J.Null );
        ]
  in
  let finding d =
    J.Obj
      ([
         ("severity", J.String (str_of_severity (severity d)));
         ("rule", J.String (rule d));
         ( "message",
           J.String (Format.asprintf "%a" (pp_diagnostic table) d) );
       ]
      @ extras d)
  in
  let count sev = List.length (List.filter (fun d -> severity d = sev) ds) in
  Envelope.make ~tool:"lint" ?language
    [
      ("findings", J.List (List.map finding ds));
      ("errors", J.Int (count Error));
      ("warnings", J.Int (count Warning));
      ("conflicts", J.Int (count Info));
    ]

let pp_report table ppf ds =
  Format.pp_open_vbox ppf 0;
  List.iter (fun d -> Format.fprintf ppf "%a@," (pp_diagnostic table) d) ds;
  let count sev = List.length (List.filter (fun d -> severity d = sev) ds) in
  Format.fprintf ppf "%d error(s), %d warning(s), %d retained conflict(s)"
    (count Error) (count Warning) (count Info);
  Format.pp_close_box ppf ()
