module Cfg = Grammar.Cfg
module Bitset = Grammar.Bitset

type action = Shift of int | Reduce of int | Accept

let equal_action a b =
  match a, b with
  | Shift x, Shift y | Reduce x, Reduce y -> x = y
  | Accept, Accept -> true
  | (Shift _ | Reduce _ | Accept), _ -> false

let pp_action ppf = function
  | Shift s -> Format.fprintf ppf "shift %d" s
  | Reduce p -> Format.fprintf ppf "reduce %d" p
  | Accept -> Format.pp_print_string ppf "accept"

type algo = SLR | LALR | LR1
type conflict = { c_state : int; c_term : int; c_actions : action list }

type t = {
  grammar : Cfg.t;
  algo : algo;
  auto : Automaton.t;  (* the LR(0) machine; LR1 states are separate *)
  analysis : Grammar.Analysis.t;
  num_states : int;
  start : int;
  actions : action list array array;
  goto_nt : int array array;
  nt_actions : action list option array array;
  conflicts : conflict list;
}

let grammar t = t.grammar
let algo t = t.algo
let automaton t = t.auto
let analysis t = t.analysis
let num_states t = t.num_states
let start_state t = t.start
let actions t ~state ~term = t.actions.(state).(term)
let goto t ~state ~nt = t.goto_nt.(state).(nt)
let actions_on_nt t ~state ~nt = t.nt_actions.(state).(nt)
let conflicts t = t.conflicts
let is_deterministic t = t.conflicts = []

let conflicted_states t =
  List.sort_uniq compare (List.map (fun c -> c.c_state) t.conflicts)

(* Yacc-style resolution of one shift/reduce pair.  [`Shift]/[`Reduce]
   keep one action, [`Neither] drops both (nonassoc), [`Keep_both] retains
   the conflict for GLR parsing. *)
let resolve_sr g ~term ~prod =
  match Cfg.term_prec g term, (Cfg.production g prod).prec with
  | Some (tp, tassoc), Some (rp, _) ->
      if rp > tp then `Reduce
      else if rp < tp then `Shift
      else (
        match tassoc with
        | Cfg.Left -> `Reduce
        | Cfg.Right -> `Shift
        | Cfg.Nonassoc -> `Neither)
  | None, _ | _, None -> `Keep_both

(* Conflict collection and the precomputed nonterminal reductions
   (§3.2) are shared by [build] and [with_overrides]: any rewrite of the
   action matrix must leave both derived structures consistent. *)
let collect_conflicts actions =
  let conflicts = ref [] in
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun term entry ->
          if List.length entry > 1 then
            conflicts :=
              { c_state = s; c_term = term; c_actions = entry } :: !conflicts)
        row)
    actions;
  List.rev !conflicts

let compute_nt_actions analysis actions ~num_states:ns ~num_nts:nn =
  let nt_actions = Array.init ns (fun _ -> Array.make nn None) in
  for s = 0 to ns - 1 do
    for n = 0 to nn - 1 do
      if not (Grammar.Analysis.nullable analysis n) then begin
        let first = Grammar.Analysis.first analysis n in
        if not (Bitset.is_empty first) then begin
          let terms = Bitset.elements first in
          match terms with
          | [] -> ()
          | t0 :: rest ->
              let base = actions.(s).(t0) in
              let uniform =
                base <> []
                && List.for_all (function Reduce _ -> true | _ -> false) base
                && List.for_all
                     (fun t ->
                       List.length actions.(s).(t) = List.length base
                       && List.for_all2 equal_action actions.(s).(t) base)
                     rest
              in
              if uniform then nt_actions.(s).(n) <- Some base
        end
      end
    done
  done;
  nt_actions

(* LR-table constructions are expensive and meant to be shared (one lazy
   per [Languages.Language.t], forced once per process): this counter
   lets tooling assert that opening a second document of an
   already-loaded language performs zero table builds. *)
let m_builds = Metrics.counter "lrtab.table_builds"

let build ?(algo = LALR) ?(resolve_prec = true) g =
  Metrics.incr m_builds;
  let aug = Augment.augment g in
  let auto = Automaton.build aug in
  let analysis = Grammar.Analysis.compute aug.grammar in
  let nt = Cfg.num_terminals g in
  let nn = Cfg.num_nonterminals g in
  let ns, start, actions, goto_nt =
    match algo with
    | LR1 ->
        let c = Clr1.build aug analysis in
        let actions =
          Array.map
            (Array.map
               (List.map (function
                 | Clr1.Shift s -> Shift s
                 | Clr1.Reduce p -> Reduce p
                 | Clr1.Accept -> Accept)))
            c.Clr1.actions
        in
        (c.Clr1.num_states, c.Clr1.start, actions, c.Clr1.goto_nt)
    | SLR | LALR ->
        let lalr =
          match algo with
          | LALR -> Some (Lalr.compute auto analysis)
          | SLR | LR1 -> None
        in
        let ns = Automaton.num_states auto in
        let ctx = Automaton.ctx auto in
        let actions = Array.init ns (fun _ -> Array.make nt []) in
        let goto_nt = Array.init ns (fun _ -> Array.make nn (-1)) in
        for s = 0 to ns - 1 do
          for n = 0 to nn - 1 do
            goto_nt.(s).(n) <- Automaton.goto auto s (Cfg.N n)
          done;
          (* Shifts. *)
          for term = 0 to nt - 1 do
            let target = Automaton.goto auto s (Cfg.T term) in
            if target >= 0 then actions.(s).(term) <- [ Shift target ]
          done;
          (* Reductions and accept. *)
          Array.iter
            (fun item ->
              match Item.next_symbol ctx item with
              | Some _ -> ()
              | None ->
                  let pid = Item.prod_of ctx item in
                  if pid = aug.accept_prod then
                    actions.(s).(Cfg.eof) <- actions.(s).(Cfg.eof) @ [ Accept ]
                  else
                    let la =
                      match lalr with
                      | Some l -> Lalr.lookahead l ~state:s ~prod:pid
                      | None ->
                          Grammar.Analysis.follow analysis
                            (Cfg.production g pid).lhs
                    in
                    Bitset.iter
                      (fun term ->
                        actions.(s).(term) <-
                          actions.(s).(term) @ [ Reduce pid ])
                      la)
            (Automaton.state auto s).items
        done;
        (ns, Automaton.start_state auto, actions, goto_nt)
  in
  (* Static precedence filtering, then order entries (shift first, then
     reductions by production id). *)
  for s = 0 to ns - 1 do
    for term = 0 to nt - 1 do
      let entry = actions.(s).(term) in
      let entry =
        if not resolve_prec then entry
        else
          let shift =
            List.find_opt (function Shift _ -> true | _ -> false) entry
          in
          match shift with
          | None -> entry
          | Some shift_action ->
              let keep_shift = ref true in
              let reduces =
                List.filter_map
                  (function
                    | Reduce p -> (
                        match resolve_sr g ~term ~prod:p with
                        | `Shift -> None
                        | `Reduce ->
                            keep_shift := false;
                            Some (Reduce p)
                        | `Neither ->
                            keep_shift := false;
                            None
                        | `Keep_both -> Some (Reduce p))
                    | Shift _ | Accept -> None)
                  entry
              in
              let accepts =
                List.filter (function Accept -> true | _ -> false) entry
              in
              (if !keep_shift then [ shift_action ] else [])
              @ reduces @ accepts
      in
      let entry =
        List.sort_uniq
          (fun a b ->
            let rank = function Shift _ -> 0 | Reduce _ -> 1 | Accept -> 2 in
            match compare (rank a) (rank b) with
            | 0 -> (
                match a, b with
                | Reduce x, Reduce y -> compare x y
                | _ -> 0)
            | c -> c)
          entry
      in
      actions.(s).(term) <- entry
    done
  done;
  let conflicts = collect_conflicts actions in
  let nt_actions =
    compute_nt_actions analysis actions ~num_states:ns ~num_nts:nn
  in
  { grammar = g; algo; auto; analysis; num_states = ns; start; actions;
    goto_nt; nt_actions; conflicts }

let with_overrides t overrides =
  if overrides = [] then t
  else
    let actions = Array.map Array.copy t.actions in
    List.iter
      (fun ((state, term), action) ->
        let entry = actions.(state).(term) in
        if not (List.exists (equal_action action) entry) then
          invalid_arg
            (Printf.sprintf
               "Table.with_overrides: state %d on %s: chosen action absent \
                from entry"
               state
               (Cfg.terminal_name t.grammar term));
        actions.(state).(term) <- [ action ])
      overrides;
    let conflicts = collect_conflicts actions in
    let nt_actions =
      compute_nt_actions t.analysis actions ~num_states:t.num_states
        ~num_nts:(Cfg.num_nonterminals t.grammar)
    in
    { t with actions; nt_actions; conflicts }

let conflict_items t c =
  match t.algo with
  | LR1 -> []
  | SLR | LALR ->
      let ctx = Automaton.ctx t.auto in
      let reduced =
        List.filter_map
          (function Reduce p -> Some p | Shift _ | Accept -> None)
          c.c_actions
      in
      Array.to_list (Automaton.state t.auto c.c_state).Automaton.items
      |> List.filter (fun item ->
             match Item.next_symbol ctx item with
             | Some (Cfg.T term) ->
                 term = c.c_term
                 && List.exists
                      (function Shift _ -> true | _ -> false)
                      c.c_actions
             | Some (Cfg.N _) -> false
             | None -> List.mem (Item.prod_of ctx item) reduced)

let pp_conflict t ppf c =
  Format.fprintf ppf "state %d on %s: %a" c.c_state
    (Cfg.terminal_name t.grammar c.c_term)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " / ")
       pp_action)
    c.c_actions

let pp_stats ppf t =
  Format.fprintf ppf "states: %d, conflicts: %d (in %d states)"
    (num_states t)
    (List.length t.conflicts)
    (List.length (conflicted_states t))
