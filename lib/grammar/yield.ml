(* Shortest terminal yield of every nonterminal (None when unproductive),
   by cost relaxation to a fixpoint.  Moved here from lib/analyze/lint so
   the lint shortest-example search and the ambiguity witness generator
   share one implementation. *)
let yield_fixpoint g =
  let nn = Cfg.num_nonterminals g in
  let cost = Array.make nn max_int in
  let witness = Array.make nn [] in
  let changed = ref true in
  while !changed do
    changed := false;
    Cfg.iter_productions g (fun p ->
        let total = ref 0 and feasible = ref true in
        Array.iter
          (function
            | Cfg.T _ -> incr total
            | Cfg.N n ->
                if cost.(n) = max_int then feasible := false
                else total := !total + cost.(n))
          p.Cfg.rhs;
        if !feasible && !total < cost.(p.Cfg.lhs) then begin
          cost.(p.Cfg.lhs) <- !total;
          witness.(p.Cfg.lhs) <-
            Array.fold_left
              (fun acc s ->
                match s with
                | Cfg.T t -> t :: acc
                | Cfg.N n -> List.rev_append witness.(n) acc)
              [] p.Cfg.rhs
            |> List.rev;
          changed := true
        end)
  done;
  (cost, witness)

let shortest_yields g =
  let cost, witness = yield_fixpoint g in
  fun sym ->
    match sym with
    | Cfg.T t -> Some [ t ]
    | Cfg.N n -> if cost.(n) = max_int then None else Some witness.(n)

(* ------------------------------------------------------------------ *)
(* Bounded sentence enumeration.                                       *)

let compare_sentence a b =
  let c = compare (List.length a) (List.length b) in
  if c <> 0 then c else compare a b

let enumerate ?(max_count = 600) ?(max_work = 200_000) g ~from ~max_len =
  let cost, _ = yield_fixpoint g in
  let min_sym = function
    | Cfg.T _ -> 1
    | Cfg.N n -> cost.(n)
  in
  (* Admissible lower bound on the final sentence length of a sentential
     form; max_int-safe. *)
  let lower prefix_len rest =
    List.fold_left
      (fun acc s ->
        let m = min_sym s in
        if acc = max_int || m = max_int then max_int else acc + m)
      prefix_len rest
  in
  let seen = Hashtbl.create 256 in
  let out = ref [] in
  let q = Queue.create () in
  let work = ref 0 in
  if cost.(from) <> max_int && cost.(from) <= max_len then
    Queue.add ([], [ Cfg.N from ]) q;
  while (not (Queue.is_empty q)) && !work < max_work do
    incr work;
    let rev_prefix, rest = Queue.pop q in
    match rest with
    | [] ->
        let s = List.rev rev_prefix in
        if not (Hashtbl.mem seen s) then begin
          Hashtbl.replace seen s ();
          out := s :: !out
        end
    | Cfg.T t :: tail ->
        Queue.add (t :: rev_prefix, tail) q
    | Cfg.N n :: tail ->
        Array.iter
          (fun pid ->
            let p = Cfg.production g pid in
            let rest' = Array.to_list p.Cfg.rhs @ tail in
            if lower (List.length rev_prefix) rest' <= max_len then
              Queue.add (rev_prefix, rest') q)
          (Cfg.productions_of g n)
  done;
  let sentences = List.sort compare_sentence !out in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  take max_count sentences

(* ------------------------------------------------------------------ *)
(* Minimal surrounding contexts.                                       *)

type context = { pre : int list; post : int list }

let context_len c = List.length c.pre + List.length c.post

let compare_ctx a b =
  let c = compare (context_len a) (context_len b) in
  if c <> 0 then c else compare (a.pre, a.post) (b.pre, b.post)

(* k-best (pre, post) contexts of every nonterminal: ctx(start) ∋ ([],[]);
   an occurrence A -> alpha . N beta extends each context of A with the
   shortest yields of alpha and beta.  Relaxed to a fixpoint, keeping the
   [k] smallest distinct contexts per nonterminal.  Keeping only the
   single minimum would shadow structurally distinct routes — e.g. a
   C declaration's top-level context hides the statement-level one, and
   only the latter exhibits the decl-vs-expression ambiguity. *)
let context_fixpoint ?(k = 4) g =
  let cost, witness = yield_fixpoint g in
  let yield_syms syms =
    (* Concatenated shortest yield of a symbol slice; None when any
       member is unproductive. *)
    let ok = ref true in
    let acc =
      List.concat_map
        (function
          | Cfg.T t -> [ t ]
          | Cfg.N n ->
              if cost.(n) = max_int then begin
                ok := false;
                []
              end
              else witness.(n))
        syms
    in
    if !ok then Some acc else None
  in
  let nn = Cfg.num_nonterminals g in
  let ctx : context list array = Array.make nn [] in
  ctx.(Cfg.start g) <- [ { pre = []; post = [] } ];
  (* Insert [c] into the sorted k-best list of [n]; true when it entered
     (strict improvement, so the relaxation terminates). *)
  let insert n c =
    let cur = ctx.(n) in
    if List.exists (fun c' -> compare_ctx c c' = 0) cur then false
    else
      let merged = List.sort compare_ctx (c :: cur) in
      let rec take i = function
        | [] -> []
        | _ when i = 0 -> []
        | x :: rest -> x :: take (i - 1) rest
      in
      let kept = take k merged in
      if kept <> cur then begin
        ctx.(n) <- kept;
        true
      end
      else false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Cfg.iter_productions g (fun p ->
        List.iter
          (fun { pre; post } ->
            let rhs = p.Cfg.rhs in
            Array.iteri
              (fun i s ->
                match s with
                | Cfg.T _ -> ()
                | Cfg.N n -> (
                    let before = Array.to_list (Array.sub rhs 0 i) in
                    let after =
                      Array.to_list
                        (Array.sub rhs (i + 1) (Array.length rhs - i - 1))
                    in
                    match (yield_syms before, yield_syms after) with
                    | Some yb, Some ya ->
                        if insert n { pre = pre @ yb; post = ya @ post }
                        then changed := true
                    | None, _ | _, None -> ()))
              rhs)
          ctx.(p.Cfg.lhs))
  done;
  (ctx, yield_syms)

let occurrence_contexts ?(max_count = 8) g nt =
  let ctx, yield_syms = context_fixpoint g in
  (* One minimal context per occurrence *site* (production, position):
     site diversity matters more than raw shortness, since witnesses of
     an ambiguity may only exist in one structural position. *)
  let sites = ref [] in
  Cfg.iter_productions g (fun p ->
      let rhs = p.Cfg.rhs in
      Array.iteri
        (fun i s ->
          if s = Cfg.N nt then
            let before = Array.to_list (Array.sub rhs 0 i) in
            let after =
              Array.to_list (Array.sub rhs (i + 1) (Array.length rhs - i - 1))
            in
            match (yield_syms before, yield_syms after) with
            | Some yb, Some ya ->
                let cands =
                  List.map
                    (fun { pre; post } ->
                      { pre = pre @ yb; post = ya @ post })
                    ctx.(p.Cfg.lhs)
                in
                let best =
                  List.fold_left
                    (fun acc c ->
                      match acc with
                      | None -> Some c
                      | Some b -> if compare_ctx c b < 0 then Some c else acc)
                    None cands
                in
                Option.iter (fun c -> sites := c :: !sites) best
            | None, _ | _, None -> ())
        rhs);
  let deduped = List.sort_uniq compare_ctx !sites in
  let rec take i = function
    | [] -> []
    | _ when i = 0 -> []
    | x :: rest -> x :: take (i - 1) rest
  in
  take max_count deduped
