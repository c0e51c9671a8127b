type kind =
  | Term of term_info
  | Prod of int
  | Choice of choice_info
  | Error of err_info
  | Bos
  | Eos of eos_info
  | Root

and term_info = {
  term : int;
  mutable text : string;
  mutable trivia : string;
  mutable lex_la : int;
}

and choice_info = { nt : int; mutable selected : int }
and err_info = { mutable message : string }
and eos_info = { mutable trailing : string }

type t = {
  nid : int;
  mutable kind : kind;
  mutable state : int;
  mutable kids : t array;
  mutable parent : t option;
  mutable changed : bool;
  mutable nested : bool;
  mutable error : bool;
  mutable tcount : int;  (* cached terminal count of the subtree *)
}

let nostate = -1

(* Node ids are allocated from a process-global atomic so dags built
   concurrently on several domains (the parse-service daemon) never share
   an id: traversals deduplicate by [nid], and a torn counter could hand
   the same id to two nodes of one dag. *)
let counter = Atomic.make 0
let allocated () = Atomic.get counter

(* Dag-maintenance observability: node allocations, choice packing, and
   the size of the region [commit] actually walks (the rebuilt part of
   the document — the paper's damage, not its size). *)
let m_nodes = Metrics.counter "dag.nodes_allocated"
let m_choices = Metrics.counter "dag.choices_packed"
let m_commits = Metrics.counter "dag.commits"
let m_commit_walked = Metrics.counter "dag.commit_nodes_walked"

let sum_tcount kids =
  Array.fold_left (fun acc (k : t) -> acc + k.tcount) 0 kids

let fresh kind state kids =
  let nid = Atomic.fetch_and_add counter 1 + 1 in
  Metrics.incr m_nodes;
  let tcount =
    match kind with
    | Term _ -> 1
    | Bos | Eos _ -> 0
    | Choice _ -> if Array.length kids = 0 then 0 else kids.(0).tcount
    | Prod _ | Error _ | Root -> sum_tcount kids
  in
  {
    nid;
    kind;
    state;
    kids;
    parent = None;
    changed = false;
    nested = false;
    error = false;
    tcount;
  }

let make_term ~term ~text ~trivia ~lex_la =
  fresh (Term { term; text; trivia; lex_la }) nostate [||]

let make_prod ~prod ~state kids = fresh (Prod prod) state kids

let make_choice ~nt alts =
  if Array.length alts < 2 then invalid_arg "Node.make_choice: < 2 alternatives";
  Metrics.incr m_choices;
  fresh (Choice { nt; selected = -1 }) nostate alts

let m_errors = Metrics.counter "dag.error_nodes"

let make_error ~message kids =
  if Array.length kids = 0 then invalid_arg "Node.make_error: empty";
  Array.iter
    (fun k ->
      match k.kind with
      | Term _ -> ()
      | _ -> invalid_arg "Node.make_error: non-terminal kid")
    kids;
  Metrics.incr m_errors;
  let n = fresh (Error { message }) nostate kids in
  n.error <- true;
  n

let make_bos () = fresh Bos nostate [||]
let make_eos ~trailing = fresh (Eos { trailing }) nostate [||]

let make_root kids =
  (match kids with
  | [||] -> invalid_arg "Node.make_root: empty"
  | _ ->
      (match kids.(0).kind with
      | Bos -> ()
      | _ -> invalid_arg "Node.make_root: first kid must be bos");
      (match kids.(Array.length kids - 1).kind with
      | Eos _ -> ()
      | _ -> invalid_arg "Node.make_root: last kid must be eos"));
  fresh Root nostate kids

let arity n = Array.length n.kids
let is_terminal n = match n.kind with Term _ -> true | _ -> false

let is_sentinel n =
  match n.kind with
  | Bos | Eos _ -> true
  | Term _ | Prod _ | Choice _ | Error _ | Root -> false

let symbol g n =
  match n.kind with
  | Term i -> `T i.term
  | Prod p -> `N (Grammar.Cfg.production g p).lhs
  | Choice c -> `N c.nt
  | Bos | Eos _ | Error _ | Root -> `Other

let rec add_yield buf n =
  match n.kind with
  | Term i ->
      Buffer.add_string buf i.trivia;
      Buffer.add_string buf i.text
  | Eos e -> Buffer.add_string buf e.trailing
  | Bos -> ()
  | Choice _ -> add_yield buf n.kids.(0)
  | Prod _ | Error _ | Root -> Array.iter (add_yield buf) n.kids

let text_yield n =
  let buf = Buffer.create 64 in
  add_yield buf n;
  Buffer.contents buf

let token_count n = n.tcount

let refresh_token_count n =
  n.tcount <-
    (match n.kind with
    | Term _ -> 1
    | Bos | Eos _ -> 0
    | Choice _ -> if Array.length n.kids = 0 then 0 else n.kids.(0).tcount
    | Prod _ | Error _ | Root -> sum_tcount n.kids)

let adjust_token_count n delta =
  let rec up = function
    | None -> ()
    | Some p ->
        p.tcount <- p.tcount + delta;
        up p.parent
  in
  n.tcount <- n.tcount + delta;
  up n.parent

let rec first_terminal n =
  match n.kind with
  | Term _ -> Some n
  | Bos | Eos _ -> None
  | Choice _ -> first_terminal n.kids.(0)
  | Prod _ | Error _ | Root ->
      let rec scan i =
        if i >= Array.length n.kids then None
        else
          match first_terminal n.kids.(i) with
          | Some t -> Some t
          | None -> scan (i + 1)
      in
      scan 0

let chosen n =
  match n.kind with
  | Choice c when c.selected >= 0 && c.selected < Array.length n.kids ->
      Some n.kids.(c.selected)
  | _ -> None

let mark_changed n =
  n.changed <- true;
  let rec up = function
    | None -> ()
    | Some p ->
        if not p.nested then begin
          p.nested <- true;
          up p.parent
        end
  in
  up n.parent

let has_changes n = n.changed || n.nested

let commit root =
  (* Repair parents and clear flags, skipping intact subtrees: a kid whose
     parent pointer already points here and which carries no change bits
     was reused wholesale, so its interior needs no work.  This keeps the
     pass proportional to the rebuilt region, not the document (§3.4).
     Alternatives of a choice are visited in reverse so nodes shared
     between alternatives end up with first-alternative parents (the
     traversal spine). *)
  let intact n k =
    (match k.parent with Some p -> p == n | None -> false)
    && (not k.changed) && not k.nested
  in
  let rec walk ~force n =
    Metrics.incr m_commit_walked;
    n.changed <- false;
    n.nested <- false;
    match n.kind with
    | Term _ | Bos | Eos _ -> ()
    | Choice _ ->
        (* Alternatives share their terminals, and the parent convention
           (first-alternative spine) is established by walking the first
           alternative last.  If any alternative was rebuilt, every
           alternative must be re-walked or shared terminals could keep
           pointers into a later alternative.  Ambiguous regions are small
           (§2.1), so the forced walk stays local. *)
        let any_rebuilt =
          force || Array.exists (fun k -> not (intact n k)) n.kids
        in
        if any_rebuilt then begin
          let up = Some n in
          for i = Array.length n.kids - 1 downto 0 do
            let k = n.kids.(i) in
            k.parent <- up;
            walk ~force:true k
          done
        end
    | Prod _ | Error _ | Root ->
        (* One [Some n], made at the first kid that needs repair. *)
        let up = ref None in
        for i = 0 to Array.length n.kids - 1 do
          let k = n.kids.(i) in
          if force || not (intact n k) then begin
            if Option.is_none !up then up := Some n;
            k.parent <- !up;
            walk ~force k
          end
        done
  in
  Metrics.incr m_commits;
  Trace.span Trace.Commit "commit" @@ fun () ->
  root.parent <- None;
  walk ~force:false root

let rec structural_equal a b =
  let kids_equal () =
    Array.length a.kids = Array.length b.kids
    && Array.for_all2 structural_equal a.kids b.kids
  in
  match a.kind, b.kind with
  | Term x, Term y ->
      x.term = y.term && String.equal x.text y.text
      && String.equal x.trivia y.trivia
  | Prod p, Prod q -> p = q && kids_equal ()
  | Choice x, Choice y -> x.nt = y.nt && kids_equal ()
  | Error _, Error _ -> kids_equal ()
  | Bos, Bos -> true
  | Eos x, Eos y -> String.equal x.trailing y.trailing
  | Root, Root -> kids_equal ()
  | (Term _ | Prod _ | Choice _ | Error _ | Bos | Eos _ | Root), _ -> false

let iter f root =
  let seen = Hashtbl.create 256 in
  let rec walk n =
    if not (Hashtbl.mem seen n.nid) then begin
      Hashtbl.replace seen n.nid ();
      f n;
      Array.iter walk n.kids
    end
  in
  walk root

let count_nodes root =
  let c = ref 0 in
  iter (fun _ -> incr c) root;
  !c
