type node = { gid : int; state : int; mutable links : link list }
and link = { head : node; mutable label : Parsedag.Node.t }

(* Atomic for the same reason as [Parsedag.Node.counter]: GSS nodes are
   created concurrently by the daemon's worker domains, and validation
   deduplicates by [gid]. *)
let counter = Atomic.make 0

let make_node ~state links =
  { gid = Atomic.fetch_and_add counter 1 + 1; state; links }

let add_link n l = n.links <- l :: n.links
let make_link ~head ~label = { head; label }
let allocated () = Atomic.get counter

(* The reduction walker.  A linear chain — one link per node for [arity]
   levels, the deterministic common case — is popped in place: the kid
   array fills right to left as the walk descends, and the callback runs
   once, with no list, tuple or closure built.  A forked region collects
   its paths first (each with its own copy of the kid array), so the
   callbacks, which may add links and relabel them, never see a
   half-walked GSS.  Collecting depth first in list order and consing
   each path onto the front yields them with every node's links taken
   last to first. *)
let[@inline] uses through l =
  match through with Some t -> t == l | None -> false

let iter_forked top ~arity ~through k env tag kids =
  let acc = ref [] in
  let rec go n depth used =
    if depth = 0 then begin
      if used then acc := (n, Array.copy kids) :: !acc
    end
    else go_links depth used n.links
  and go_links depth used = function
    | [] -> ()
    | l :: rest ->
        kids.(depth - 1) <- l.label;
        go l.head (depth - 1) (used || uses through l);
        go_links depth used rest
  in
  go top arity (Option.is_none through);
  match !acc with
  | [] -> ()
  | [ (q, ks) ] -> k env tag ~many:false q ks
  | paths -> List.iter (fun (q, ks) -> k env tag ~many:true q ks) paths

let iter_paths top ~arity ~through k env tag =
  if arity = 0 then begin
    if Option.is_none through then k env tag ~many:false top [||]
  end
  else
    match top.links with
    | [] -> ()
    | l0 :: _ ->
        let kids = Array.make arity l0.label in
        let n = ref top and depth = ref arity in
        let used = ref (Option.is_none through) and forked = ref false in
        while !depth > 0 && not !forked do
          match !n.links with
          | [ l ] ->
              kids.(!depth - 1) <- l.label;
              used := !used || uses through l;
              n := l.head;
              decr depth
          | [] -> depth := -1 (* a dead end: no path *)
          | _ :: _ :: _ -> forked := true
        done;
        if !forked then iter_forked top ~arity ~through k env tag kids
        else if !depth = 0 && !used then k env tag ~many:false !n kids

let validate ?max_parsers ~num_states tops =
  let faults = ref [] in
  let fault gid fmt =
    Printf.ksprintf (fun m -> faults := (gid, m) :: !faults) fmt
  in
  (* Under a resource budget the frontier must respect the cap: pruning
     happens before the shift commits, so a wider frontier means the
     budget enforcement is broken. *)
  (match max_parsers with
  | Some cap when List.length tops > cap ->
      fault
        (match tops with n :: _ -> n.gid | [] -> 0)
        "%d active parsers exceed the max-parsers budget %d"
        (List.length tops) cap
  | _ -> ());
  (* Active parsers must carry pairwise distinct states (Tomita's
     invariant: one configuration per state, interpretations merge). *)
  let rec dups = function
    | [] -> ()
    | n :: rest ->
        List.iter
          (fun m ->
            if m.state = n.state then
              fault n.gid "two active parsers in state %d (gid %d and %d)"
                n.state n.gid m.gid)
          rest;
        dups rest
  in
  dups tops;
  (* Links must point strictly toward the stack bottom: state bounds hold
     everywhere and no link path returns to a node on the current path. *)
  let seen = Hashtbl.create 64 in
  let rec walk path n =
    if List.memq n path then
      fault n.gid "cycle through gid %d (state %d)" n.gid n.state
    else if not (Hashtbl.mem seen n.gid) then begin
      Hashtbl.replace seen n.gid ();
      if n.state < 0 || n.state >= num_states then
        fault n.gid "state %d outside [0, %d)" n.state num_states;
      List.iter (fun l -> walk (n :: path) l.head) n.links
    end
  in
  List.iter (walk []) tops;
  List.rev !faults
