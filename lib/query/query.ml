(* Salsa-style incremental computation engine (see query.mli for the
   algorithm overview).  The implementation is the classic red-green
   scheme: cells store (value, changed_at, verified_at, deps); a fetch
   validates dependencies in recorded order and recomputes only past
   the first one that actually changed, backdating recomputes whose
   value came out equal so the damage stops there. *)

module Node = Parsedag.Node

(* Process-global observability; the per-engine [stats] counters are
   always on so tests and the differential oracle need not enable the
   registry. *)
let m_computes = Metrics.counter "query.recomputed"
let m_backdated = Metrics.counter "query.backdated"
let m_hits = Metrics.counter "query.hits"
let m_misses = Metrics.counter "query.misses"
let m_collected = Metrics.counter "query.collected"
let m_cells_live = Metrics.peak "query.cells_live"
let m_invalidated = Metrics.counter "query.invalidated_nodes"

type cell_id = { query : string; key : int }

exception Busy
exception Cycle of cell_id list

(* Universal value embedding: each definition/input mints its own
   constructor, so one heterogeneous cell table serves every query. *)
type value = ..

type value += Unevaluated

type dep = Dcell of (string * int) | Dnode of int

type cell = {
  c_query : string;
  c_key : int;
  c_uid : int;  (* definition identity, to catch name collisions *)
  c_input : bool;
  mutable c_value : value;
  mutable c_changed_at : int;  (* revision the value last changed; 0 = never computed *)
  mutable c_verified_at : int;  (* revision last known up to date *)
  mutable c_deps : dep array;  (* in read order *)
  mutable c_computing : bool;  (* cycle detection *)
  mutable c_compute_seq : int;  (* engine compute counter at last compute *)
  mutable c_epoch : int;  (* collection epoch the cell was last used in *)
  c_recompute : recompute;  (* closes over the definition; no-op for inputs *)
}

and recompute = R of (t -> cell -> unit)

and frame = { f_id : cell_id; f_deps : dep list ref }

and t = {
  cells : (string * int, cell) Hashtbl.t;
  node_rev : (int, int) Hashtbl.t;  (* nid -> revision last marked changed *)
  mutable rev : int;
  mutable epoch : int;  (* collection epoch: cells unused in it are swept *)
  mutable stack : frame list;  (* active computations, innermost first *)
  owner : Mutex.t;
  mutable owner_dom : int;
  mutable s_computes : int;
  mutable s_hits : int;
  mutable s_backdated : int;
  mutable s_collected : int;
}

type stats = { computes : int; hits : int; backdated : int; collected : int }

let no_recompute = R (fun _ _ -> ())

let create () =
  {
    cells = Hashtbl.create 256;
    node_rev = Hashtbl.create 256;
    rev = 1;
    epoch = 0;
    stack = [];
    owner = Mutex.create ();
    owner_dom = -1;
    s_computes = 0;
    s_hits = 0;
    s_backdated = 0;
    s_collected = 0;
  }

let revision t = t.rev
let cells t = Hashtbl.length t.cells

let stats t =
  {
    computes = t.s_computes;
    hits = t.s_hits;
    backdated = t.s_backdated;
    collected = t.s_collected;
  }

(* Ownership: the single-owner [Busy] contract of [Session], extended
   to re-entrancy — a computation fetching nested queries re-enters on
   the owning domain and must not re-lock.  [owner_dom] is only ever
   compared against the reader's own domain id, so the unsynchronized
   read is benign: a non-owner can never observe its own id there. *)
let enter t f =
  let self = (Domain.self () :> int) in
  if t.owner_dom = self then f ()
  else if Mutex.try_lock t.owner then begin
    t.owner_dom <- self;
    Fun.protect
      ~finally:(fun () ->
        t.owner_dom <- -1;
        Mutex.unlock t.owner)
      f
  end
  else raise Busy

(* Structural equality that treats incomparable values (closures in the
   user's value type) as changed rather than raising. *)
let safe_equal a b = try a = b with Invalid_argument _ -> false

let uids = ref 0

type 'v def = {
  d_uid : int;
  d_name : string;
  d_equal : value -> value -> bool;
  d_inj : 'v -> value;
  d_proj : value -> 'v;
  d_compute : t -> int -> 'v;
}

let define (type v) ~name ?(equal = safe_equal) (compute : t -> int -> v) :
    v def =
  let module M = struct
    type value += V of v
  end in
  incr uids;
  {
    d_uid = !uids;
    d_name = name;
    d_equal =
      (fun a b -> match (a, b) with M.V a, M.V b -> equal a b | _ -> false);
    d_inj = (fun x -> M.V x);
    d_proj = (function M.V x -> x | _ -> assert false);
    d_compute = compute;
  }

type 'v input = {
  i_uid : int;
  i_name : string;
  i_equal : value -> value -> bool;
  i_inj : 'v -> value;
  i_proj : value -> 'v;
}

let input (type v) ~name ?(equal = safe_equal) () : v input =
  let module M = struct
    type value += V of v
  end in
  incr uids;
  {
    i_uid = !uids;
    i_name = name;
    i_equal =
      (fun a b -> match (a, b) with M.V a, M.V b -> equal a b | _ -> false);
    i_inj = (fun x -> M.V x);
    i_proj = (function M.V x -> x | _ -> assert false);
  }

let collision kind name =
  invalid_arg
    (Printf.sprintf "Query: %s name %S already used by another definition" kind
       name)

(* ------------------------------------------------------------------ *)
(* Dependency recording.                                               *)

let record_dep t dep =
  match t.stack with
  | { f_deps; _ } :: _ -> (
      (* Deduplicate against the most recent record only: repeated
         reads arrive in runs, and validation tolerates duplicates. *)
      match !f_deps with d :: _ when d = dep -> () | _ -> f_deps := dep :: !f_deps)
  | [] -> ()

let depend_node t (n : Node.t) = enter t (fun () -> record_dep t (Dnode n.Node.nid))

(* ------------------------------------------------------------------ *)
(* Inputs.                                                             *)

let set_locked t (i : 'v input) key v =
  let ck = (i.i_name, key) in
  match Hashtbl.find_opt t.cells ck with
  | Some c ->
      if c.c_uid <> i.i_uid then collision "input" i.i_name;
      let v = i.i_inj v in
      if not (i.i_equal c.c_value v) then begin
        t.rev <- t.rev + 1;
        c.c_value <- v;
        c.c_changed_at <- t.rev;
        c.c_verified_at <- t.rev
      end
  | None ->
      t.rev <- t.rev + 1;
      Hashtbl.replace t.cells ck
        {
          c_query = i.i_name;
          c_key = key;
          c_uid = i.i_uid;
          c_input = true;
          c_value = i.i_inj v;
          c_changed_at = t.rev;
          c_verified_at = t.rev;
          c_deps = [||];
          c_computing = false;
          c_compute_seq = 0;
          c_epoch = t.epoch;
          c_recompute = no_recompute;
        };
      Metrics.record_peak m_cells_live (Hashtbl.length t.cells)

let set t i key v = enter t (fun () -> set_locked t i key v)

let read t (i : 'v input) key =
  enter t (fun () ->
      record_dep t (Dcell (i.i_name, key));
      match Hashtbl.find_opt t.cells (i.i_name, key) with
      | Some c ->
          if c.c_uid <> i.i_uid then collision "input" i.i_name;
          c.c_epoch <- t.epoch;
          Some (i.i_proj c.c_value)
      | None -> None)

let peek t (i : 'v input) key =
  enter t (fun () ->
      match Hashtbl.find_opt t.cells (i.i_name, key) with
      | Some c -> Some (i.i_proj c.c_value)
      | None -> None)

(* ------------------------------------------------------------------ *)
(* The red-green fetch.                                                *)

let node_changed_since t nid since =
  match Hashtbl.find_opt t.node_rev nid with
  | Some r -> r > since
  | None -> false

(* Keep a cell verified at this revision alive for the current epoch,
   with everything it depends on: validation will not visit them. *)
let rec keep t c =
  if c.c_epoch <> t.epoch then begin
    c.c_epoch <- t.epoch;
    Array.iter
      (function
        | Dcell ck -> Option.iter (keep t) (Hashtbl.find_opt t.cells ck)
        | Dnode _ -> ())
      c.c_deps
  end

(* Validate-or-recompute [c], leaving [c.c_verified_at = t.rev], and
   mark it used in the current epoch.  Dependencies are checked in
   recorded order and validation stops at the first changed one (later
   dependencies may only be meaningful given the earlier values, so
   checking past it could even spuriously compute dead cells); the
   recompute then marks the dependencies it actually reads. *)
let rec ensure t c =
  if c.c_verified_at = t.rev then keep t c
  else begin
    c.c_epoch <- t.epoch;
    if c.c_computing then
      raise
        (Cycle
           (List.rev_map (fun f -> f.f_id) t.stack
           @ [ { query = c.c_query; key = c.c_key } ]))
    else if c.c_changed_at = 0 then run c t  (* never computed *)
    else begin
      let changed = ref false in
      let deps = c.c_deps in
      let i = ref 0 in
      while (not !changed) && !i < Array.length deps do
        (match deps.(!i) with
        | Dnode nid ->
            if node_changed_since t nid c.c_verified_at then changed := true
        | Dcell ck -> (
            match Hashtbl.find_opt t.cells ck with
            | None ->
                (* The dependency was collected, or was an unset input
                   that has meanwhile been set and cleared: recompute
                   to re-establish it. *)
                changed := true
            | Some dc ->
                if dc.c_input then dc.c_epoch <- t.epoch else ensure t dc;
                if dc.c_changed_at > c.c_verified_at then changed := true));
        incr i
      done;
      if !changed then run c t else c.c_verified_at <- t.rev
    end
  end

and run c t = (match c.c_recompute with R f -> f t c)

(* The body of a derived cell's [c_recompute] closure: execute the
   definition's compute function with a fresh dependency frame, then
   apply early cutoff — an equal value keeps its old [changed_at], so
   dependents of this cell still validate clean. *)
let run_compute (d : 'v def) t c =
  c.c_computing <- true;
  let frame = { f_id = { query = c.c_query; key = c.c_key }; f_deps = ref [] } in
  t.stack <- frame :: t.stack;
  let cleanup () =
    t.stack <- List.tl t.stack;
    c.c_computing <- false
  in
  let v =
    match
      if Trace.enabled () then
        Trace.span Trace.Query "compute" (fun () -> d.d_compute t c.c_key)
      else d.d_compute t c.c_key
    with
    | v -> v
    | exception e ->
        cleanup ();
        raise e
  in
  cleanup ();
  c.c_deps <- Array.of_list (List.rev !(frame.f_deps));
  t.s_computes <- t.s_computes + 1;
  c.c_compute_seq <- t.s_computes;
  Metrics.incr m_computes;
  let nv = d.d_inj v in
  if c.c_changed_at > 0 && d.d_equal c.c_value nv then begin
    (* Backdate: recomputed but unchanged. *)
    t.s_backdated <- t.s_backdated + 1;
    Metrics.incr m_backdated;
    if Trace.enabled () then
      Trace.instant Trace.Query "backdate"
        [ ("q", Trace.Str c.c_query); ("key", Trace.Int c.c_key) ];
    c.c_value <- nv
  end
  else begin
    c.c_value <- nv;
    c.c_changed_at <- t.rev
  end;
  c.c_verified_at <- t.rev

let fetch_locked t (d : 'v def) key : 'v =
  let ck = (d.d_name, key) in
  let c =
    match Hashtbl.find_opt t.cells ck with
    | Some c ->
        if c.c_uid <> d.d_uid then collision "query" d.d_name;
        c
    | None ->
        let c =
          {
            c_query = d.d_name;
            c_key = key;
            c_uid = d.d_uid;
            c_input = false;
            c_value = Unevaluated;
            c_changed_at = 0;
            c_verified_at = 0;
            c_deps = [||];
            c_computing = false;
            c_compute_seq = 0;
            c_epoch = t.epoch;
            c_recompute = R (run_compute d);
          }
        in
        Hashtbl.replace t.cells ck c;
        Metrics.incr m_misses;
        Metrics.record_peak m_cells_live (Hashtbl.length t.cells);
        c
  in
  record_dep t (Dcell ck);
  let seq_before = c.c_compute_seq in
  ensure t c;
  if c.c_compute_seq = seq_before then begin
    t.s_hits <- t.s_hits + 1;
    Metrics.incr m_hits
  end;
  d.d_proj c.c_value

let fetch t d key = enter t (fun () -> fetch_locked t d key)

(* ------------------------------------------------------------------ *)
(* Dag integration: push invalidation.                                 *)

let touch_node t (n : Node.t) =
  enter t (fun () ->
      t.rev <- t.rev + 1;
      Hashtbl.replace t.node_rev n.Node.nid t.rev;
      Metrics.incr m_invalidated;
      if Trace.enabled () then
        Trace.instant Trace.Query "touch" [ ("nid", Trace.Int n.Node.nid) ])

let commit_tree t ~watermark root =
  enter t (fun () ->
      t.rev <- t.rev + 1;
      let marked = ref 0 in
      let rec walk (n : Node.t) =
        if n.Node.nid > watermark then begin
          Hashtbl.replace t.node_rev n.Node.nid t.rev;
          incr marked;
          Array.iter walk n.Node.kids
        end
      in
      (* The starting node may be a long-lived document root mutated in
         place (its kid array is replaced across reparses), so always
         look one level down; below that, a retained node's subtree is
         guaranteed unchanged and the walk prunes — cost is the damage
         size, not the tree size. *)
      (match root.Node.kind with
      | Node.Root -> Array.iter walk root.Node.kids
      | _ -> walk root);
      Metrics.add m_invalidated !marked;
      if Trace.enabled () then
        Trace.instant Trace.Query "commit"
          [ ("rev", Trace.Int t.rev); ("fresh", Trace.Int !marked) ])

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)

let collect t =
  enter t (fun () ->
      if t.stack <> [] then
        invalid_arg "Query.collect: called from inside a computation";
      (* Every fetch, validation and read since the previous collect
         marked the cells it used with the current epoch; the rest are
         unreachable from this epoch's computations. *)
      let epoch = t.epoch in
      let n = ref 0 and floor = ref max_int in
      Hashtbl.filter_map_inplace
        (fun _ c ->
          if c.c_epoch = epoch then begin
            if not c.c_input then floor := min !floor c.c_verified_at;
            Some c
          end
          else begin
            incr n;
            None
          end)
        t.cells;
      (* A node mark dirties only cells verified before it, so marks no
         newer than every surviving cell's verification are spent (and
         cells created later verify later still). *)
      Hashtbl.filter_map_inplace
        (fun _ r -> if r > !floor then Some r else None)
        t.node_rev;
      let n = !n in
      t.epoch <- epoch + 1;
      t.s_collected <- t.s_collected + n;
      Metrics.add m_collected n;
      if Trace.enabled () then
        Trace.instant Trace.Query "collect"
          [ ("dead", Trace.Int n); ("live", Trace.Int (Hashtbl.length t.cells)) ];
      n)

let clear t =
  enter t (fun () ->
      if t.stack <> [] then
        invalid_arg "Query.clear: called from inside a computation";
      Hashtbl.reset t.cells;
      Hashtbl.reset t.node_rev;
      t.rev <- t.rev + 1;
      t.epoch <- t.epoch + 1)
