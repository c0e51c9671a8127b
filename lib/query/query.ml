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
   constructor, so one cell type serves every query. *)
type value = ..

type value += Unevaluated

(* Cell keys, definition ids and node ids hash as themselves. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (k : int) = k
end)

(* An edge points at the cell it read, so validation follows it without
   a lookup. *)
type dep = Dcell of cell | Dnode of int

and cell = {
  c_query : string;  (* the definition's name, for cycle paths and traces *)
  c_key : int;
  c_input : bool;
  mutable c_value : value;
  mutable c_changed_at : int;  (* revision the value last changed; 0 = never computed *)
  mutable c_verified_at : int;  (* revision last known up to date *)
  mutable c_deps : dep array;  (* in read order *)
  mutable c_computing : bool;  (* cycle detection *)
  mutable c_compute_seq : int;  (* engine compute counter at last compute *)
  mutable c_epoch : int;  (* collection epoch the cell was last used in *)
  mutable c_dead : bool;  (* swept: an edge to it reads as changed *)
  c_recompute : recompute;  (* closes over the definition; no-op for inputs *)
}

and recompute = R of (t -> cell -> unit)

and frame = { f_cell : cell; mutable f_deps : dep list }

and t = {
  tables : cell Itbl.t Itbl.t;  (* definition id -> key -> cell *)
  names : (string, int) Hashtbl.t;  (* name -> the definition id using it *)
  node_rev : int Itbl.t;  (* nid -> revision last marked changed *)
  mutable live : int;  (* cells in [tables] *)
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

(* A cell stamped [rev]: 0 for a derived cell not yet computed. *)
let cell ~query ~key ~input ~value ~rev ~epoch ~dead recompute =
  {
    c_query = query;
    c_key = key;
    c_input = input;
    c_value = value;
    c_changed_at = rev;
    c_verified_at = rev;
    c_deps = [||];
    c_computing = false;
    c_compute_seq = 0;
    c_epoch = epoch;
    c_dead = dead;
    c_recompute = recompute;
  }

(* What a read of an unset input depends on: dead from the start, so
   the reader recomputes until the input exists.  Never mutated. *)
let unset =
  Dcell
    (cell ~query:"" ~key:0 ~input:true ~value:Unevaluated ~rev:0 ~epoch:(-1)
       ~dead:true no_recompute)

let create () =
  {
    tables = Itbl.create 8;
    names = Hashtbl.create 8;
    node_rev = Itbl.create 256;
    live = 0;
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
let cells t = t.live

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
let owned t = t.owner_dom = (Domain.self () :> int)

let enter t f =
  if owned t then f ()
  else if Mutex.try_lock t.owner then begin
    t.owner_dom <- (Domain.self () :> int);
    Fun.protect
      ~finally:(fun () ->
        t.owner_dom <- -1;
        Mutex.unlock t.owner)
      f
  end
  else raise Busy

let exclusive = enter

(* [f t x y] as the owner, with no closure when already owning. *)
let owning t f x y = if owned t then f t x y else enter t (fun () -> f t x y)

(* Structural equality that treats incomparable values (closures in the
   user's value type) as changed rather than raising. *)
let safe_equal a b = try a = b with Invalid_argument _ -> false

let uids = ref 0

(* A query definition, or an input family when [d_compute] is [None]. *)
type 'v def = {
  d_uid : int;
  d_name : string;
  d_equal : value -> value -> bool;
  d_inj : 'v -> value;
  d_proj : value -> 'v;
  d_compute : (t -> int -> 'v) option;
}

type 'v input = 'v def

let make (type v) ~name ~equal compute : v def =
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

let define ~name ?(equal = safe_equal) compute = make ~name ~equal (Some compute)
let input ~name ?(equal = safe_equal) () = make ~name ~equal None

(* The cell of a definition id and key; raises [Not_found]. *)
let find t uid key = Itbl.find (Itbl.find t.tables uid) key

(* Add a definition's cell.  Its first cell claims the definition's name
   in this engine. *)
let add t d c =
  let tbl =
    match Itbl.find t.tables d.d_uid with
    | tbl -> tbl
    | exception Not_found ->
        (match Hashtbl.find_opt t.names d.d_name with
        | Some u when u <> d.d_uid ->
            invalid_arg
              (Printf.sprintf
                 "Query: %s name %S already used by another definition"
                 (if Option.is_none d.d_compute then "input" else "query")
                 d.d_name)
        | _ -> Hashtbl.replace t.names d.d_name d.d_uid);
        let tbl = Itbl.create 64 in
        Itbl.replace t.tables d.d_uid tbl;
        tbl
  in
  Itbl.replace tbl c.c_key c;
  t.live <- t.live + 1;
  Metrics.record_peak m_cells_live t.live

(* ------------------------------------------------------------------ *)
(* Dependency recording.                                               *)

(* Deduplicate against the most recent record only: repeated reads
   arrive in runs, and validation tolerates duplicates. *)
let record t dep =
  match t.stack with
  | f :: _ -> (
      match (f.f_deps, dep) with
      | Dcell a :: _, Dcell b when a == b -> ()
      | Dnode a :: _, Dnode b when a = b -> ()
      | deps, _ -> f.f_deps <- dep :: deps)
  | [] -> ()

let depend_node t (n : Node.t) =
  if owned t then record t (Dnode n.Node.nid)
  else enter t (fun () -> record t (Dnode n.Node.nid))

(* ------------------------------------------------------------------ *)
(* Inputs.                                                             *)

let set_locked t (i : 'v def) key v =
  match find t i.d_uid key with
  | c ->
      let v = i.d_inj v in
      if not (i.d_equal c.c_value v) then begin
        t.rev <- t.rev + 1;
        c.c_value <- v;
        c.c_changed_at <- t.rev;
        c.c_verified_at <- t.rev
      end
  | exception Not_found ->
      t.rev <- t.rev + 1;
      add t i
        (cell ~query:i.d_name ~key ~input:true ~value:(i.d_inj v) ~rev:t.rev
           ~epoch:t.epoch ~dead:false no_recompute)

let set t i key v =
  if owned t then set_locked t i key v else enter t (fun () -> set_locked t i key v)

let read_locked t (i : 'v def) key =
  match find t i.d_uid key with
  | c ->
      if t.stack <> [] then record t (Dcell c);
      c.c_epoch <- t.epoch;
      Some (i.d_proj c.c_value)
  | exception Not_found ->
      record t unset;
      None

let read t i key = owning t read_locked i key

let peek_locked t (i : 'v def) key =
  match find t i.d_uid key with
  | c -> Some (i.d_proj c.c_value)
  | exception Not_found -> None

let peek t i key = owning t peek_locked i key

(* ------------------------------------------------------------------ *)
(* The red-green fetch.                                                *)

let node_changed_since t nid since =
  match Itbl.find t.node_rev nid with
  | r -> r > since
  | exception Not_found -> false

(* Keep a cell verified at this revision alive for the current epoch,
   with everything it depends on: validation will not visit them. *)
let rec keep t c =
  if c.c_epoch <> t.epoch then begin
    c.c_epoch <- t.epoch;
    Array.iter
      (function Dcell d when not d.c_dead -> keep t d | Dcell _ | Dnode _ -> ())
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
           (List.rev_map
              (fun f -> { query = f.f_cell.c_query; key = f.f_cell.c_key })
              t.stack
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
        | Dcell dc ->
            (* A dead dependency was collected, or read unset: recompute. *)
            if dc.c_dead then changed := true
            else begin
              if dc.c_input then dc.c_epoch <- t.epoch else ensure t dc;
              if dc.c_changed_at > c.c_verified_at then changed := true
            end);
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
let run_compute (d : 'v def) compute t c =
  c.c_computing <- true;
  let frame = { f_cell = c; f_deps = [] } in
  t.stack <- frame :: t.stack;
  let cleanup () =
    t.stack <- List.tl t.stack;
    c.c_computing <- false
  in
  let v =
    match
      if Trace.enabled () then
        Trace.span Trace.Query "compute" (fun () -> compute t c.c_key)
      else compute t c.c_key
    with
    | v -> v
    | exception e ->
        cleanup ();
        raise e
  in
  cleanup ();
  c.c_deps <- Array.of_list (List.rev frame.f_deps);
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
  let c =
    match find t d.d_uid key with
    | c -> c
    | exception Not_found ->
        let c =
          cell ~query:d.d_name ~key ~input:false ~value:Unevaluated ~rev:0
            ~epoch:t.epoch ~dead:false (R (run_compute d (Option.get d.d_compute)))
        in
        add t d c;
        Metrics.incr m_misses;
        c
  in
  if t.stack <> [] then record t (Dcell c);
  let seq_before = c.c_compute_seq in
  ensure t c;
  if c.c_compute_seq = seq_before then begin
    t.s_hits <- t.s_hits + 1;
    Metrics.incr m_hits
  end;
  d.d_proj c.c_value

let fetch t d key = owning t fetch_locked d key

(* ------------------------------------------------------------------ *)
(* Dag integration: push invalidation.                                 *)

let touch_node t (n : Node.t) =
  enter t (fun () ->
      t.rev <- t.rev + 1;
      Itbl.replace t.node_rev n.Node.nid t.rev;
      Metrics.incr m_invalidated;
      if Trace.enabled () then
        Trace.instant Trace.Query "touch" [ ("nid", Trace.Int n.Node.nid) ])

let commit_tree t ~watermark root =
  enter t (fun () ->
      t.rev <- t.rev + 1;
      let marked = ref 0 in
      let rec walk (n : Node.t) =
        if n.Node.nid > watermark then begin
          Itbl.replace t.node_rev n.Node.nid t.rev;
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
         unreachable from this epoch's computations.  A swept cell is
         marked dead and lets go of its value and edges. *)
      let epoch = t.epoch in
      let dead = ref [] and floor = ref max_int in
      Itbl.iter
        (fun _ tbl ->
          Itbl.iter
            (fun _ c ->
              if c.c_epoch <> epoch then dead := (tbl, c) :: !dead
              else if not c.c_input then floor := min !floor c.c_verified_at)
            tbl)
        t.tables;
      List.iter
        (fun (tbl, c) ->
          c.c_dead <- true;
          c.c_value <- Unevaluated;
          c.c_deps <- [||];
          Itbl.remove tbl c.c_key)
        !dead;
      (* A node mark dirties only cells verified before it, so marks no
         newer than every surviving cell's verification are spent (and
         cells created later verify later still). *)
      Itbl.filter_map_inplace
        (fun _ r -> if r > !floor then Some r else None)
        t.node_rev;
      let n = List.length !dead in
      t.live <- t.live - n;
      t.epoch <- epoch + 1;
      t.s_collected <- t.s_collected + n;
      Metrics.add m_collected n;
      if Trace.enabled () then
        Trace.instant Trace.Query "collect"
          [ ("dead", Trace.Int n); ("live", Trace.Int t.live) ];
      n)

let clear t =
  enter t (fun () ->
      if t.stack <> [] then
        invalid_arg "Query.clear: called from inside a computation";
      Itbl.reset t.tables;
      Itbl.reset t.node_rev;
      t.live <- 0;
      t.rev <- t.rev + 1;
      t.epoch <- t.epoch + 1)
