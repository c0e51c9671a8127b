module Node = Parsedag.Node
module Document = Vdoc.Document
module Cfg = Grammar.Cfg

(* Reparse latency distribution across every session in the process;
   log-ish bucket bounds in milliseconds. *)
let m_reparse_ms =
  Metrics.histogram "session.reparse_ms"
    ~bounds:[| 0.1; 0.3; 1.; 3.; 10.; 30.; 100.; 300.; 1000. |]

let m_reparses = Metrics.counter "session.reparses"
let m_recoveries = Metrics.counter "session.recoveries"
let m_isolations = Metrics.counter "session.isolations"
let m_isolation_attempts = Metrics.counter "session.isolation_attempts"
let m_degraded = Metrics.counter "session.degraded"

type t = {
  table : Lrtab.Table.t;
  config : Glr.config;
  mutable budget : Glr.budget;
  doc : Document.t;
  mutable errors : bool;
  mutable on_commit : (watermark:int -> Node.t -> unit) list;
      (* commit subscribers (newest first): invoked after every reparse
         that commits a tree, with the node-allocation watermark captured
         before the parse ran — nodes with nid <= watermark are retained,
         larger nids are fresh.  The query engine's push-invalidation
         feed. *)
  mutable pending_watermark : int option;
      (* allocation watermark carried across flag-only recoveries: a
         failed parse allocates nodes (relexed terminals) that only make
         it into a committed tree on a LATER reparse, so the watermark
         reported to commit subscribers must date back to the last
         commit, not the last attempt. *)
  owner : Mutex.t;
      (* ownership token: a session's document and dag are single-owner
         mutable state, so [edit]/[reparse] refuse concurrent entry
         ([Busy]) instead of corrupting them — the daemon's per-document
         ordering makes [Busy] a scheduler bug, not a user error *)
}

exception Busy

(* Mutating entry points hold the ownership token for their whole
   duration.  [Mutex.try_lock] rather than [lock]: overlapping entry is a
   caller bug (two domains driving one session), and blocking would just
   hide the interleaving instead of reporting it. *)
let owned t f =
  if not (Mutex.try_lock t.owner) then raise Busy;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.owner) f

type location = {
  offset_tokens : int;
  offset_bytes : int;
  line : int;  (* 1-based *)
  col : int;  (* 1-based, in bytes *)
}

type region = {
  r_start : location;
  r_end_byte : int;
  r_tokens : int;
  r_message : string;
}

type outcome =
  | Parsed of Glr.stats
  | Recovered of {
      flagged : int;
      isolated : int;
      degraded : bool;
      error : Glr.error;
      location : location;
    }

let document t = t.doc
let root t = Document.root t.doc
let text t = Document.text t.doc
let table t = t.table
let budget t = t.budget
let has_errors t = t.errors

(* Domain-local request bracket: the registry is sharded per domain, so
   two local snapshots around one request on its executing domain diff
   to exactly that request's activity — other sessions reparsing on
   other domains never leak in.  This is the measurement the parse
   service attaches to request-correlated responses, and the oracle the
   correlation tests replay single-threaded. *)
let measure f =
  let before = Metrics.local_snapshot () in
  let r = f () in
  (r, Metrics.diff (Metrics.local_snapshot ()) before)

(* ------------------------------------------------------------------ *)
(* Locations.                                                          *)

let location_of_token t k =
  let starts = Document.leaf_starts t.doc in
  let leaves = Document.leaves t.doc in
  let k = max 0 (min k (Array.length leaves)) in
  (* Token [k]'s text start, past its leading trivia; the end of the
     last token when [k] is the token count. *)
  let byte =
    if k = Array.length leaves then starts.(k)
    else
      match leaves.(k).Node.kind with
      | Node.Term inf -> starts.(k) + String.length inf.Node.trivia
      | _ -> starts.(k)
  in
  let line = Document.line_of t.doc byte in
  let bol = (Document.line_starts t.doc).(line - 1) in
  { offset_tokens = k; offset_bytes = byte; line; col = byte - bol + 1 }

let token_end_byte t j =
  (Document.leaf_starts t.doc).(max 0 (min (j + 1) (Document.token_count t.doc)))

(* ------------------------------------------------------------------ *)
(* Local error isolation (§4.3 extended): mask the smallest enclosing
   isolation unit out of the token stream, reparse the remainder, and
   splice the damaged run back as an explicit error node.  Isolation
   units are the elements of associative (ECFG) sequences — statements,
   declarations: removing one leaves a program the grammar still
   accepts, which is exactly what makes the damage locally confinable. *)

let grammar t = Lrtab.Table.grammar t.table

(* [n] is a sequence element: its parent — through choice wrappers — is a
   [Seq_one]/[Seq_cons] production of a sequence nonterminal with [n] in
   the element slot (the last kid in every spine pattern). *)
let rec is_seq_element g (n : Node.t) =
  match n.Node.parent with
  | None -> false
  | Some p -> (
      match p.Node.kind with
      | Node.Choice _ -> is_seq_element g p
      | Node.Prod pr -> (
          let prod = Cfg.production g pr in
          Cfg.seq_kind g prod.Cfg.lhs = Cfg.Seq
          &&
          match prod.Cfg.role with
          | Cfg.Seq_one | Cfg.Seq_cons ->
              Array.length p.Node.kids > 0
              && p.Node.kids.(Array.length p.Node.kids - 1) == n
          | Cfg.Seq_empty | Cfg.Plain -> false)
      | _ -> false)

(* Walk the parent path up from leaf [i], offering each node and its
   leaf-index span to [f] until it answers [Some _].  Spans come from
   arithmetic, not lookups (Appendix A's cover()): a parent's first leaf
   is its kid's first leaf minus the token counts of the kids left of
   it; choice alternatives share one yield, so stepping into a choice
   moves nothing.  O(parent-path length x arity). *)
let find_up t i f =
  let rec go (n : Node.t) lo =
    match f n (lo, lo + Node.token_count n - 1) with
    | Some _ as r -> r
    | None -> (
        match n.Node.parent with
        | None -> None
        | Some ({ Node.kind = Node.Choice _; _ } as p) -> go p lo
        | Some p ->
            let rec left k acc =
              if k >= Array.length p.Node.kids || p.Node.kids.(k) == n then acc
              else left (k + 1) (acc + Node.token_count p.Node.kids.(k))
            in
            go p (lo - left 0 0))
  in
  go (Document.leaves t.doc).(i) i

(* Smallest isolation unit containing leaf [i], as a leaf-index span:
   the span of the enclosing error node when [i] sits in an already
   isolated region (keeps the region stable across reparses instead of
   widening to the enclosing statement), else the enclosing sequence
   element, else the single token itself.  Error kids are terminals, so
   an error node on the path is [i]'s parent. *)
let isolation_unit t i =
  let g = grammar t in
  let unit (n : Node.t) s =
    match n.Node.kind with
    | Node.Error _ -> Some s
    | _ -> if is_seq_element g n then Some s else None
  in
  match find_up t i unit with Some s -> s | None -> (i, i)

(* Strictly larger covering unit of run [(lo, hi)], or — when no such
   unit exists (a structureless tree, e.g. after an initial parse
   failure) — the run widened by its own width on each side, so repeated
   escalation reaches an isolable region in logarithmically many
   attempts instead of creeping one token per attempt. *)
let escalate t (lo, hi) =
  let g = grammar t in
  let covers (n : Node.t) (l, h) =
    if is_seq_element g n && l <= lo && hi <= h && (l < lo || hi < h) then
      Some (l, h)
    else None
  in
  match find_up t lo covers with
  | Some r -> r
  | None ->
      let w = max 1 (hi - lo + 1) in
      (max 0 (lo - w), min (Document.token_count t.doc - 1) (hi + w))

(* Isolated error nodes with their leaf spans and messages, in source
   order: one pass over the leaves, no hashing.  An error node's kids are
   exactly a run of leaves, each pointing back at it (the sanitizer's
   [error-node] rules), so a region starts at the leaf that is its
   node's first kid. *)
let error_spans t =
  let leaves = Document.leaves t.doc in
  let spans = ref [] in
  for i = Array.length leaves - 1 downto 0 do
    match leaves.(i).Node.parent with
    | Some ({ Node.kind = Node.Error info; _ } as e)
      when e.Node.kids.(0) == leaves.(i) ->
        let span = (i, i + Node.token_count e - 1) in
        spans := (e, span, info.Node.message) :: !spans
    | _ -> ()
  done;
  !spans

(* Masked-stream token offset -> index in the full leaves array, given
   the sorted, disjoint, non-adjacent masked runs: each run at or before
   the running index pushes it past the run.  An offset past the last
   unmasked token maps to that token; [None] when every token is
   masked. *)
let unmask_offset ~n rs offset =
  let at =
    List.fold_left
      (fun at (lo, hi) -> if lo <= at then at + hi - lo + 1 else at)
      offset rs
  in
  if at < n then Some at
  else
    match List.rev rs with
    | (lo, hi) :: _ when hi = n - 1 -> if lo > 0 then Some (lo - 1) else None
    | _ -> Some (n - 1)

let normalize_runs rs =
  let rs = List.sort_uniq compare rs in
  (* Merge overlapping and adjacent runs so the token after every run is
     always unmasked (the splice anchor). *)
  let rec merge = function
    | (l1, h1) :: (l2, h2) :: rest when l2 <= h1 + 1 ->
        merge ((l1, max h1 h2) :: rest)
    | r :: rest -> r :: merge rest
    | [] -> []
  in
  merge rs

let total_tokens rs = List.fold_left (fun a (l, h) -> a + h - l + 1) 0 rs

exception Give_up

(* The isolation loop.  Invariant at the top of every attempt: the tree
   is whole (all leaves attached).  On success the masked runs are
   spliced back as error nodes and the new tree is committed; on
   [Give_up]/attempt exhaustion the tree is whole again and the caller
   falls back to flag-only recovery. *)
let isolate t ~deadline ~cancel (error : Glr.error) =
  let n = Document.token_count t.doc in
  if n = 0 then None
  else begin
    (* Seed: the unit around the failure point, plus spans of existing
       error regions with no pending edits (their text is still broken).
       A region the user just edited is *not* seeded — it gets its chance
       to integrate cleanly, and is re-added below only if it still
       fails. *)
    let runs =
      ref
        (isolation_unit t (max 0 (min error.Glr.offset_tokens (n - 1)))
        :: List.filter_map
             (fun (e, s, _) -> if Node.has_changes e then None else Some s)
             (error_spans t))
    in
    let result = ref None in
    let prev_total = ref 0 in
    let attempts = ref 0 in
    (try
       while !result = None && !attempts < 12 do
         incr attempts;
         Metrics.incr m_isolation_attempts;
         let rs = normalize_runs !runs in
         runs := rs;
         let tot = total_tokens rs in
         (* Strict progress: every attempt must mask more tokens than the
            previous one, so the loop terminates even without the cap. *)
         if tot <= !prev_total then raise Give_up;
         prev_total := tot;
         let undo =
           List.fold_left
             (fun acc (lo, hi) -> Document.detach_leaves t.doc ~lo ~hi @ acc)
             [] rs
         in
         match
           Glr.parse ~config:t.config ~budget:t.budget ~deadline ?cancel
             t.table (Document.root t.doc)
         with
         | stats ->
             List.iter
               (fun (lo, hi) ->
                 ignore
                   (Document.splice_error t.doc ~message:error.Glr.message ~lo
                      ~hi))
               rs;
             result := Some (rs, tot, stats)
         | exception Glr.Parse_error e2 ->
             Document.reattach undo;
             let at =
               match unmask_offset ~n rs e2.Glr.offset_tokens with
               | Some at -> at
               | None ->
                   (* Every token is masked and the empty program still
                      fails: nothing left to isolate. *)
                   raise Give_up
             in
             let ((ulo, uhi) as u) = isolation_unit t at in
             let adjacent (lo, hi) = at >= lo - 1 && at <= hi + 1 in
             let candidate = normalize_runs (u :: rs) in
             (* A degenerate unit (single token, no enclosing structure)
                right next to an existing run means the failure is just
                cascading off the run's edge: merging it would creep one
                token per attempt, so escalate the run instead. *)
             let creeping = ulo = uhi && List.exists adjacent rs in
             if total_tokens candidate > tot && not creeping then
               runs := candidate
             else
               (* The failing unit is already covered or adjacent: widen
                  the run nearest the new failure point. *)
               runs :=
                 List.map
                   (fun r -> if adjacent r then escalate t r else r)
                   rs
         | exception Glr.Budget_exhausted _ ->
             (* Out of budget mid-isolation: restore and degrade to
                flag-only recovery. *)
             Document.reattach undo;
             raise Give_up
       done
     with Give_up -> ());
    !result
  end

(* ------------------------------------------------------------------ *)

let run_hook t ~watermark =
  t.pending_watermark <- None;
  List.iter
    (fun hook -> hook ~watermark (Document.root t.doc))
    (List.rev t.on_commit)

(* The degradation ladder after a failed (or budget-exhausted) full
   parse: try local isolation under the same absolute deadline; fall
   back to the history-based flag-only recovery of §4.3 (previous
   structure retained, pending modifications marked unincorporated). *)
let recover t ~t0 ~deadline ~cancel ~degraded ~watermark (error : Glr.error) =
  Metrics.incr m_recoveries;
  let location = location_of_token t error.Glr.offset_tokens in
  match isolate t ~deadline ~cancel error with
  | Some (rs, tot, stats) ->
      Metrics.incr m_isolations;
      let degraded = degraded || stats.Glr.degraded in
      if degraded then Metrics.incr m_degraded;
      t.errors <- true;
      Metrics.observe_since m_reparse_ms t0;
      run_hook t ~watermark;
      if Trace.enabled () then
        Trace.instant Trace.Session "recovered"
          [
            ("isolated", Trace.Int (List.length rs));
            ("flagged", Trace.Int tot);
            ("at", Trace.Int error.Glr.offset_tokens);
            ("degraded", Trace.Bool degraded);
          ];
      Recovered
        { flagged = tot; isolated = List.length rs; degraded; error; location }
  | None ->
      if degraded then Metrics.incr m_degraded;
      (* No commit: keep the watermark so the eventual committing
         reparse dirties everything allocated since the last commit. *)
      t.pending_watermark <- Some watermark;
      let flagged = ref 0 in
      List.iter
        (fun (l : Node.t) ->
          if not l.Node.error then begin
            l.Node.error <- true;
            incr flagged
          end)
        (Document.changed_tokens t.doc);
      (* A fully-committed document (the initial parse, or a reparse
         after commit) has no pending modifications to flag; mark the
         failure token itself so the damage still shows up in
         [error_regions] instead of reporting a clean tree. *)
      if !flagged = 0 then begin
        let leaves = Document.leaves t.doc in
        let n = Array.length leaves in
        if n > 0 then begin
          let at = max 0 (min error.Glr.offset_tokens (n - 1)) in
          if not leaves.(at).Node.error then begin
            leaves.(at).Node.error <- true;
            incr flagged
          end
        end
      end;
      t.errors <- true;
      Metrics.observe_since m_reparse_ms t0;
      if Trace.enabled () then
        Trace.instant Trace.Session "recovered"
          [
            ("isolated", Trace.Int 0);
            ("flagged", Trace.Int !flagged);
            ("at", Trace.Int error.Glr.offset_tokens);
            ("degraded", Trace.Bool degraded);
          ];
      Recovered { flagged = !flagged; isolated = 0; degraded; error; location }

let reparse_owned ?cancel t =
  (* The per-edit root span: every glr/gss/reuse/commit event of this
     reparse nests inside it. *)
  Trace.span Trace.Session "reparse" @@ fun () ->
  let t0 = Metrics.start () in
  Metrics.incr m_reparses;
  (* One absolute deadline for the whole reparse: full parse, then every
     isolation attempt, share it — a reparse terminates within the
     deadline budget no matter how recovery unfolds. *)
  let deadline =
    if t.budget.Glr.deadline_ms = infinity then infinity
    else Metrics.now_ms () +. t.budget.Glr.deadline_ms
  in
  let had_errors = t.errors in
  (* Allocation watermark before the parse: nodes the reparse retains
     keep their nid <= watermark, freshly built structure sits above it.
     Commit subscribers use it to dirty exactly the changed subtrees.
     A flag-only recovery leaves its watermark pending: nodes allocated
     by the failed attempt surface in the next committed tree. *)
  let watermark =
    match t.pending_watermark with
    | Some w -> w
    | None -> Node.allocated ()
  in
  match
    Glr.parse ~config:t.config ~budget:t.budget ~deadline ?cancel t.table
      (Document.root t.doc)
  with
  | stats ->
      Metrics.observe_since m_reparse_ms t0;
      t.errors <- false;
      (* Error nodes cannot survive a clean parse (their spine never
         state-matches and they always decompose), but flag-only
         recovery may have left error bits on terminals: clear them so
         [error_regions] reflects the clean state. *)
      if had_errors then
        Array.iter
          (fun (l : Node.t) -> l.Node.error <- false)
          (Document.leaves t.doc);
      run_hook t ~watermark;
      if stats.Glr.degraded then Metrics.incr m_degraded;
      Parsed stats
  | exception Glr.Parse_error error ->
      recover t ~t0 ~deadline ~cancel ~degraded:false ~watermark error
  | exception Glr.Budget_exhausted { kind; offset_tokens } ->
      let error =
        {
          Glr.offset_tokens;
          message = "budget exhausted: " ^ Glr.budget_kind_name kind;
        }
      in
      recover t ~t0 ~deadline ~cancel ~degraded:true ~watermark error

let reparse ?cancel t = owned t (fun () -> reparse_owned ?cancel t)

let create ?(config = Glr.default_config) ?(budget = Glr.no_budget) ~table
    ~lexer text =
  let doc = Document.create ~lexer text in
  let t =
    {
      table;
      config;
      budget;
      doc;
      errors = false;
      on_commit = [];
      pending_watermark = None;
      owner = Mutex.create ();
    }
  in
  (t, reparse t)

let on_commit t hook = t.on_commit <- hook :: t.on_commit
let set_budget t budget = t.budget <- budget

let edit_owned t ~pos ~del ~insert =
  if Trace.enabled () then
    Trace.begin_span Trace.Session "edit"
      [
        ("pos", Trace.Int pos);
        ("del", Trace.Int del);
        ("insert", Trace.Int (String.length insert));
      ];
  match Document.edit t.doc ~pos ~del ~insert with
  | _ -> Trace.end_span Trace.Session "edit" []
  | exception e ->
      Trace.end_span Trace.Session "edit" [ ("exception", Trace.Bool true) ];
      raise e

let edit t ~pos ~del ~insert = owned t (fun () -> edit_owned t ~pos ~del ~insert)

(* ------------------------------------------------------------------ *)
(* Error-region reporting.                                             *)

let error_regions t =
  let leaves = Document.leaves t.doc in
  let n = Array.length leaves in
  let raw = ref (List.map (fun (_, span, msg) -> (span, msg)) (error_spans t)) in
  (* Flag-only recovery leaves error bits on terminals outside any error
     node: report maximal runs of those too. *)
  let inside_error (l : Node.t) =
    match l.Node.parent with
    | Some { Node.kind = Node.Error _; _ } -> true
    | _ -> false
  in
  let flagged i = leaves.(i).Node.error && not (inside_error leaves.(i)) in
  let i = ref 0 in
  while !i < n do
    if flagged !i then begin
      let j = ref !i in
      while !j + 1 < n && flagged (!j + 1) do
        incr j
      done;
      raw := ((!i, !j), "unincorporated edit") :: !raw;
      i := !j + 1
    end
    else incr i
  done;
  List.sort compare !raw
  |> List.map (fun ((lo, hi), msg) ->
         {
           r_start = location_of_token t lo;
           r_end_byte = token_end_byte t hi;
           r_tokens = hi - lo + 1;
           r_message = msg;
         })
