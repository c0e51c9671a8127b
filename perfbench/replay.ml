(* In-process replays of the generated request lines, for the traced
   run's per-layer numbers.

   The library replay feeds every line through the public functions the
   daemon calls for it — [Server.Protocol.decode], [Registry.force],
   [Session.create]/[edit]/[reparse], [Diag.commit] from the
   [Session.on_commit] hook, [Typedefs.analyze] and [Diag.run] — and
   wraps each call in a span.  The engine replay feeds the same lines to
   [Server.Engine.handle_line] on an inline engine ([~jobs:0]). *)

module Session = Iglr.Session
module Language = Languages.Language
module Registry = Languages.Registry
module Diag = Semantics.Diag
module Typedefs = Semantics.Typedefs
module P = Server.Protocol

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans.  A span's self time and self allocation exclude the spans
   nested in it (a [Diag.commit] inside a reparse, say), so the layers'
   self figures add up to the op's total without double counting.      *)

type layer =
  | Decode
  | Lrtab
  | Vdoc
  | Open
  | Reparse
  | Commit
  | Typedefs
  | Run

let n_layers = 8

let index = function
  | Decode -> 0
  | Lrtab -> 1
  | Vdoc -> 2
  | Open -> 3
  | Reparse -> 4
  | Commit -> 5
  | Typedefs -> 6
  | Run -> 7

let spans_on = ref false

(* Self time (s), self minor words and entries of each layer in the
   current op. *)
let self_s = Array.make n_layers 0.
let self_words = Array.make n_layers 0.
let entries = Array.make n_layers 0

(* Time and words spent in child spans of each open span. *)
let stack : (float ref * float ref) Stack.t = Stack.create ()

let reset_op () =
  Array.fill self_s 0 n_layers 0.;
  Array.fill self_words 0 n_layers 0.;
  Array.fill entries 0 n_layers 0

let span layer f =
  if not !spans_on then f ()
  else begin
    let child_s = ref 0. and child_w = ref 0. in
    Stack.push (child_s, child_w) stack;
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let w1 = Gc.minor_words () in
      ignore (Stack.pop stack);
      let dt = t1 -. t0 and dw = w1 -. w0 in
      let i = index layer in
      self_s.(i) <- self_s.(i) +. (dt -. !child_s);
      self_words.(i) <- self_words.(i) +. (dw -. !child_w);
      entries.(i) <- entries.(i) + 1;
      match Stack.top_opt stack with
      | Some (ps, pw) ->
          ps := !ps +. dt;
          pw := !pw +. dw
      | None -> ()
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Semantic analyzers, built exactly as the daemon builds them for a
   document's first [diag]: a [Diag] analyzer subscribed to the
   session's commits, plus a typedef disambiguator bridged into it for
   languages with a typedef namespace.  Shared with the from-scratch
   oracle of the correctness checks.                                    *)

type analysis = { diag : Diag.t; tds : Typedefs.t option }

let analysis (lang : Language.t) s =
  let grammar = lang.Language.grammar in
  let diag = Diag.create grammar in
  let tds =
    match Grammar.Cfg.find_terminal grammar "typedef" with
    | _ ->
        let tds =
          Typedefs.create ?policy:lang.Language.ambig.Language.sem_policy grammar
        in
        Typedefs.on_select tds (Diag.touch diag);
        Some tds
    | exception Not_found -> None
  in
  Session.on_commit s (fun ~watermark root ->
      span Commit (fun () -> Diag.commit diag ~watermark root));
  { diag; tds }

let run_diag a s =
  let typedefs =
    match a.tds with
    | Some tds ->
        span Typedefs (fun () -> ignore (Typedefs.analyze tds (Session.root s)));
        Typedefs.global_typedefs tds
    | None -> []
  in
  span Run (fun () -> Diag.run a.diag ~typedefs (Session.root s))

let open_session (lang : Language.t) text =
  Session.create ~table:(Language.table lang) ~lexer:(Language.lexer lang) text

(* ------------------------------------------------------------------ *)
(* The library replay.                                                 *)

type doc = {
  lang : Language.t;
  session : Session.t;
  mutable an : analysis option;
}

(* What one op did, beyond its spans. *)
type op_info = {
  mutable reparses : int;
  mutable recovered : int;
  mutable diags : int;
  mutable recomputed : int;  (** cells recomputed by this op's [Diag.run]s *)
  mutable cells : int;  (** cells live after them *)
  mutable opened : (Language.t * string) list;
}

let op_info () =
  { reparses = 0; recovered = 0; diags = 0; recomputed = 0; cells = 0; opened = [] }

type lib = { docs : (string, doc) Hashtbl.t; forced : (string, unit) Hashtbl.t }

let lib () = { docs = Hashtbl.create 64; forced = Hashtbl.create 8 }

let exec lib info line =
  let fail msg = failwith (Printf.sprintf "library replay: %s in %s" msg line) in
  let find doc =
    match Hashtbl.find_opt lib.docs doc with Some d -> d | None -> fail "unknown doc"
  in
  match span Decode (fun () -> P.decode line) with
  | Error (_, e) -> fail e.P.message
  | Ok (_, req) -> (
      match req with
      | P.Open { doc; lang; text; _ } ->
          let l = match Registry.find lang with Some l -> l | None -> fail "language" in
          if not (Hashtbl.mem lib.forced lang) then begin
            Hashtbl.replace lib.forced lang ();
            span Lrtab (fun () -> Registry.force l)
          end;
          let session, _ = span Open (fun () -> open_session l text) in
          info.opened <- (l, text) :: info.opened;
          Hashtbl.replace lib.docs doc { lang = l; session; an = None }
      | P.Edit { doc; edits } ->
          let d = find doc in
          List.iter
            (fun (e : P.edit_op) ->
              span Vdoc (fun () ->
                  Session.edit d.session ~pos:e.P.pos ~del:e.P.del ~insert:e.P.insert))
            edits
      | P.Parse { doc; _ } -> (
          let d = find doc in
          info.reparses <- info.reparses + 1;
          match span Reparse (fun () -> Session.reparse d.session) with
          | Session.Parsed _ -> ()
          | Session.Recovered _ -> info.recovered <- info.recovered + 1)
      | P.Diag { doc; _ } ->
          let d = find doc in
          let a =
            match d.an with
            | Some a -> a
            | None ->
                let a = analysis d.lang d.session in
                d.an <- Some a;
                a
          in
          let q = Diag.engine a.diag in
          let c0 = (Query.stats q).Query.computes in
          ignore (run_diag a d.session);
          info.diags <- info.diags + 1;
          info.recomputed <- info.recomputed + (Query.stats q).Query.computes - c0;
          info.cells <- info.cells + Query.cells q
      | P.Close { doc } -> Hashtbl.remove lib.docs doc
      | _ -> fail "unexpected method")

(* One replayed op: its wall time, the layers' self times and words
   (zero with spans off) and the whole op's minor words. *)
type sample = {
  op_s : float;
  layer_s : float array;
  layer_words : float array;
  layer_entries : int array;
  words : float;
  info : op_info;
}

let replay_op ~spans lib (op : Gen.op) =
  spans_on := spans;
  reset_op ();
  let info = op_info () in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  List.iter (fun (r : Gen.req) -> exec lib info r.Gen.line) op.Gen.reqs;
  let t1 = now () in
  let words = Gc.minor_words () -. w0 in
  spans_on := false;
  {
    op_s = t1 -. t0;
    layer_s = Array.copy self_s;
    layer_words = Array.copy self_words;
    layer_entries = Array.copy entries;
    words;
    info;
  }

(* A fresh library state with [setup] replayed, from a compacted heap
   so that earlier replays do not tax this one. *)
let start ~spans setup =
  Gc.compact ();
  let lib = lib () in
  (lib, List.map (replay_op ~spans lib) setup)

(* ------------------------------------------------------------------ *)
(* The engine replay: one inline engine, every response line kept.    *)

(* [lines] holds the answers to the ops run since set-up, newest
   first. *)
type engine = { e : Server.Engine.t; lines : string list ref }

let engine_start setup =
  let lines = ref [] in
  let e = Server.Engine.create ~jobs:0 ~emit:(fun line -> lines := line :: !lines) () in
  List.iter
    (fun (op : Gen.op) ->
      List.iter (fun (r : Gen.req) -> Server.Engine.handle_line e r.Gen.line) op.Gen.reqs)
    setup;
  lines := [];
  { e; lines }

(* One op through [handle_line]; inline, so every answer has been
   emitted when it returns.  Returns the op's time in seconds. *)
let engine_op t (op : Gen.op) =
  let t0 = now () in
  List.iter (fun (r : Gen.req) -> Server.Engine.handle_line t.e r.Gen.line) op.Gen.reqs;
  now () -. t0

let engine_stop t = Server.Engine.shutdown t.e
