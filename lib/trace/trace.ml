(* Structured, low-overhead tracing for the incremental engine.

   Complements lib/metrics (aggregate counters) with a *narrative* view:
   typed begin/end/instant events with monotone timestamps, recorded into
   preallocated ring buffers behind a process-global sink.  When the
   sink is disabled every emission is a single branch; hot paths that
   would have to allocate an argument list guard on [enabled ()] first,
   mirroring the [tracing] pattern the old string-callback hook used.

   Domain safety: each domain records into its own ring (keyed by the
   same slot assignment lib/metrics shards its handles on), stamping the
   domain id on every event, so worker domains never contend on a slot
   or tear each other's writes.  [events] merges the rings time-ordered;
   the Chrome export maps the domain id to [tid], one Perfetto lane per
   domain.  Recording overwrites one slot of preallocated columns in
   place (a timestamp read plus a store per field and per argument; no
   allocation is retained), and on overflow the oldest events of that
   domain are dropped, never the parse. *)

module Json = Metrics.Json

type cat = Lex | Relex | Glr | Gss | Reuse | Commit | Filter | Session | Query

let cat_name = function
  | Lex -> "lex"
  | Relex -> "relex"
  | Glr -> "glr"
  | Gss -> "gss"
  | Reuse -> "reuse"
  | Commit -> "commit"
  | Filter -> "filter"
  | Session -> "session"
  | Query -> "query"

type arg = Int of int | Str of string | Bool of bool

type phase = Begin | End | Instant

type event = {
  seq : int;
  ts : float;
  did : int;
  phase : phase;
  cat : cat;
  name : string;
  args : (string * arg) list;
}

(* ------------------------------------------------------------------ *)
(* Per-domain rings.                                                   *)

(* A ring is three preallocated arrays indexed by [seq mod capacity]:
   each event owns one timestamp, [ints_per] ints (a header packing the
   domain id, phase, category and argument tags, then one payload per
   argument) and [strs_per] strings (name, request id, then a key and a
   [Str] payload per argument).  Recording copies the caller's arguments
   into its slots, so the ring does not retain a call site's list for
   the minor GC to promote.  Only the few events with more than
   [inline_args] arguments (a relex splice, a state-mismatch reuse
   rejection) keep the tail of their list, in [r_more]. *)
let inline_args = 4
let ints_per = 1 + inline_args
let strs_per = 2 + (2 * inline_args)

type ring = {
  r_cap : int;
  r_ts : Float.Array.t;
  r_int : int array;
  r_str : string array;
  r_more : (string * arg) list array;
}

(* Header bits: phase (2), category (4), argument count (3), a 2-bit
   tag per inline argument, then the domain id. *)
let phases = [| Begin; End; Instant |]
let cats = [| Lex; Relex; Glr; Gss; Reuse; Commit; Filter; Session; Query |]
let phase_code = function Begin -> 0 | End -> 1 | Instant -> 2

let cat_code = function
  | Lex -> 0
  | Relex -> 1
  | Glr -> 2
  | Gss -> 3
  | Reuse -> 4
  | Commit -> 5
  | Filter -> 6
  | Session -> 7
  | Query -> 8

let tag_int = 0
let tag_str = 1
let tag_bool = 2
let tag_shift j = 9 + (2 * j)
let did_shift = tag_shift inline_args

(* One shard per domain slot, created lazily the first time that domain
   records.  [sh_ctx] is the current request id, stamped onto every
   event recorded while a [with_request] bracket is open on that
   domain. *)
type shard = {
  mutable sh_ring : ring;
  mutable sh_next : int;
  mutable sh_ctx : string;
}

let on = ref false
let capacity = ref 65536

let shards : shard option array = Array.make Metrics.domain_slots None

(* Guards shard creation and capacity changes; readers ([events],
   [recorded], ...) take it too, so a freshly published shard is always
   seen fully initialised. *)
let shard_mutex = Mutex.create ()

let new_ring n =
  {
    r_cap = n;
    r_ts = Float.Array.make n 0.;
    r_int = Array.make (n * ints_per) 0;
    r_str = Array.make (n * strs_per) "";
    r_more = Array.make n [];
  }

let my_shard () =
  let i = Metrics.domain_slot () in
  match shards.(i) with
  | Some sh -> sh
  | None ->
      Mutex.lock shard_mutex;
      let sh =
        match shards.(i) with
        | Some sh -> sh
        | None ->
            let sh =
              { sh_ring = new_ring !capacity; sh_next = 0; sh_ctx = "" }
            in
            shards.(i) <- Some sh;
            sh
      in
      Mutex.unlock shard_mutex;
      sh

let iter_shards f =
  Mutex.lock shard_mutex;
  Array.iter (function Some sh -> f sh | None -> ()) shards;
  Mutex.unlock shard_mutex

let enabled () = !on

let set_capacity n =
  if n < 1 then invalid_arg "Trace.set_capacity: capacity must be positive";
  Mutex.lock shard_mutex;
  capacity := n;
  Array.iter
    (function
      | Some sh when sh.sh_ring.r_cap <> n ->
          sh.sh_ring <- new_ring n;
          sh.sh_next <- 0
      | _ -> ())
    shards;
  Mutex.unlock shard_mutex

let set_enabled b =
  if b then ignore (my_shard ());
  on := b

let clear () = iter_shards (fun sh -> sh.sh_next <- 0)

let recorded () =
  let n = ref 0 in
  iter_shards (fun sh -> n := !n + sh.sh_next);
  !n

let dropped () =
  let n = ref 0 in
  iter_shards (fun sh -> n := !n + max 0 (sh.sh_next - sh.sh_ring.r_cap));
  !n

(* Copies arguments [j..] into event [i]'s slots; returns the header's
   argument bits. *)
let rec put_args r i j bits = function
  | [] ->
      if r.r_more.(i) != [] then r.r_more.(i) <- [];
      bits lor (j lsl 6)
  | rest when j = inline_args ->
      r.r_more.(i) <- rest;
      bits lor (j lsl 6)
  | (k, v) :: rest ->
      let vi = (i * ints_per) + 1 + j and si = (i * strs_per) + 2 + (2 * j) in
      r.r_str.(si) <- k;
      let tag =
        match v with
        | Int n ->
            r.r_int.(vi) <- n;
            tag_int
        | Str s ->
            r.r_str.(si + 1) <- s;
            tag_str
        | Bool b ->
            r.r_int.(vi) <- Bool.to_int b;
            tag_bool
      in
      put_args r i (j + 1) (bits lor (tag lsl tag_shift j)) rest

(* The clock is wall time clamped to never run backwards past the
   shard's previous event, so each domain's stream is non-decreasing by
   construction (and the merged stream is, because it is sorted). *)
let record phase cat name args =
  if !on then begin
    let sh = my_shard () in
    let r = sh.sh_ring in
    let n = sh.sh_next in
    let i = n mod r.r_cap in
    let t = Unix.gettimeofday () in
    let t =
      if n = 0 then t
      else
        Float.max t
          (Float.Array.get r.r_ts (if i = 0 then r.r_cap - 1 else i - 1))
    in
    Float.Array.set r.r_ts i t;
    let si = i * strs_per in
    r.r_str.(si) <- name;
    if r.r_str.(si + 1) != sh.sh_ctx then r.r_str.(si + 1) <- sh.sh_ctx;
    r.r_int.(i * ints_per) <-
      put_args r i 0
        (phase_code phase
        lor (cat_code cat lsl 2)
        lor ((Domain.self () :> int) lsl did_shift))
        args;
    sh.sh_next <- n + 1
  end

let[@inline] instant cat name args = record Instant cat name args
let[@inline] begin_span cat name args = record Begin cat name args
let[@inline] end_span cat name args = record End cat name args

let span cat name f =
  if not !on then f ()
  else begin
    record Begin cat name [];
    match f () with
    | v ->
        record End cat name [];
        v
    | exception e ->
        record End cat name [ ("exception", Bool true) ];
        raise e
  end

(* Request-id context: one bracket per scheduled request, set on the
   domain the request executes on.  Every event recorded inside carries
   an extra ("rid", Str id) argument, which is what lets a merged
   multi-domain stream be attributed back to individual RPCs. *)
let with_request rid f =
  if not !on then f ()
  else begin
    let sh = my_shard () in
    let saved = sh.sh_ctx in
    sh.sh_ctx <- rid;
    Fun.protect ~finally:(fun () -> sh.sh_ctx <- saved) f
  end

let shard_events sh =
  let r = sh.sh_ring in
  let first = max 0 (sh.sh_next - r.r_cap) in
  let out = ref [] in
  for seq = sh.sh_next - 1 downto first do
    let i = seq mod r.r_cap in
    let h = r.r_int.(i * ints_per) and si = i * strs_per in
    let arg j =
      let vi = (i * ints_per) + 1 + j and si = si + 2 + (2 * j) in
      let tag = (h lsr tag_shift j) land 3 in
      ( r.r_str.(si),
        if tag = tag_str then Str r.r_str.(si + 1)
        else if tag = tag_bool then Bool (r.r_int.(vi) <> 0)
        else Int r.r_int.(vi) )
    in
    let args = List.init ((h lsr 6) land 7) arg @ r.r_more.(i) in
    let rid = r.r_str.(si + 1) in
    out :=
      {
        seq;
        ts = Float.Array.get r.r_ts i;
        did = h lsr did_shift;
        phase = phases.(h land 3);
        cat = cats.((h lsr 2) land 15);
        name = r.r_str.(si);
        args = (if rid = "" then args else ("rid", Str rid) :: args);
      }
      :: !out
  done;
  !out

(* Merged, time-ordered view over every domain's ring.  Ties (clamped
   clocks produce them) break on (did, seq) so the order is total and
   each domain's substream stays in emission order. *)
let events () =
  let all = ref [] in
  iter_shards (fun sh -> all := shard_events sh :: !all);
  List.concat !all
  |> List.stable_sort (fun a b ->
         match Float.compare a.ts b.ts with
         | 0 -> (
             match Int.compare a.did b.did with
             | 0 -> Int.compare a.seq b.seq
             | c -> c)
         | c -> c)

(* ------------------------------------------------------------------ *)
(* Argument access.                                                    *)

let str_arg name e =
  match List.assoc_opt name e.args with Some (Str s) -> Some s | _ -> None

let int_arg name e =
  match List.assoc_opt name e.args with Some (Int n) -> Some n | _ -> None

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let pp_arg ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Str s -> Format.fprintf ppf "%S" s
  | Bool b -> Format.pp_print_bool ppf b

let pp_event ppf e =
  Format.fprintf ppf "%c %s.%s"
    (match e.phase with Begin -> 'B' | End -> 'E' | Instant -> 'i')
    (cat_name e.cat) e.name;
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%a" k pp_arg v) e.args

(* The pretty-printer kept for the Appendix B golden traces: the exact
   strings the retired [Glr.config.trace] callback used to produce. *)
let to_legacy_string e =
  let str n = str_arg n e and int n = int_arg n e in
  match (e.cat, e.name) with
  | Glr, "reduce" -> (
      match (str "prod", int "target") with
      | Some p, Some t -> Some (Printf.sprintf "reduce: %s (target state %d)" p t)
      | _ -> None)
  | Glr, "shift" -> (
      match (str "yield", str "symbol", int "tokens", int "parsers") with
      | Some y, _, _, Some n ->
          Some (Printf.sprintf "shift: %S -> %d parser(s)" y n)
      | None, Some s, Some k, Some n ->
          Some (Printf.sprintf "shift: %s (%d tokens) -> %d parser(s)" s k n)
      | _ -> None)
  | Gss, "pack" -> (
      match (str "symbol", int "alts") with
      | Some s, Some n ->
          Some
            (Printf.sprintf "amb: symbol node for %s (%d interpretations)" s n)
      | _ -> None)
  | Gss, "merge" -> (
      match (str "symbol", str "kind") with
      | Some s, Some "duplicate" ->
          Some
            (Printf.sprintf "merge: duplicate interpretation of %s folded" s)
      | Some s, Some _ ->
          Some (Printf.sprintf "merge: new interpretation of %s" s)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export (Perfetto / chrome://tracing).            *)

module Export = struct
  let json_of_arg = function
    | Int n -> Json.Int n
    | Str s -> Json.String s
    | Bool b -> Json.Bool b

  let to_chrome evs =
    let t0 = match evs with [] -> 0. | e :: _ -> e.ts in
    let event e =
      Json.Obj
        ([
           ("name", Json.String e.name);
           ("cat", Json.String (cat_name e.cat));
           ( "ph",
             Json.String
               (match e.phase with Begin -> "B" | End -> "E" | Instant -> "i")
           );
           (* Chrome expects microseconds; rebase on the first event so
              the numbers stay readable. *)
           ("ts", Json.Float ((e.ts -. t0) *. 1e6));
           ("pid", Json.Int 1);
           (* One lane per domain: Perfetto draws each tid as its own
              track, so a multi-domain reparse storm reads like a
              per-worker timeline. *)
           ("tid", Json.Int e.did);
         ]
        @ (match e.phase with
          | Instant -> [ ("s", Json.String "t") ]
          | Begin | End -> [])
        @
        match e.args with
        | [] -> []
        | args ->
            [
              ( "args",
                Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args) );
            ])
    in
    Json.Obj
      [
        ("traceEvents", Json.List (List.map event evs));
        ("displayTimeUnit", Json.String "ms");
      ]
end

(* ------------------------------------------------------------------ *)
(* Stream well-formedness (the test_trace_events invariants).          *)

module Check = struct
  (* Span discipline is per domain: a span begins and ends on the domain
     that executes it, so the merged stream carries one independent
     stack per [did] (and one shared non-decreasing clock, which the
     sorted merge guarantees structurally). *)
  let well_formed evs =
    let faults = ref [] in
    let fault fmt =
      Printf.ksprintf (fun m -> faults := m :: !faults) fmt
    in
    let prev_ts = ref neg_infinity in
    let stacks : (int, (cat * string) list) Hashtbl.t = Hashtbl.create 4 in
    let stack did = Option.value ~default:[] (Hashtbl.find_opt stacks did) in
    List.iter
      (fun e ->
        if e.ts < !prev_ts then
          fault "event %d (%s.%s): timestamp went backwards" e.seq
            (cat_name e.cat) e.name;
        prev_ts := e.ts;
        match e.phase with
        | Begin -> Hashtbl.replace stacks e.did ((e.cat, e.name) :: stack e.did)
        | End -> (
            match stack e.did with
            | (c, n) :: rest when c = e.cat && n = e.name ->
                Hashtbl.replace stacks e.did rest
            | (c, n) :: _ ->
                fault "event %d: end of %s.%s inside open span %s.%s" e.seq
                  (cat_name e.cat) e.name (cat_name c) n
            | [] ->
                fault "event %d: end of %s.%s with no open span" e.seq
                  (cat_name e.cat) e.name)
        | Instant -> ())
      evs;
    Hashtbl.iter
      (fun did ->
        List.iter (fun (c, n) ->
            fault "span %s.%s never ended (domain %d)" (cat_name c) n did))
      stacks;
    List.rev !faults
end

(* ------------------------------------------------------------------ *)
(* Per-edit reuse explanation, derived from the event stream.          *)

module Explain = struct
  type subtree = {
    symbol : string;
    tok_from : int;  (** token offset where the decision was taken *)
    tokens : int;  (** yield length of the candidate subtree *)
    reason : string;  (** reject slug; "reused" for accepts *)
    detail : string;  (** human-readable reason *)
  }

  type t = {
    tokens_relexed : int;
    tokens_reused : int;
    accepted : subtree list;  (** subtrees shifted whole, input order *)
    rebuilt : subtree list;  (** decomposed candidates, input order *)
    reductions : int;
    reparse_ms : float option;
  }

  (* Reject slugs are emitted by the engine; keep the prose here so every
     consumer renders the same sentence. *)
  let describe e =
    let reason = Option.value ~default:"unknown" (str_arg "reason" e) in
    let detail =
      match reason with
      | "pending-edit" -> "contains a pending edit (unincorporated change bits)"
      | "lookahead-change" ->
          "lookahead changed (one-terminal right context was modified)"
      | "state-mismatch" ->
          Printf.sprintf "recorded parse state %d does not match parser state %d"
            (Option.value ~default:(-1) (int_arg "recorded" e))
            (Option.value ~default:(-1) (int_arg "current" e))
      | "no-state" -> "built while several parsers were active (no recorded state)"
      | "multiple-parsers" -> "several parsers active (non-deterministic region)"
      | "no-goto" -> "no goto transition from the current state on this symbol"
      | "disabled" -> "state-matching disabled by configuration"
      | other -> other
    in
    (reason, detail)

  let of_events evs =
    let relexed = ref 0 and reused = ref 0 and reductions = ref 0 in
    let accepted = ref [] and rebuilt = ref [] in
    let reparse_ms = ref None in
    let reparse_begin = ref None in
    List.iter
      (fun e ->
        match (e.cat, e.name, e.phase) with
        | Relex, "splice", Instant ->
            relexed := !relexed + Option.value ~default:0 (int_arg "relexed" e);
            reused := !reused + Option.value ~default:0 (int_arg "reused" e)
        | Glr, "reduce", Instant -> incr reductions
        | Reuse, "accept", Instant ->
            accepted :=
              {
                symbol = Option.value ~default:"?" (str_arg "symbol" e);
                tok_from = Option.value ~default:0 (int_arg "from" e);
                tokens = Option.value ~default:0 (int_arg "tokens" e);
                reason = "reused";
                detail = "shifted whole (recorded state matched)";
              }
              :: !accepted
        | Reuse, "reject", Instant ->
            let reason, detail = describe e in
            rebuilt :=
              {
                symbol = Option.value ~default:"?" (str_arg "symbol" e);
                tok_from = Option.value ~default:0 (int_arg "from" e);
                tokens = Option.value ~default:0 (int_arg "tokens" e);
                reason;
                detail;
              }
              :: !rebuilt
        | Session, "reparse", Begin -> reparse_begin := Some e.ts
        | Session, "reparse", End -> (
            match !reparse_begin with
            | Some t0 -> reparse_ms := Some ((e.ts -. t0) *. 1e3)
            | None -> ())
        | _ -> ())
      evs;
    {
      tokens_relexed = !relexed;
      tokens_reused = !reused;
      accepted = List.rev !accepted;
      rebuilt = List.rev !rebuilt;
      reductions = !reductions;
      reparse_ms = !reparse_ms;
    }
end
