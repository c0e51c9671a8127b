(* Unit tests for the incremental query engine (lib/query) and its
   first full-scale consumer, the semantic diagnostics layer.

   Engine invariants under test:
   - revision stamps: inputs bump the revision only when the value
     actually changes, and derived cells recompute only past a changed
     dependency;
   - dependency diffing: a cell revalidates against the dependencies of
     its *last* computation, so a conditional read dropped from the
     dep set stops invalidating;
   - early cutoff: a recomputed dependency whose value came out equal
     is backdated and its dependents validate clean;
   - cycle detection: a self-referential fetch raises [Cycle] with the
     offending path instead of looping;
   - dead-cell GC: cells unreachable from the roots fetched since the
     last collect are swept;
   - ownership: one engine is single-owner state — concurrent entry
     from other domains raises [Busy], re-entrant use by the owning
     computation is fine. *)

let int_in : int Query.input = Query.input ~name:"t.int" ()
let int_in2 : int Query.input = Query.input ~name:"t.int2" ()

let get t i k =
  match Query.peek t i k with Some v -> v | None -> Alcotest.fail "unset input"

(* double(k) = 2 * input(k) *)
let double =
  Query.define ~name:"t.double" (fun t k ->
      2 * Option.value (Query.read t int_in k) ~default:0)

(* parity(k) = double(k) mod 2 — constant, so edits to the input
   recompute [double] but early cutoff shields [parity]'s dependents. *)
let parity =
  Query.define ~name:"t.parity" (fun t k -> Query.fetch t double k mod 2)

let test_revision_stamps () =
  let t = Query.create () in
  let r0 = Query.revision t in
  Query.set t int_in 1 10;
  let r1 = Query.revision t in
  Alcotest.(check bool) "set bumps revision" true (r1 > r0);
  Query.set t int_in 1 10;
  Alcotest.(check int) "equal set is a no-op" r1 (Query.revision t);
  Alcotest.(check int) "fetch" 20 (Query.fetch t double 1);
  let s = Query.stats t in
  Alcotest.(check int) "one compute" 1 s.Query.computes;
  Alcotest.(check int) "cached refetch" 20 (Query.fetch t double 1);
  Alcotest.(check int) "no recompute" 1 (Query.stats t).Query.computes;
  Query.set t int_in 1 11;
  Alcotest.(check int) "recomputed after change" 22 (Query.fetch t double 1);
  Alcotest.(check int) "exactly one more compute" 2
    (Query.stats t).Query.computes

(* sel reads int_in(0) to pick which of int_in(1)/int_in(2) to read:
   after computing with int_in(0)=1, changing int_in(2) must not
   invalidate it (it is no longer a dependency). *)
let sel =
  Query.define ~name:"t.sel" (fun t _ ->
      let which = Option.value (Query.read t int_in 0) ~default:1 in
      Option.value (Query.read t int_in which) ~default:0)

let test_dependency_diffing () =
  let t = Query.create () in
  Query.set t int_in 0 1;
  Query.set t int_in 1 100;
  Query.set t int_in 2 200;
  Alcotest.(check int) "reads branch 1" 100 (Query.fetch t sel 7);
  let c0 = (Query.stats t).Query.computes in
  Query.set t int_in 2 222;
  Alcotest.(check int) "unread branch ignored" 100 (Query.fetch t sel 7);
  Alcotest.(check int) "no recompute" c0 (Query.stats t).Query.computes;
  Query.set t int_in 0 2;
  Alcotest.(check int) "switched branch" 222 (Query.fetch t sel 7);
  Query.set t int_in 1 111;
  Alcotest.(check int) "old branch now ignored" 222 (Query.fetch t sel 7);
  Alcotest.(check int) "one recompute for the switch" (c0 + 1)
    (Query.stats t).Query.computes

let dep_on_parity =
  Query.define ~name:"t.dep_on_parity" (fun t k -> Query.fetch t parity k + 5)

let test_early_cutoff () =
  let t = Query.create () in
  Query.set t int_in 3 4;
  Alcotest.(check int) "initial" 5 (Query.fetch t dep_on_parity 3);
  let s0 = Query.stats t in
  Query.set t int_in 3 6;
  Alcotest.(check int) "same value" 5 (Query.fetch t dep_on_parity 3);
  let s1 = Query.stats t in
  (* double and parity recompute; parity's value is equal, so it is
     backdated and dep_on_parity validates clean. *)
  Alcotest.(check int) "two recomputes" (s0.Query.computes + 2)
    s1.Query.computes;
  Alcotest.(check bool) "backdated fired" true
    (s1.Query.backdated > s0.Query.backdated)

let cyc_a_ref = ref None

let cyc_b =
  Query.define ~name:"t.cyc_b" (fun t k ->
      match !cyc_a_ref with
      | Some d -> Query.fetch t d k
      | None -> 0)

let cyc_a = Query.define ~name:"t.cyc_a" (fun t k -> Query.fetch t cyc_b k)
let () = cyc_a_ref := Some cyc_a

let test_cycle_detection () =
  let t = Query.create () in
  match Query.fetch t cyc_a 1 with
  | _ -> Alcotest.fail "cycle not detected"
  | exception Query.Cycle path ->
      let names = List.map (fun c -> c.Query.query) path in
      Alcotest.(check bool) "path names the cycle" true
        (List.mem "t.cyc_a" names && List.mem "t.cyc_b" names)

let test_gc () =
  let t = Query.create () in
  Query.set t int_in 1 1;
  Query.set t int_in 2 2;
  ignore (Query.fetch t double 1);
  ignore (Query.fetch t double 2);
  let live0 = Query.cells t in
  (* Next "run" only uses key 1: key 2's cells are garbage. *)
  ignore (Query.collect t);
  ignore (Query.fetch t double 1);
  let dead = Query.collect t in
  Alcotest.(check bool) "swept the dead chain" true (dead >= 1);
  Alcotest.(check bool) "table shrank" true (Query.cells t < live0);
  (* The collected cell reappears on demand (input must be re-set). *)
  Query.set t int_in 2 20;
  Alcotest.(check int) "recreated" 40 (Query.fetch t double 2)

(* A definition's name is claimed per engine by its first cell: a
   second definition or an input under that name is refused there, while
   the same definition serves any number of engines. *)
let test_name_collision () =
  let q1 = Query.define ~name:"t.same" (fun _ k -> k) in
  let q2 = Query.define ~name:"t.same" (fun _ k -> k + 1) in
  let i2 : int Query.input = Query.input ~name:"t.same" () in
  let t = Query.create () in
  Alcotest.(check int) "first definition" 1 (Query.fetch t q1 1);
  Alcotest.check_raises "second definition"
    (Invalid_argument
       "Query: query name \"t.same\" already used by another definition")
    (fun () -> ignore (Query.fetch t q2 1));
  Alcotest.check_raises "input"
    (Invalid_argument
       "Query: input name \"t.same\" already used by another definition")
    (fun () -> Query.set t i2 1 0);
  let t2 = Query.create () in
  Alcotest.(check int) "same definition, second engine" 1 (Query.fetch t2 q1 1);
  Alcotest.(check int) "still served on the first" 1 (Query.fetch t q1 1)

(* A cell that read an unset input depends on its absence: while the
   input stays unset every fetch in a later revision recomputes it (a
   compute, not a hit); once set, it recomputes once and then validates
   clean. *)
let test_unset_input () =
  let t = Query.create () in
  let bump =
    let n = ref 0 in
    fun () ->
      incr n;
      Query.set t int_in2 0 !n
  in
  let fetch_counting () =
    bump ();
    let s0 = Query.stats t in
    let v = Query.fetch t double 5 in
    let s1 = Query.stats t in
    (v, s1.Query.computes - s0.Query.computes, s1.Query.hits - s0.Query.hits)
  in
  let check what want got =
    Alcotest.(check (triple int int int)) what want got
  in
  check "first fetch computes" (0, 1, 0) (fetch_counting ());
  check "unset: recomputes" (0, 1, 0) (fetch_counting ());
  check "still unset: recomputes" (0, 1, 0) (fetch_counting ());
  Query.set t int_in 5 4;
  check "set: recomputes once" (8, 1, 0) (fetch_counting ());
  check "then validates clean" (8, 0, 1) (fetch_counting ())

(* Single-owner contract: the engine serialises entry per domain; a
   domain that loses the race gets [Busy] rather than corrupting cell
   state.  A deterministic schedule: one domain holds the engine inside
   a compute (via a latch), others must observe [Busy]. *)
let latch_in : int Query.input = Query.input ~name:"t.latch" ()

let slow_flag = Atomic.make false
let release = Atomic.make false

let slow =
  Query.define ~name:"t.slow" (fun t k ->
      Atomic.set slow_flag true;
      while not (Atomic.get release) do
        Domain.cpu_relax ()
      done;
      Option.value (Query.read t latch_in k) ~default:0)

let test_domain_safety () =
  let t = Query.create () in
  Query.set t latch_in 1 7;
  Atomic.set slow_flag false;
  Atomic.set release false;
  let owner = Domain.spawn (fun () -> Query.fetch t slow 1) in
  while not (Atomic.get slow_flag) do
    Domain.cpu_relax ()
  done;
  (* Three contenders while the owner domain sits inside the compute:
     every one must be refused. *)
  let contenders =
    List.init 3 (fun i ->
        Domain.spawn (fun () ->
            match Query.fetch t double i with
            | _ -> false
            | exception Query.Busy -> true))
  in
  let refused = List.map Domain.join contenders in
  Atomic.set release true;
  Alcotest.(check int) "owner completed" 7 (Domain.join owner);
  List.iter (Alcotest.(check bool) "contender got Busy" true) refused;
  (* The engine is reusable after contention. *)
  Query.set t int_in 9 9;
  Alcotest.(check int) "still consistent" 18 (Query.fetch t double 9)

(* ------------------------------------------------------------------ *)
(* Diagnostics layer on real sessions.                                 *)

module Session = Iglr.Session
module Language = Languages.Language
module Diag = Semantics.Diag

let parse_session lang text =
  let s, outcome =
    Session.create ~table:(Language.table lang) ~lexer:(Language.lexer lang)
      text
  in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "fixture rejected");
  s

let codes r = List.map (fun d -> d.Diag.d_code) r.Diag.diags

let test_diag_calc () =
  let lang = Languages.Registry.find "calc" |> Option.get in
  let s = parse_session lang "x = 1 ; y = x + 2 ; z = 3 ; w = q ;" in
  let d = Diag.create lang.Language.grammar in
  let r = Diag.run d (Session.root s) in
  (* z is assigned but never read; q is never assigned; w and y are
     also unused but x is read. *)
  Alcotest.(check bool) "unused reported" true
    (List.mem "unused-binding" (codes r));
  Alcotest.(check bool) "unbound reported" true
    (List.mem "unbound-name" (codes r));
  Alcotest.(check int) "four bindings" 4 (List.length r.Diag.bindings);
  (* Types: the three literal assignments are int; [w = q] has an
     unbound rhs and stays unknown. *)
  let names = List.map (fun (_, ty) -> Diag.ty_name ty) (Lazy.force r.Diag.types) in
  Alcotest.(check int) "int count" 3
    (List.length (List.filter (( = ) "int") names));
  Alcotest.(check int) "unknown count" 1
    (List.length (List.filter (( = ) "?") names))

let test_diag_calc_division_types () =
  let lang = Languages.Registry.find "calc" |> Option.get in
  let s = parse_session lang "x = 1 / 2 ; y = x + 1 ; y ;" in
  let d = Diag.create lang.Language.grammar in
  let r = Diag.run d (Session.root s) in
  (* x : float (true division), so x + 1 mixes float and int. *)
  Alcotest.(check bool) "mismatch reported" true
    (List.mem "type-mismatch" (codes r));
  let x = List.find (fun b -> b.Diag.b_name = "x") r.Diag.bindings in
  Alcotest.(check string) "x is float" "float" (Diag.ty_name x.Diag.b_ty)

let test_diag_calc_use_before () =
  let lang = Languages.Registry.find "calc" |> Option.get in
  let s = parse_session lang "y = x + 1 ; x = 2 ; y ;" in
  let d = Diag.create lang.Language.grammar in
  let r = Diag.run d (Session.root s) in
  Alcotest.(check bool) "use-before-decl reported" true
    (List.mem "use-before-decl" (codes r))

let c_lang () = Languages.Registry.find "c" |> Option.get

(* [Diag.run] makes the C subset's typedef decisions itself. *)
let analyze_c s d = Diag.run d (Session.root s)

let test_diag_clike () =
  let lang = c_lang () in
  let text =
    "typedef int t ; t g ; int unused_g ; \
     int f ( ) { int u ; g = 1 ; return g ; } \
     int main ( ) { return f ( ) ; }"
  in
  let s = parse_session lang text in
  let d = Diag.create lang.Language.grammar in
  let r = analyze_c s d in
  let unused =
    List.filter (fun dg -> dg.Diag.d_code = "unused-binding") r.Diag.diags
  in
  (* unused_g (global), u (local) and main (never called) are unused;
     t, g and f are used. *)
  let mentions name =
    List.exists
      (fun dg ->
        let re = Str.regexp_string (" " ^ name ^ " ") in
        (try ignore (Str.search_forward re (" " ^ dg.Diag.d_message ^ " ") 0); true
         with Not_found -> false))
      unused
  in
  Alcotest.(check bool) "unused_g flagged" true (mentions "unused_g");
  Alcotest.(check bool) "u flagged" true (mentions "u");
  Alcotest.(check bool) "t not flagged" false (mentions "t");
  Alcotest.(check bool) "g not flagged" false (mentions "g");
  Alcotest.(check bool) "f not flagged" false (mentions "f");
  Alcotest.(check (list string)) "typedefs" [ "t" ] r.Diag.typedefs

let test_diag_clike_mismatch_and_ubd () =
  let lang = c_lang () in
  let text =
    "char c ; int f ( ) { c = 1 ; return later ; } int later ; \
     int m ( ) { return later ; }"
  in
  let s = parse_session lang text in
  let d = Diag.create lang.Language.grammar in
  let r = analyze_c s d in
  Alcotest.(check bool) "char/int mismatch" true
    (List.mem "type-mismatch" (codes r));
  Alcotest.(check bool) "use before decl across items" true
    (List.mem "use-before-decl" (codes r))

(* The incremental contract end to end: an edit to one statement leaves
   every other item's cells validating clean. *)
let test_diag_incremental_reuse () =
  let lang = Languages.Registry.find "calc" |> Option.get in
  let text = "a = 1 ; b = 2 ; c = 3 ; d = 4 ; e = 5 ; a ; b ; c ; d ; e ;" in
  let s = parse_session lang text in
  let d = Diag.create lang.Language.grammar in
  Session.on_commit s (fun ~watermark root -> Diag.commit d ~watermark root);
  let r0 = Diag.run d (Session.root s) in
  let cells = Query.cells (Diag.engine d) in
  Alcotest.(check bool) "cells populated" true (cells > 10);
  (* Replace the literal in one statement. *)
  let pos = String.index text '2' in
  Session.edit s ~pos ~del:1 ~insert:"7";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "edit broke the parse");
  let c0 = (Query.stats (Diag.engine d)).Query.computes in
  let r1 = Diag.run d (Session.root s) in
  let recomputed = (Query.stats (Diag.engine d)).Query.computes - c0 in
  Alcotest.(check bool) "only the edited item recomputed" true
    (recomputed <= 4);
  Alcotest.(check bool) "most cells reused" true
    (recomputed * 10 < Query.cells (Diag.engine d));
  (* And the result matches a from-scratch analysis. *)
  let s2 = parse_session lang (Session.text s) in
  let d2 = Diag.create lang.Language.grammar in
  let r2 = Diag.run d2 (Session.root s2) in
  Alcotest.(check string) "agrees with scratch" (Diag.render r2)
    (Diag.render r1);
  Alcotest.(check bool) "edit actually changed the result" true
    (Diag.render r0 <> Diag.render r1
    || String.length (Diag.render r0) = String.length (Diag.render r1))

(* One engine per document: a token edit inside one function recomputes
   that function's four cells (decisions, scope, resolution, types) and
   nothing else. *)
let test_diag_clike_one_item () =
  let lang = c_lang () in
  let text =
    "typedef int t ; int f1 ( ) { t ( a ) ; return 1 ; } \
     int f2 ( ) { t ( b ) ; return 2 ; } int f3 ( ) { t ( c ) ; return 3 ; }"
  in
  let s = parse_session lang text in
  let d = Diag.create lang.Language.grammar in
  Session.on_commit s (fun ~watermark root -> Diag.commit d ~watermark root);
  let r0 = analyze_c s d in
  let pos = Str.search_forward (Str.regexp_string "return 2") text 0 + 7 in
  Session.edit s ~pos ~del:1 ~insert:"7";
  (match Session.reparse s with
  | Session.Parsed _ -> ()
  | Session.Recovered _ -> Alcotest.fail "edit broke the parse");
  let st0 = Query.stats (Diag.engine d) in
  let r1 = analyze_c s d in
  let st1 = Query.stats (Diag.engine d) in
  Alcotest.(check int) "four cells of f2 recompute" 4
    (st1.Query.computes - st0.Query.computes);
  Alcotest.(check string) "same analysis" (Diag.render r0) (Diag.render r1);
  Alcotest.(check (list string)) "typedefs" [ "t" ] r1.Diag.typedefs

(* [?typedefs] survives as a cross-check of an outside view. *)
let test_diag_typedefs_crosscheck () =
  let lang = c_lang () in
  let s = parse_session lang "typedef int t ; int f ( ) { t ( x ) ; return 0 ; }" in
  let d = Diag.create lang.Language.grammar in
  let r = Diag.run d ~typedefs:[ "t"; "t" ] (Session.root s) in
  Alcotest.(check (list string)) "agreeing view accepted" [ "t" ] r.Diag.typedefs;
  match Diag.run d ~typedefs:[ "u" ] (Session.root s) with
  | _ -> Alcotest.fail "a disagreeing view must raise"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "revision stamps" `Quick test_revision_stamps;
    Alcotest.test_case "dependency diffing" `Quick test_dependency_diffing;
    Alcotest.test_case "early cutoff backdates" `Quick test_early_cutoff;
    Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
    Alcotest.test_case "dead-cell GC" `Quick test_gc;
    Alcotest.test_case "single-owner domain safety" `Quick test_domain_safety;
    Alcotest.test_case "name collisions" `Quick test_name_collision;
    Alcotest.test_case "unset input recomputes" `Quick test_unset_input;
    Alcotest.test_case "calc diagnostics" `Quick test_diag_calc;
    Alcotest.test_case "calc division types" `Quick
      test_diag_calc_division_types;
    Alcotest.test_case "calc use-before-decl" `Quick test_diag_calc_use_before;
    Alcotest.test_case "clike scope and unused" `Quick test_diag_clike;
    Alcotest.test_case "clike mismatch and forward use" `Quick
      test_diag_clike_mismatch_and_ubd;
    Alcotest.test_case "incremental reuse across edits" `Quick
      test_diag_incremental_reuse;
    Alcotest.test_case "clike token edit recomputes one item" `Quick
      test_diag_clike_one_item;
    Alcotest.test_case "typedefs cross-check" `Quick
      test_diag_typedefs_crosscheck;
  ]
