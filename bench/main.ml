(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the ablations called out in DESIGN.md.

   Usage:
     dune exec bench/main.exe                 -- run every experiment
     dune exec bench/main.exe -- table1       -- one experiment
     dune exec bench/main.exe -- all --scale 0.05

   The --scale factor multiplies the Table 1 line counts (default 0.05 so
   the full suite runs in minutes; densities, and therefore measured
   overheads, are scale-invariant).

   Besides the text tables, the harness writes machine-readable results
   to --json-dir (default the working directory): one BENCH_<doc>.json
   for each of the documents listed in [documents] below (latency,
   reuse, recovery, ambig, filter, server, chaos, semantic), which feed
   bench/check_regress.ml, the regression gate. *)

module Session = Iglr.Session
module Glr = Iglr.Glr
module Node = Parsedag.Node
module Stats = Parsedag.Stats
module Language = Languages.Language
module Spec_gen = Workload.Spec_gen
module Edit_gen = Workload.Edit_gen
module Json = Metrics.Json

let scale = ref 0.05
let json_dir = ref "."

(* ------------------------------------------------------------------ *)
(* Timing helpers.                                                     *)

let now = Unix.gettimeofday

(* min / median / p90 over a sample list; a single median hides both the
   best case (min, the steady-state figure) and the tail (p90). *)
type timing = { tmin : float; tmed : float; tp90 : float }

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank [p]-quantile of an ascending, non-empty array. *)
let rank a p =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let percentile p xs = rank (sorted xs) p

let timing_of_samples xs =
  let a = sorted xs in
  if Array.length a = 0 then invalid_arg "timing_of_samples: empty";
  { tmin = a.(0); tmed = a.(Array.length a / 2); tp90 = rank a 0.9 }

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let time_once f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let time_stats ?(runs = 5) f =
  timing_of_samples (List.init runs (fun _ -> snd (time_once f)))

let time_median ?runs f = (time_stats ?runs f).tmed

let header title =
  Printf.printf "\n=== %s ===\n%!" title

(* ------------------------------------------------------------------ *)
(* Machine-readable results.                                           *)

(* Entries accumulate as experiments run and are flushed at exit, one
   BENCH_<doc>.json per document.  A [gate] entry is one the regression
   gate compares against the committed baseline; purely informational
   figures (absolute wall-clock on tiny inputs, noisy ratios) ship with
   [gate = false].  check_regress picks the rule from the fields: a
   "median" follows the noise-floored latency rule, a "ratio" the ratio
   rule, anything else gates on its *_pct fields. *)
let documents =
  [ "latency"; "reuse"; "recovery"; "ambig"; "filter"; "server"; "chaos";
    "semantic" ]

let entries : (string * Json.t) list ref = ref []

let record ?(gate = true) doc ~experiment ~language ~case fields =
  assert (List.mem doc documents);
  entries :=
    ( doc,
      Json.Obj
        ([
           ("experiment", Json.String experiment);
           ("language", Json.String language);
           ("case", Json.String case);
           ("gate", Json.Bool gate);
         ]
        @ fields) )
    :: !entries

let timing_fields ~runs t =
  [
    ("unit", Json.String "ms");
    ("min", Json.Float (t.tmin *. 1e3));
    ("median", Json.Float (t.tmed *. 1e3));
    ("p90", Json.Float (t.tp90 *. 1e3));
    ("runs", Json.Int runs);
  ]

let sample_fields samples =
  timing_fields ~runs:(List.length samples) (timing_of_samples samples)

let ratio_fields r = [ ("unit", Json.String "ratio"); ("ratio", Json.Float r) ]

let write_json () =
  let written =
    List.map
      (fun kind ->
        let file = Filename.concat !json_dir ("BENCH_" ^ kind ^ ".json") in
        let es =
          List.filter_map
            (fun (d, e) -> if d = kind then Some e else None)
            (List.rev !entries)
        in
        Json.to_file file
          (Json.Obj
             [
               ("schema", Json.String "iglr-bench/1");
               ("kind", Json.String kind);
               ("scale", Json.Float !scale);
               ("entries", Json.List es);
             ]);
        Printf.sprintf "%s (%d entries)" file (List.length es))
      documents
  in
  Printf.printf "\nwrote %s\n" (String.concat ", " written)

let session_of lang text =
  let s, outcome =
    Session.create ~table:(Language.table lang) ~lexer:(Language.lexer lang)
      text
  in
  (match outcome with
  | Session.Parsed _ -> ()
  | Session.Recovered { error; _ } ->
      failwith
        (Printf.sprintf "bench: generated program failed to parse (%s at %d)"
           error.Glr.message error.Glr.offset_tokens));
  s

let reparse_exn s =
  match Session.reparse s with
  | Session.Parsed stats -> stats
  | Session.Recovered _ -> failwith "bench: unexpected recovery"

(* One §5 self-cancelling edit cycle: edit, reparse, undo, reparse.
   Returns the two reparse times in seconds. *)
let edit_cycle2 s (e : Edit_gen.edit) =
  let inv = Edit_gen.inverse e (Session.text s) in
  Session.edit s ~pos:e.Edit_gen.e_pos ~del:e.Edit_gen.e_del
    ~insert:e.Edit_gen.e_insert;
  let t1 = snd (time_once (fun () -> reparse_exn s)) in
  Session.edit s ~pos:inv.Edit_gen.e_pos ~del:inv.Edit_gen.e_del
    ~insert:inv.Edit_gen.e_insert;
  let t2 = snd (time_once (fun () -> reparse_exn s)) in
  (t1, t2)

let edit_cycle s e =
  let t1, t2 = edit_cycle2 s e in
  t1 +. t2

(* Per-reparse samples over a §5 token-edit stream. *)
let incremental_samples s ~seed ~count =
  let edits = Edit_gen.token_edits ~seed ~count (Session.text s) in
  List.concat_map
    (fun e ->
      let t1, t2 = edit_cycle2 s e in
      [ t1; t2 ])
    edits

let mean_incremental_ms s ~seed ~count =
  mean (incremental_samples s ~seed ~count) *. 1e3

(* ------------------------------------------------------------------ *)
(* Table 1: space overhead of retained ambiguity.                      *)

let table1 () =
  header "Table 1: space cost of representing ambiguity (dag vs parse tree)";
  Printf.printf "%-12s %9s %5s %12s %12s %8s %10s\n" "Program" "Lines" "Lang"
    "%ov (paper)" "%ov (meas)" "#ambig" "unresolved";
  List.iter
    (fun (p : Spec_gen.profile) ->
      (* Floor each program at ~600 generated lines so low-density profiles
         still exhibit their (rare) ambiguities at small scales. *)
      let eff_scale =
        Float.max !scale (600.0 /. float_of_int p.Spec_gen.p_lines)
      in
      let src = Spec_gen.generate ~scale:eff_scale p in
      let lines = List.length (String.split_on_char '\n' src) in
      let lang = Spec_gen.language_of p in
      let s = session_of lang src in
      let m = Stats.measure (Session.root s) in
      let d =
        Semantics.Diag.decide
          (Semantics.Diag.create lang.Language.grammar)
          (Session.root s)
      in
      Printf.printf "%-12s %9d %5s %12.2f %12.2f %8d %10d\n" p.Spec_gen.p_name
        lines
        (match p.Spec_gen.p_dialect with Spec_gen.C -> "C" | Spec_gen.Cpp -> "C++")
        p.Spec_gen.p_paper_overhead
        (Stats.space_overhead_pct m)
        m.Stats.choice_nodes d.Semantics.Diag.unresolved)
    Spec_gen.table1;
  Printf.printf
    "(paper: average 0.00-0.52%% per program; every ambiguity is the typedef \
     problem,\n two interpretations sharing only terminals, all semantically \
     resolved)\n"

(* ------------------------------------------------------------------ *)
(* Figure 4: distribution of ambiguity by source file in gcc.          *)

let fig4 () =
  header "Figure 4: ambiguity distribution across gcc-like source files";
  (* 120 files at the default scale; clamp so smoke runs stay fast and the
     histogram never degenerates below a dozen files. *)
  let files = max 12 (min 120 (int_of_float (120. *. (!scale /. 0.05)))) in
  let buckets = Array.make 13 0 in
  for i = 0 to files - 1 do
    (* Vary density across files the way a real code base does: many files
       with no ambiguous construct, a tail of header-heavy files. *)
    let st = Random.State.make [| 1000 + i |] in
    let density =
      match Random.State.int st 10 with
      | 0 | 1 | 2 | 3 -> 0.0
      | 4 | 5 | 6 -> Random.State.float st 8.0
      | 7 | 8 -> 8.0 +. Random.State.float st 16.0
      | _ -> 24.0 +. Random.State.float st 24.0
    in
    let profile =
      {
        Spec_gen.p_name = Printf.sprintf "gcc-file-%d" i;
        p_lines = 400 + Random.State.int st 400;
        p_dialect = Spec_gen.C;
        p_paper_overhead = 0.0;
        p_ambig_per_kloc = density;
      }
    in
    let src = Spec_gen.generate ~seed:i ~scale:1.0 profile in
    let s = session_of Languages.C_subset.language src in
    let m = Stats.measure (Session.root s) in
    let pct = Stats.space_overhead_pct m in
    let bucket = min 12 (int_of_float (pct /. 0.1)) in
    buckets.(bucket) <- buckets.(bucket) + 1
  done;
  Printf.printf "%-14s %6s  histogram (files per 0.1%% bucket)\n"
    "space increase" "files";
  Array.iteri
    (fun i count ->
      Printf.printf "%5.1f - %4.1f%% %6d  %s\n"
        (float_of_int i *. 0.1)
        (float_of_int (i + 1) *. 0.1)
        count
        (String.make count '#'))
    buckets;
  Printf.printf
    "(paper: most files have little or no ambiguity; the tail reaches \
     ~1.2%%)\n"

(* ------------------------------------------------------------------ *)
(* Figures 5 and 7: dynamic lookahead on the LR(2) grammar.            *)

let fig7 () =
  header "Figures 5/7: dynamic lookahead tracking (LR(2) grammar, LALR(1) tables)";
  let lang = Languages.Lr2.language in
  let table = Language.table lang in
  Printf.printf "table: %s\n"
    (Format.asprintf "%a" Lrtab.Table.pp_stats table);
  let s, outcome =
    Session.create ~table ~lexer:(Language.lexer lang) "x z c"
  in
  (match outcome with
  | Session.Parsed stats ->
      Printf.printf
        "parse of \"x z c\": %d parsers at peak (paper: 2), result %s\n"
        stats.Glr.max_parsers
        (Parsedag.Pp.to_sexp lang.Language.grammar (Session.root s))
  | Session.Recovered _ -> failwith "fig7 parse failed");
  let nostate_nodes = ref 0 in
  Node.iter
    (fun n ->
      match n.Node.kind with
      | Node.Prod _ when n.Node.state = Node.nostate -> incr nostate_nodes
      | _ -> ())
    (Session.root s);
  Printf.printf
    "nodes recording the non-deterministic state class: %d (the reductions \
     performed while two parsers were active)\n"
    !nostate_nodes;
  Session.edit s ~pos:4 ~del:1 ~insert:"e";
  ignore (reparse_exn s);
  Printf.printf "after editing c -> e: %s (interpretation flipped)\n"
    (Parsedag.Pp.to_sexp lang.Language.grammar (Session.root s))

(* ------------------------------------------------------------------ *)
(* §5: batch parsing overhead (deterministic vs IGLR).                 *)

let sec5_batch () =
  header "§5 batch: deterministic LR vs IGLR on an initial parse";
  Printf.printf "%-8s %8s %12s %12s %12s %9s %10s %10s\n" "Lang" "Tokens"
    "automaton" "LR batch" "IGLR batch" "IGLR/LR" "IGLR w/tok" "LR w/tok";
  let run lang text =
    let table = Language.table lang in
    let lexer = Language.lexer lang in
    let tokens, trailing = Lexgen.Scanner.all lexer text in
    let terms =
      Array.of_list
        (List.map (fun (t : Lexgen.Scanner.token) -> t.Lexgen.Scanner.term) tokens)
    in
    let t_rec = time_median (fun () -> Iglr.Lr_parser.recognize table terms) in
    let st_det =
      time_stats (fun () -> Iglr.Lr_parser.parse table tokens ~trailing)
    in
    let st_glr =
      time_stats (fun () -> Glr.parse_tokens table tokens ~trailing)
    in
    let t_det = st_det.tmed and t_glr = st_glr.tmed in
    (* Minor words per token of one batch parse: deterministic for a given
       build, so the gate bites at smoke scale where the timings do not. *)
    let words_per_token parse =
      let w0 = Gc.minor_words () in
      ignore (parse ());
      (Gc.minor_words () -. w0) /. float_of_int (max 1 (Array.length terms))
    in
    let w_glr =
      words_per_token (fun () -> Glr.parse_tokens table tokens ~trailing)
    in
    let w_det =
      words_per_token (fun () -> Iglr.Lr_parser.parse table tokens ~trailing)
    in
    let language = lang.Language.name in
    record "latency" ~experiment:"sec5-batch" ~language ~case:"batch-lr"
      (timing_fields ~runs:5 st_det);
    record "latency" ~experiment:"sec5-batch" ~language ~case:"batch-iglr"
      (timing_fields ~runs:5 st_glr);
    record ~gate:false "latency" ~experiment:"sec5-batch" ~language
      ~case:"iglr-over-lr" (ratio_fields (t_glr /. t_det));
    record "latency" ~experiment:"sec5-batch" ~language
      ~case:"batch-iglr-words"
      [ ("unit", Json.String "words/token"); ("ratio", Json.Float w_glr) ];
    Printf.printf "%-8s %8d %9.1f ms %9.1f ms %9.1f ms %9.2f %10.1f %10.1f\n"
      lang.Language.name (Array.length terms) (t_rec *. 1e3) (t_det *. 1e3)
      (t_glr *. 1e3) (t_glr /. t_det) w_glr w_det;
    (t_rec, t_det, t_glr)
  in
  let tiny_src =
    (* A deterministic workload: reuse the plain C generator's shape but in
       the tiny language. *)
    let b = Buffer.create 4096 in
    for f = 0 to int_of_float (200. *. (!scale /. 0.05)) do
      Buffer.add_string b
        (Printf.sprintf
           "proc fn%d ( ) { a = 1 + 2 * b; if (a) { b = a; } else { b = 2; } \
            while (b) { b = b * 2; } print a; }\n"
           f)
    done;
    Buffer.contents b
  in
  let _ = run Languages.Tiny.language tiny_src in
  let plain_c = Spec_gen.plain ~lines:(int_of_float (40000. *. !scale)) ~seed:3 in
  let t_rec, t_det, t_glr = run Languages.C_subset.language plain_c in
  Printf.printf
    "parse-per-se share of the deterministic batch parse: %.0f%%; node \
     construction and lexing dominate\n"
    (t_rec /. t_det *. 100.);
  Printf.printf
    "(paper: parsing per se is 12%% of batch time for the deterministic \
     parser, 15%% for IGLR;\n here IGLR/LR total = %.2fx, paper ≈ 1.03x)\n"
    (t_glr /. t_det)

(* ------------------------------------------------------------------ *)
(* §5: incremental parsing — self-cancelling token edits.              *)

let sec5_incremental () =
  header "§5 incremental: self-cancelling single-token edits";
  (* Deterministic language: both the IGLR parser and the deterministic
     state-matching baseline can run; the paper reports their running
     times as indistinguishable. *)
  let lines = max 400 (int_of_float (20000. *. !scale)) in
  let src = Spec_gen.plain ~lines ~seed:11 in
  let lang = Languages.C_subset.language in
  let table = Language.table lang in
  let lexer = Language.lexer lang in
  let count = 30 in
  (* IGLR. *)
  let s = session_of lang src in
  let st_batch = time_stats ~runs:3 (fun () -> session_of lang src) in
  let t_batch = st_batch.tmed in
  let iglr_samples = incremental_samples s ~seed:21 ~count in
  let iglr_ms = mean iglr_samples *. 1e3 in
  record "latency" ~experiment:"sec5-incremental" ~language:"c" ~case:"batch"
    (timing_fields ~runs:3 st_batch);
  record "latency" ~experiment:"sec5-incremental" ~language:"c"
    ~case:"iglr-reparse"
    (sample_fields iglr_samples);
  (* The deterministic and sentential-form baselines, each on its own
     document over the same edit stream. *)
  let edits = Edit_gen.token_edits ~seed:21 ~count src in
  let baseline_ms parse =
    let doc = Vdoc.Document.create ~lexer src in
    ignore (parse table (Vdoc.Document.root doc));
    let total = ref 0.0 in
    let step (e : Edit_gen.edit) =
      ignore
        (Vdoc.Document.edit doc ~pos:e.Edit_gen.e_pos ~del:e.Edit_gen.e_del
           ~insert:e.Edit_gen.e_insert);
      let _, t = time_once (fun () -> parse table (Vdoc.Document.root doc)) in
      total := !total +. t
    in
    List.iter
      (fun e ->
        let inv = Edit_gen.inverse e (Vdoc.Document.text doc) in
        step e;
        step inv)
      edits;
    !total /. float_of_int (2 * count) *. 1e3
  in
  let det_ms = baseline_ms Iglr.Inc_lr.parse in
  let sf_ms = baseline_ms Iglr.Sf_lr.parse in
  Printf.printf "program: %d lines; %d reparses each\n" lines (2 * count);
  Printf.printf "%-28s %10s %14s\n" "Parser" "ms/reparse" "vs batch";
  Printf.printf "%-28s %10.3f %13.0fx\n" "sentential-form incremental" sf_ms
    (t_batch *. 1e3 /. sf_ms);
  Printf.printf "%-28s %10.3f %13.0fx\n" "deterministic incremental" det_ms
    (t_batch *. 1e3 /. det_ms);
  Printf.printf "%-28s %10.3f %13.0fx\n" "IGLR incremental" iglr_ms
    (t_batch *. 1e3 /. iglr_ms);
  Printf.printf
    "(paper: the difference between the two incremental parsers was \
     undetectable; here %.2fx)\n"
    (iglr_ms /. det_ms)

(* ------------------------------------------------------------------ *)
(* §5: space — state words and dag overhead.                           *)

let sec5_space () =
  header "§5 space: abstract parse dag vs sentential-form tree";
  Printf.printf "%-12s %10s %10s %12s %11s %11s\n" "Program" "dag (w)"
    "tree (w)" "dag/tree %" "state-w %" "env %";
  List.iter
    (fun name ->
      let p = Spec_gen.find name in
      let src = Spec_gen.generate ~scale:!scale p in
      let s = session_of (Spec_gen.language_of p) src in
      let m = Stats.measure (Session.root s) in
      (* The state word is exactly one word per node; with the paper's
         environment nodes (semantic attributes, presentation data — about
         20 words each) the same word is the ≈5% the paper reports. *)
      let nodes = m.Stats.tree_words - m.Stats.sentential_words in
      let env_pct =
        float_of_int nodes
        /. float_of_int (m.Stats.sentential_words + (14 * nodes))
        *. 100.
      in
      Printf.printf "%-12s %10d %10d %12.2f %11.2f %11.2f\n" name
        m.Stats.dag_words m.Stats.tree_words
        (Stats.space_overhead_pct m)
        (Stats.state_word_overhead_pct m)
        env_pct)
    [ "compress"; "gcc"; "emacs"; "ghostscript"; "ensemble" ];
  Printf.printf
    "(state-w: one state word per bare parse node; env: the same word \
     relative to the paper's\n attribute-laden environment nodes, where it \
     reports ≈5%% and \"becomes negligible\")\n"

(* ------------------------------------------------------------------ *)
(* §5: ambiguous-region reconstruction overhead.                       *)

let sec5_reconstruct () =
  header
    "§5 reconstruction: atomic rebuilding of ambiguous regions (edit sites \
     inside vs outside)";
  let lines = max 400 (int_of_float (20000. *. !scale)) in
  let ambig_profile =
    {
      Spec_gen.p_name = "ambig";
      p_lines = lines;
      p_dialect = Spec_gen.C;
      p_paper_overhead = 0.5;
      p_ambig_per_kloc = 19.5 (* the Table 1 calibration for 0.5% *);
    }
  in
  let ambig, amb_offsets = Spec_gen.generate_info ~seed:5 ambig_profile in
  let lang = Languages.C_subset.language in
  let s = session_of lang ambig in
  (* Edits at random plain statements. *)
  let t_plain_edits = mean_incremental_ms s ~seed:31 ~count:25 in
  (* Edits inside ambiguous regions: change the digit of the leading
     identifier, forcing atomic reconstruction of the whole region. *)
  let cycles = ref 0 in
  let total = ref 0.0 in
  List.iteri
    (fun i pos ->
      if i < 25 then begin
        let e = { Edit_gen.e_pos = pos; e_del = 1; e_insert = "9" } in
        total := !total +. edit_cycle s e;
        incr cycles
      end)
    amb_offsets;
  let t_amb_edits =
    if !cycles = 0 then nan else !total /. float_of_int (2 * !cycles) *. 1e3
  in
  Printf.printf "%-44s %10.3f ms/reparse\n"
    "edits in ordinary statements" t_plain_edits;
  Printf.printf "%-44s %10.3f ms/reparse (%d regions)\n"
    "edits inside ambiguous regions (atomic rebuild)" t_amb_edits !cycles;
  Printf.printf
    "atomic rebuild of the enclosing region costs %+.1f%% on the rare edits \
     that hit one\n"
    ((t_amb_edits -. t_plain_edits) /. t_plain_edits *. 100.);
  (* The paper's claim is about the total reconstruction time over an edit
     stream: regions are tiny and rare, so their atomic rebuild is a
     sub-1% effect overall. *)
  let doc_tokens = Vdoc.Document.token_count (Session.document s) in
  let region_tokens = 7 * List.length amb_offsets in
  let fraction = float_of_int region_tokens /. float_of_int doc_tokens in
  Printf.printf
    "ambiguous regions hold %.2f%% of tokens; contribution to total \
     reconstruction time: %+.2f%%\n (paper: well under 1%%, independent of \
     the program)\n"
    (fraction *. 100.)
    (fraction *. (t_amb_edits -. t_plain_edits) /. t_plain_edits *. 100.);
  (* Secondary view: the same edit stream on an ambiguity-free program of
     the same shape (the spine-shaped sequence representation re-exposes
     regions that follow an edit point; see EXPERIMENTS.md). *)
  let plain = Spec_gen.plain ~lines ~seed:5 in
  let s_plain = session_of lang plain in
  let t_plain = mean_incremental_ms s_plain ~seed:31 ~count:25 in
  Printf.printf
    "(same edits on an ambiguity-free program: %.3f ms/reparse — the \
     difference includes re-exposed\n regions under our list-shaped \
     sequences)\n"
    t_plain

(* ------------------------------------------------------------------ *)
(* §3.4: asymptotics — incremental cost vs document size.              *)

let asymptotic () =
  header "§3.4 asymptotics: reparse time vs document size";
  Printf.printf "%-8s %8s %12s %12s %10s\n" "Lines" "Tokens" "batch (ms)"
    "incr (ms)" "speedup";
  List.iter
    (fun lines ->
      let src = Spec_gen.plain ~lines ~seed:13 in
      let lang = Languages.C_subset.language in
      let s = session_of lang src in
      let tokens = Vdoc.Document.token_count (Session.document s) in
      let t_batch = time_median ~runs:3 (fun () -> session_of lang src) in
      let samples = incremental_samples s ~seed:17 ~count:15 in
      let t_incr = mean samples *. 1e3 in
      record "latency" ~experiment:"asymptotic" ~language:"c"
        ~case:(Printf.sprintf "incr-%d" lines)
        (sample_fields samples);
      Printf.printf "%-8d %8d %12.2f %12.3f %9.0fx\n" lines tokens
        (t_batch *. 1e3) t_incr
        (t_batch *. 1e3 /. t_incr))
    [ 250; 500; 1000; 2000; 4000 ];
  Printf.printf
    "(batch grows linearly; incremental cost follows the depth of the \
     structure, O(t + s·lg N) for\n bounded-depth grammars — deep \
     left-recursive sequences degrade toward linear, see the ablation)\n";
  Printf.printf "\nnested blocks (structure depth = lg N):\n";
  Printf.printf "%-8s %8s %12s %12s\n" "Depth" "Tokens" "batch (ms)" "incr (ms)";
  List.iter
    (fun depth ->
      let src = Spec_gen.nested ~depth ~seed:3 in
      let lang = Languages.C_subset.language in
      let s = session_of lang src in
      let tokens = Vdoc.Document.token_count (Session.document s) in
      let t_batch = time_median ~runs:3 (fun () -> session_of lang src) in
      let t_incr = mean_incremental_ms s ~seed:19 ~count:10 in
      Printf.printf "%-8d %8d %12.2f %12.3f\n" depth tokens (t_batch *. 1e3)
        t_incr)
    [ 7; 9; 11; 13 ]

(* ------------------------------------------------------------------ *)
(* Ablation: state-matching subtree reuse.                             *)

let ablate_reuse () =
  header "Ablation: subtree reuse (state-matching)";
  let lines = max 400 (int_of_float (10000. *. !scale)) in
  let src = Spec_gen.plain ~lines ~seed:23 in
  let lang = Languages.C_subset.language in
  let run ~case name config =
    let s, outcome =
      Session.create ~config ~table:(Language.table lang)
        ~lexer:(Language.lexer lang) src
    in
    (match outcome with
    | Session.Parsed _ -> ()
    | Session.Recovered _ -> failwith "ablation parse failed");
    let samples = incremental_samples s ~seed:29 ~count:15 in
    let ms = mean samples *. 1e3 in
    record "latency" ~experiment:"ablate-reuse" ~language:"c" ~case
      (sample_fields samples);
    Printf.printf "%-44s %10.3f ms/reparse\n" name ms;
    ms
  in
  let full =
    run ~case:"full" "state-matching (the paper)" Glr.default_config
  in
  let no_sm =
    run ~case:"no-state-matching" "no state-matching (decompose to terminals)"
      { Glr.state_matching = false }
  in
  Printf.printf "state-matching buys %.0fx\n" (no_sm /. full)

(* ------------------------------------------------------------------ *)
(* §4.2/§6: incremental semantic work after an edit.                   *)

let attrs () =
  header
    "§4.2 incremental attribution: re-evaluations after an edit vs tree size";
  let lang = Languages.C_subset.language in
  let g = lang.Language.grammar in
  Printf.printf "%-8s %10s %12s %14s %10s\n" "Lines" "nodes" "initial evals"
    "evals per edit" "ratio";
  List.iter
    (fun lines ->
      let src = Spec_gen.plain ~lines ~seed:61 in
      let s = session_of lang src in
      let ev =
        Semantics.Attrs.create g
          ~leaf:(fun _ -> 1)
          ~rule:(fun _ kids -> 1 + Array.fold_left ( + ) 0 kids)
          ~choice:(fun vs -> Array.fold_left max 0 vs)
      in
      let total_nodes = Semantics.Attrs.eval ev (Session.root s) in
      let initial = Semantics.Attrs.evaluations ev in
      let count = 20 in
      let edits = Edit_gen.token_edits ~seed:67 ~count (Session.text s) in
      List.iter
        (fun (e : Edit_gen.edit) ->
          let inv = Edit_gen.inverse e (Session.text s) in
          Session.edit s ~pos:e.Edit_gen.e_pos ~del:e.Edit_gen.e_del
            ~insert:e.Edit_gen.e_insert;
          ignore (reparse_exn s);
          ignore (Semantics.Attrs.eval ev (Session.root s));
          Session.edit s ~pos:inv.Edit_gen.e_pos ~del:inv.Edit_gen.e_del
            ~insert:inv.Edit_gen.e_insert;
          ignore (reparse_exn s);
          ignore (Semantics.Attrs.eval ev (Session.root s)))
        edits;
      let per_edit =
        float_of_int (Semantics.Attrs.evaluations ev - initial)
        /. float_of_int (2 * count)
      in
      Printf.printf "%-8d %10d %12d %14.1f %9.4f\n" lines total_nodes initial
        per_edit
        (per_edit /. float_of_int total_nodes))
    [ 250; 1000; 4000 ];
  Printf.printf
    "(subtrees shifted whole keep attribute values alive across reparses: the \
     per-edit evaluation count\n follows the damage, not the document — \
     the incremental semantic analysis of §4.2)\n"

(* ------------------------------------------------------------------ *)
(* Baseline: Earley vs LR/GLR (the §2.1 footnote).                     *)

let earley () =
  header "Baseline: Earley vs deterministic LR vs GLR (batch recognition)";
  let lang = Languages.Tiny.language in
  let table = Language.table lang in
  let g = lang.Language.grammar in
  Printf.printf "%-8s %12s %12s %12s %14s\n" "Tokens" "Earley (ms)"
    "LR (ms)" "GLR (ms)" "Earley items";
  List.iter
    (fun funcs ->
      let b = Buffer.create 4096 in
      for f = 0 to funcs do
        Buffer.add_string b
          (Printf.sprintf
             "proc fn%d ( ) { a = 1 + 2 * b; while (b) { b = b * 2; } }\n" f)
      done;
      let text = Buffer.contents b in
      let tokens, trailing = Lexgen.Scanner.all (Language.lexer lang) text in
      let terms =
        Array.of_list
          (List.map
             (fun (t : Lexgen.Scanner.token) -> t.Lexgen.Scanner.term)
             tokens)
      in
      let result = ref { Earley.accepted = false; items = 0 } in
      let t_earley =
        time_median ~runs:3 (fun () -> result := Earley.recognize g terms)
      in
      assert !result.Earley.accepted;
      let t_lr =
        time_median ~runs:3 (fun () -> Iglr.Lr_parser.recognize table terms)
      in
      let t_glr =
        time_median ~runs:3 (fun () -> Glr.parse_tokens table tokens ~trailing)
      in
      Printf.printf "%-8d %12.2f %12.2f %12.2f %14d\n" (Array.length terms)
        (t_earley *. 1e3) (t_lr *. 1e3) (t_glr *. 1e3)
        !result.Earley.items)
    [ 10; 20; 40; 80 ];
  Printf.printf
    "(GLR stays linear on near-LR grammars — the Tomita/Rekers observation \
     the paper builds on)\n"

(* ------------------------------------------------------------------ *)
(* Reuse percentages: the observability layer's headline numbers.      *)

(* Deterministic (seeded edit stream over a generated program), so the
   percentages — unlike wall-clock latencies — gate exactly against the
   committed baseline. *)
let reuse () =
  header "Reuse: per-language reuse percentages over a §5 edit stream";
  Printf.printf "%-8s %7s %9s %10s %10s %8s\n" "Lang" "cycles" "retain %"
    "subtree %" "la-match %" "token %";
  let c_lines = max 400 (int_of_float (8000. *. !scale)) in
  let cpp_profile = Spec_gen.find "ensemble" in
  let cpp_scale =
    Float.max !scale (600.0 /. float_of_int cpp_profile.Spec_gen.p_lines)
  in
  let programs =
    [
      ( "calc",
        Languages.Calc.language,
        String.concat "\n"
          (List.init 120 (fun i ->
               Printf.sprintf "v%d = (1%d + 2) * x%d / 3;" i (i mod 10) i)) );
      ( "tiny",
        Languages.Tiny.language,
        String.concat "\n"
          (List.init 60 (fun f ->
               Printf.sprintf
                 "proc fn%d ( ) { a = 1%d + 2 * b; while (b) { b = b * 2; } }"
                 f (f mod 10))) );
      ( "c",
        Languages.C_subset.language,
        Spec_gen.plain ~lines:c_lines ~seed:71 );
      ( "cpp",
        Spec_gen.language_of cpp_profile,
        Spec_gen.generate ~seed:73 ~scale:cpp_scale cpp_profile );
    ]
  in
  List.iter
    (fun (name, lang, src) ->
      let s = session_of lang src in
      let count = 12 in
      let before = Metrics.snapshot () in
      let edits = Edit_gen.token_edits ~seed:83 ~count (Session.text s) in
      List.iter (fun e -> ignore (edit_cycle s e)) edits;
      let d = Metrics.diff (Metrics.snapshot ()) before in
      let subtree_pct =
        Metrics.share d "glr.shifted_subtrees" "glr.shifted_terminals"
      in
      let la_match = Metrics.count d "glr.lookahead_state_match" in
      let la_other =
        Metrics.count d "glr.lookahead_state_miss"
        + Metrics.count d "glr.lookahead_nostate"
      in
      let la_pct =
        if la_match + la_other = 0 then 0.
        else 100. *. float_of_int la_match /. float_of_int (la_match + la_other)
      in
      let token_pct =
        Metrics.share d "vdoc.tokens_reused" "vdoc.tokens_relexed"
      in
      (* Of the whole tree, how much survives an average reparse: nodes
         allocated per reparse against the tree's node count.  The spine
         above the edit is always rebuilt, so flat list-shaped programs
         retain less than nested ones (§3.4). *)
      let tree_nodes = Node.count_nodes (Session.root s) in
      let reparses = max 1 (Metrics.count d "glr.parses") in
      let created_per_reparse =
        float_of_int (Metrics.count d "glr.nodes_created")
        /. float_of_int reparses
      in
      let retained_pct =
        100. *. (1. -. (created_per_reparse /. float_of_int tree_nodes))
      in
      record "reuse" ~experiment:"reuse" ~language:name ~case:"token-edits"
        [
          ("cycles", Json.Int count);
          ("tree_retained_pct", Json.Float retained_pct);
          ("subtree_shift_pct", Json.Float subtree_pct);
          ("lookahead_state_match_pct", Json.Float la_pct);
          ("token_reuse_pct", Json.Float token_pct);
        ];
      Printf.printf "%-8s %7d %9.2f %10.2f %10.2f %8.2f\n" name count
        retained_pct subtree_pct la_pct token_pct)
    programs;
  Printf.printf
    "(retain %%: share of the tree NOT rebuilt by an average reparse; \
     subtree %%: undamaged\n subtrees shifted whole vs terminal shifts; \
     la-match %%: lookahead subtrees accepted by\n the recorded state vs \
     decomposed; token %%: tokens reused by the incremental lexer vs\n \
     re-lexed)\n"

(* ------------------------------------------------------------------ *)
(* Recovery: error isolation, reuse outside the damage, budgets.       *)

(* Deterministic (fixed seed, fixed fault site), so every percentage
   gates exactly against the committed baseline:
   - containment: a mid-file fault must be confined to a few tokens of
     the enclosing statement, not spread over the document;
   - outside reuse: with the fault still present, edits far away must
     reuse almost the whole tree (the §5 invariant on the error path);
   - convergence: repairing the text must return to a clean parse with
     no residual error regions;
   - budget survival: each budget kind must terminate with an outcome
     (degraded or recovered), never an uncaught exception. *)
let recovery () =
  header "Recovery: error isolation, reuse outside the damage, budgets";
  let lang = Languages.C_subset.language in
  let lines = max 200 (int_of_float (4000. *. !scale)) in
  let src = Spec_gen.plain ~lines ~seed:101 in
  let s = session_of lang src in
  (* Inject a fault at the statement boundary nearest the middle. *)
  let fault_pos =
    match String.index_from_opt src (String.length src / 2) ';' with
    | Some i -> i
    | None -> String.index src ';'
  in
  Session.edit s ~pos:fault_pos ~del:0 ~insert:" ) ( ";
  let (isolated, flagged), t_isolate =
    time_once (fun () ->
        match Session.reparse s with
        | Session.Recovered { isolated; flagged; _ } -> (isolated, flagged)
        | Session.Parsed _ -> failwith "recovery: fault text parsed cleanly")
  in
  let doc_tokens = Vdoc.Document.token_count (Session.document s) in
  let contained_pct =
    100. *. (1. -. (float_of_int flagged /. float_of_int doc_tokens))
  in
  record "latency" ~experiment:"recovery" ~language:"c"
    ~case:"isolating-reparse" (sample_fields [ t_isolate ]);
  Printf.printf
    "fault at byte %d: %d token(s) flagged in %d isolated region(s) of a \
     %d-token document (%.2f%% contained), %.2f ms\n"
    fault_pos flagged isolated doc_tokens contained_pct (t_isolate *. 1e3);
  (* Edits far from the standing error: one near the start, one near the
     end; each is inserted and removed again, and every reparse should
     rebuild only the spine plus the re-isolated region. *)
  let samples = ref [] in
  let reuse_pcts = ref [] in
  List.iter
    (fun pos ->
      let total = float_of_int (Node.count_nodes (Session.root s)) in
      let before = Metrics.snapshot () in
      Session.edit s ~pos ~del:0 ~insert:" x9 = 1;";
      let _, t1 = time_once (fun () -> Session.reparse s) in
      Session.edit s ~pos ~del:8 ~insert:"";
      let _, t2 = time_once (fun () -> Session.reparse s) in
      let d = Metrics.diff (Metrics.snapshot ()) before in
      let created =
        float_of_int (Metrics.count d "glr.nodes_created") /. 2.
      in
      reuse_pcts := (100. *. (1. -. (created /. total))) :: !reuse_pcts;
      samples := t1 :: t2 :: !samples)
    [ String.index src ';' + 1; String.rindex src ';' + 1 ];
  let outside_reuse_pct = mean !reuse_pcts in
  record "latency" ~experiment:"recovery" ~language:"c"
    ~case:"reparse-with-standing-error" (sample_fields !samples);
  Printf.printf
    "edits outside the damaged region: %.2f%% of the tree reused per \
     reparse (%d reparses)\n"
    outside_reuse_pct (List.length !samples);
  (* Repair: rewrite the document back to the pristine text. *)
  let cur = String.length (Session.text s) in
  Session.edit s ~pos:0 ~del:cur ~insert:src;
  let converged =
    match Session.reparse s with
    | Session.Parsed _ -> Session.error_regions s = []
    | Session.Recovered _ -> false
  in
  Printf.printf "repair converges to a clean parse: %b\n" converged;
  (* Budgets: each kind must terminate with an outcome on a fresh parse. *)
  let survived = ref 0 in
  let budgets =
    [
      ("max-parsers=1", { Glr.no_budget with Glr.max_parsers = 1 });
      ("max-nodes=64", { Glr.no_budget with Glr.max_nodes = 64 });
      ("deadline-ms=0", { Glr.no_budget with Glr.deadline_ms = 0.0 });
    ]
  in
  List.iter
    (fun (name, budget) ->
      match
        Session.create ~budget ~table:(Language.table lang)
          ~lexer:(Language.lexer lang) src
      with
      | _, Session.Parsed st ->
          incr survived;
          Printf.printf "budget %-14s parsed (degraded=%b)\n" name
            st.Glr.degraded
      | _, Session.Recovered { degraded; flagged; isolated; _ } ->
          incr survived;
          Printf.printf "budget %-14s recovered (degraded=%b flagged=%d \
                         isolated=%d)\n"
            name degraded flagged isolated
      | exception e ->
          Printf.printf "budget %-14s ESCAPED: %s\n" name
            (Printexc.to_string e))
    budgets;
  let survival_pct =
    100. *. float_of_int !survived /. float_of_int (List.length budgets)
  in
  record "recovery" ~experiment:"recovery" ~language:"c" ~case:"mid-file-fault"
    [
      ("isolated_regions", Json.Int isolated);
      ("flagged_tokens", Json.Int flagged);
      ("doc_tokens", Json.Int doc_tokens);
      ("containment_pct", Json.Float contained_pct);
      ("outside_reuse_pct", Json.Float outside_reuse_pct);
      ("convergence_pct", Json.Float (if converged then 100. else 0.));
      ("budget_survival_pct", Json.Float survival_pct);
    ];
  Printf.printf
    "(containment, outside reuse, convergence and budget survival are \
     deterministic and gate\n against the committed baseline via \
     check_regress)\n"

(* ------------------------------------------------------------------ *)
(* Instrumentation overhead: the observability layer's own cost.       *)

(* The one wall-clock estimator: a ratio of two modes.  [pairs]
   back-to-back runs of mode [a] then mode [b] ([a ()] and [b ()] switch
   the mode), each timed by [measure] in seconds; the result is the
   minimum of [a]'s runs over the minimum of [b]'s.  Interleaving makes
   load drift hit both modes alike, and ambient noise only ever adds
   time, so the minima estimate each mode's uncontended cost. *)
let paired_min_ratio ~pairs ~name ~a ~b measure =
  let best_a = ref infinity and best_b = ref infinity in
  for _ = 1 to pairs do
    a ();
    best_a := Float.min !best_a (measure ());
    b ();
    best_b := Float.min !best_b (measure ())
  done;
  let ratio = !best_a /. !best_b in
  Printf.printf "%-18s %8.1f µs vs %8.1f µs  ratio %.3f (%+.2f%%)\n" name
    (!best_a *. 1e6) (!best_b *. 1e6) ratio
    ((ratio -. 1.) *. 100.);
  ratio

let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    best := Float.min !best (f ())
  done;
  !best

let overhead () =
  header "Instrumentation overhead: metrics on vs off (§5 edit cycle)";
  let s =
    session_of Languages.C_subset.language (Spec_gen.plain ~lines:400 ~seed:91)
  in
  let e = List.hd (Edit_gen.token_edits ~seed:97 ~count:1 (Session.text s)) in
  (* Single-threaded: the best wall time of 5 whole edit cycles (edit,
     reparse, undo, reparse), over 100 pairs.  Short runs and many pairs
     let both modes sample the same stretches of a host whose speed
     drifts by tens of percent from one stretch to the next. *)
  let cycle () =
    best_of 5 (fun () -> snd (time_once (fun () -> edit_cycle s e)))
  in
  let metrics on () = Metrics.set_enabled on in
  let trace on () = Trace.set_enabled on in
  Printf.printf "best of 5 edit cycles, minimum over 100 interleaved pairs:\n";
  let record ?gate case ratio =
    record ?gate "latency" ~experiment:"overhead" ~language:"c" ~case
      (ratio_fields ratio)
  in
  (* Informational (target < 5%): single-digit-µs differences make the
     ratio noisy at small scales. *)
  record ~gate:false "edit-cycle-on-off"
    (paired_min_ratio ~pairs:100 ~name:"metrics on / off" ~a:(metrics true)
       ~b:(metrics false) cycle);
  Metrics.set_enabled true;
  (* The structured trace sink.  Disabled, every emission site is a
     single branch, so its cost cannot be isolated in-process; instead
     two interleaved runs of the identical trace-off configuration bound
     the disabled sink within measurement noise (target < 5%).  The
     enabled/disabled ratio gates: a jump there means an emission site
     started doing real per-event work even before the [enabled]
     guard. *)
  record ~gate:false "edit-cycle-trace-disabled"
    (paired_min_ratio ~pairs:100 ~name:"trace off / off" ~a:(trace false)
       ~b:(trace false) cycle);
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ())
    (fun () ->
      record "edit-cycle-trace-on-off"
        (paired_min_ratio ~pairs:100 ~name:"trace on / off" ~a:(trace true)
           ~b:(trace false) cycle));
  (* The sharded registry's promise: enabling metrics costs the same
     when N domains hammer their own shards concurrently as it does
     single-threaded.  Cross-domain contention (false sharing, a shared
     lock on the hot path) would widen this ratio specifically, so it
     gates.  Sessions are created on this thread — worker domains only
     run edit cycles (Lazy table forcing is not domain-safe). *)
  let mdomains = 4 in
  let reps = max 50 (int_of_float (1000. *. !scale)) in
  (* Timed inside each domain, after a warm-up cycle and a start
     barrier, and summed: domain spawn, session setup and first-reparse
     warm-up stay out of the measurement, and contention shows up as
     inflated per-domain loop time no matter how the domains schedule.
     Each domain keeps its best cycle: a clean cycle dodges
     descheduling and the other domains' stop-the-world pauses, which
     on a loaded (or single-core) host otherwise swamp the
     instrumentation cost being measured. *)
  let run_once () =
    let work =
      List.init mdomains (fun i ->
          let s =
            session_of Languages.C_subset.language
              (Spec_gen.plain ~lines:100 ~seed:(19 + i))
          in
          let e =
            List.hd (Edit_gen.token_edits ~seed:(101 + i) ~count:1 (Session.text s))
          in
          (s, e))
    in
    let gate = Atomic.make 0 in
    List.map
      (fun (s, e) ->
        Domain.spawn (fun () ->
            ignore (edit_cycle s e);
            Atomic.incr gate;
            while Atomic.get gate < mdomains do
              Domain.cpu_relax ()
            done;
            best_of reps (fun () -> edit_cycle s e)))
      work
    |> List.map Domain.join
    |> List.fold_left ( +. ) 0.
  in
  Printf.printf "%d domains, summed best reparses of %d edit cycles per domain:\n"
    mdomains reps;
  record "multi-domain-on-off"
    (paired_min_ratio ~pairs:10 ~name:"metrics on / off" ~a:(metrics true)
       ~b:(metrics false) run_once);
  Metrics.set_enabled true

(* ------------------------------------------------------------------ *)
(* Static ambiguity analysis: analyzer cost and coverage drift.        *)

(* The analyzer runs at build time (@ambig-smoke), so what matters here
   is that a grammar change neither blows up the witness search nor
   drifts the committed coverage.  Timing is absolute analyze time per
   language at the witness bound K = 5 (the bound the smoke alias
   uses); it is independent of --scale but not of process history, so
   it is reported rather than gated.  The coverage shares are
   deterministic — same grammar, same replay pipeline — so they gate
   exactly like the reuse percentages: losing a resolved class, or
   retaining a new unresolved one, shows up as a pct drop. *)
let ambig () =
  header "ambig: static ambiguity analysis (witness bound K = 5)";
  let langs =
    Languages.
      [ Calc.language; C_subset.language; Cpp_subset.language; Lr2.language ]
  in
  List.iter
    (fun lang ->
      let cfg = Analyze.Of_language.ambig ~max_len:5 lang in
      let report = ref None in
      (* Compact so the witness search is not taxed with major-GC work
         accumulated by earlier experiments in an all-suite run. *)
      Gc.compact ();
      let t =
        time_stats ~runs:3 (fun () ->
            report := Some (Analyze.Ambig.analyze cfg))
      in
      let r = Option.get !report in
      let classes = r.Analyze.Ambig.r_classes in
      let total = List.length classes in
      let count res =
        List.length
          (List.filter (fun k -> k.Analyze.Ambig.k_resolution = res) classes)
      in
      let unresolved = count Analyze.Ambig.Retained_unresolved in
      let witnesses =
        List.length
          (List.filter (fun k -> k.Analyze.Ambig.k_witness <> None) classes)
      in
      let pct n =
        if total = 0 then 100. else 100. *. float_of_int n /. float_of_int total
      in
      (* Analyze time is absolute wall-clock and (for cpp) shifts with
         whatever ran earlier in the process, so like the other absolute
         figures it ships informational; the deterministic coverage
         shares below are the gate. *)
      record ~gate:false "ambig" ~experiment:"ambig"
        ~language:lang.Language.name ~case:"analyze-k5"
        (timing_fields ~runs:3 t);
      record "ambig" ~experiment:"ambig" ~language:lang.Language.name
        ~case:"coverage-k5"
        [
          ("classes", Json.Int total);
          ("flagged", Json.Int (List.length r.Analyze.Ambig.r_flagged));
          ("witnesses", Json.Int witnesses);
          ("covered_pct", Json.Float (pct (total - unresolved)));
          ( "static_pct",
            Json.Float (pct (count Analyze.Ambig.Resolved_static)) );
          ( "syntactic_pct",
            Json.Float (pct (count Analyze.Ambig.Resolved_syntactic)) );
          ( "semantic_pct",
            Json.Float (pct (count Analyze.Ambig.Resolved_semantic)) );
        ];
      Printf.printf
        "%-12s %2d classes, %d unresolved, %d witnesses; analyze median %.1f \
         ms\n"
        lang.Language.name total unresolved witnesses (t.tmed *. 1e3))
    langs

(* ------------------------------------------------------------------ *)
(* Filter compilation: residual cost of dynamic disambiguation.        *)

(* The dynamic pipeline parses on the conflict-retaining table and runs
   [Syn_filter.apply] on every committed tree; the compiled pipeline is
   what every tool parses on, [Language.table], with the rules folded
   into it by [Lrtab.Compile] and no filter left to run.  Every bundled
   language compiles to an empty residual set, so the compiled pipeline
   must show zero apply calls — a deterministic invariant, gated below
   as percentages (elimination shares and the zero-apply indicator).
   The per-parse filter-cost medians are absolute wall-clock on small
   inputs and ship informational, like the other absolute figures. *)
let filter_bench () =
  header "filter: compiled vs dynamic disambiguation cost";
  let c_lines = max 120 (int_of_float (2000. *. !scale)) in
  let programs =
    [
      ( "calc",
        Languages.Calc.language,
        String.concat "\n"
          (List.init 80 (fun i ->
               Printf.sprintf "v%d = (1%d + 2) * x%d / 3;" i (i mod 10) i)) );
      ("c", Languages.C_subset.language, Spec_gen.plain ~lines:c_lines ~seed:71);
      ("lr2", Languages.Lr2.language, "x z c");
    ]
  in
  Printf.printf "%-8s %-9s %9s %11s %11s\n" "lang" "pipeline"
    "reparse" "apply-calls" "apply-ms";
  List.iter
    (fun (name, lang, src) ->
      let lexer = Language.lexer lang in
      let declared = lang.Language.ambig.Language.syn_filters in
      let compiled = Language.compiled lang in
      let decisions = List.length compiled.Lrtab.Compile.decisions in
      (* One pipeline run: parse, then a fixed stream of self-cancelling
         leading-whitespace edits (safe in every bundled language), so
         the filters run once per reparse. *)
      let run table filters =
        Gc.compact ();
        let before = Metrics.snapshot () in
        let s, outcome = Session.create ~table ~lexer src in
        (match outcome with
        | Session.Parsed _ -> ()
        | Session.Recovered _ -> failwith "filter bench: fixture failed to parse");
        if filters <> [] then begin
          let apply root =
            ignore (Iglr.Syn_filter.apply lang.Language.grammar filters root)
          in
          apply (Session.root s);
          Session.on_commit s (fun ~watermark:_ root -> apply root)
        end;
        let samples =
          List.concat_map
            (fun _ ->
              Session.edit s ~pos:0 ~del:0 ~insert:" ";
              let _, t1 = time_once (fun () -> reparse_exn s) in
              Session.edit s ~pos:0 ~del:1 ~insert:"";
              let _, t2 = time_once (fun () -> reparse_exn s) in
              [ t1; t2 ])
            (List.init 8 Fun.id)
        in
        (Metrics.diff (Metrics.snapshot ()) before, timing_of_samples samples)
      in
      let report case (d, t) =
        let parses = max 1 (Metrics.count d "glr.parses") in
        let apply_calls = Metrics.count d "filter.apply_calls" in
        let apply_ms = Metrics.span_seconds d "filter.apply" *. 1e3 in
        record ~gate:false "filter" ~experiment:"filter" ~language:name
          ~case:(case ^ "-reparse")
          (timing_fields ~runs:(2 * 8) t
          @ [ ("apply_ms_per_parse", Json.Float (apply_ms /. float_of_int parses))
            ]);
        Printf.printf "%-8s %-9s %7.2fms %11d %9.3fms\n" name case
          (t.tmed *. 1e3) apply_calls apply_ms;
        apply_calls
      in
      let dyn_calls =
        report "dynamic" (run (Language.conflict_table lang) declared)
      in
      let comp_calls = report "compiled" (run (Language.table lang) []) in
      let residual = List.length compiled.Lrtab.Compile.residual in
      let pct_of b = if b then 100. else 0. in
      let elim_pct =
        if dyn_calls = 0 then 100.
        else
          100. *. float_of_int (dyn_calls - comp_calls) /. float_of_int dyn_calls
      in
      (* The deterministic gate: compilation must keep the residual set
         empty (so declared rules were compiled or dead, never left
         dynamic) and the compiled pipeline must make zero apply calls. *)
      record "filter" ~experiment:"filter" ~language:name ~case:"elimination"
        [
          ("declared", Json.Int (List.length declared));
          ("residual", Json.Int residual);
          ("decisions", Json.Int decisions);
          ("dynamic_apply_calls", Json.Int dyn_calls);
          ("compiled_apply_calls", Json.Int comp_calls);
          ("apply_eliminated_pct", Json.Float elim_pct);
          ("residual_empty_pct", Json.Float (pct_of (residual = 0)));
          ("compiled_zero_apply_pct", Json.Float (pct_of (comp_calls = 0)));
        ])
    programs;
  Printf.printf
    "(gate: residual sets stay empty and the compiled pipeline makes zero \
     Syn_filter.apply calls;\n per-parse apply cost and reparse medians are \
     informational)\n"

(* ------------------------------------------------------------------ *)
(* In-process iglrd engine, shared by the server and chaos experiments:
   responses and access-log lines are captured (newest first) so the
   experiments can read latencies and error codes back off the wire. *)

type driver = {
  engine : Server.Engine.t;
  responses : string list ref;
  access_log : string list ref;
}

let collector () =
  let m = Mutex.create () in
  let lines = ref [] in
  (lines, fun l -> Mutex.protect m (fun () -> lines := l :: !lines))

let with_engine ?jobs ?max_inflight f =
  let responses, emit = collector () in
  let access_log, log = collector () in
  let engine = Server.Engine.create ?jobs ?max_inflight ~log ~emit () in
  Fun.protect ~finally:(fun () -> Server.Engine.shutdown engine) @@ fun () ->
  f { engine; responses; access_log }

let send d fields =
  Server.Engine.handle_line d.engine (Json.to_line (Json.Obj fields))

let doc i = Printf.sprintf "doc%d" i

(* Opens calc documents doc0 .. doc(n-1), doc i holding [text i]. *)
let open_docs d n text =
  for i = 0 to n - 1 do
    send d
      [
        ("id", Json.Int i);
        ("method", Json.String "open");
        ( "params",
          Json.Obj
            [
              ("doc", Json.String (doc i));
              ("lang", Json.String "calc");
              ("text", Json.String (text i));
            ] );
      ]
  done;
  Server.Engine.drain d.engine

(* One single-edit request on doc i. *)
let send_edit d ~id i ~pos ~del ~insert =
  send d
    [
      ("id", Json.Int id);
      ("method", Json.String "edit");
      ( "params",
        Json.Obj
          [
            ("doc", Json.String (doc i));
            ( "edits",
              Json.List [ Server.Protocol.edit_to_json { pos; del; insert } ]
            );
          ] );
    ]

let health_int d name =
  match
    Option.bind (Json.member name (Server.Engine.health d.engine)) Json.to_int
  with
  | Some v -> v
  | None -> failwith ("bench: health snapshot lacks " ^ name)

(* End-to-end parse latencies (accept -> response emitted, queueing
   included) from the access log; there must be [expected] of them. *)
let access_log_parse_ms d ~expected =
  let samples =
    List.filter_map
      (fun line ->
        let j = Json.of_string line in
        match Option.bind (Json.member "method" j) Json.to_str with
        | Some "parse" -> Option.bind (Json.member "ms" j) Json.to_float
        | _ -> None)
      !(d.access_log)
  in
  if List.length samples <> expected then
    failwith
      (Printf.sprintf "bench: expected %d access-log parses, got %d" expected
         (List.length samples));
  samples

(* ------------------------------------------------------------------ *)
(* Parse-service daemon: sustained concurrent edits across independent
   documents on the iglrd engine.  8 sessions share one compiled table;
   every round sends each document a one-token edit plus a timed parse,
   so up to 8 reparses are in flight across the worker domains at once.
   Reported: sustained edits/sec, the p99 reparse and request latencies
   under load over >= 1000 samples (gated, noise-floored), and two
   deterministic gates — every document must agree with a
   single-threaded oracle replay (oracle_agree_pct) and all 8 documents
   must still be live in the pool at the end (parallel_docs_pct). *)
let server_bench () =
  header "Parse-service daemon: concurrent edit streams (iglrd engine)";
  let n_docs = 8 in
  let lines = max 8 (int_of_float (200. *. !scale)) in
  (* At least 125 rounds at every scale: the gated p99s are then
     nearest-rank over >= 1000 samples (the 10th largest), not the
     maximum of a handful. *)
  let rounds = max 125 (int_of_float (125. *. !scale)) in
  let base i =
    String.concat "\n"
      (List.init lines (fun k -> Printf.sprintf "a%d = 1 + %d;" k ((i + k) mod 9)))
  in
  (* Every document's first line is "a0 = 1 + d;": the round's one-token
     edit replaces the RHS "1" at byte 5, so positions are stable and
     the program stays grammatical for the whole stream. *)
  let round_edit r = (5, 1, string_of_int (1 + (r mod 9))) in
  with_engine @@ fun d ->
  let engine = d.engine in
  let send = send d in
  open_docs d n_docs base;
  let t0 = now () in
  for r = 0 to rounds - 1 do
    for i = 0 to n_docs - 1 do
      let pos, del, insert = round_edit r in
      send_edit d ~id:((r * n_docs) + i) i ~pos ~del ~insert;
      send
        [
          ("id", Json.Int (-((r * n_docs) + i)));
          ("method", Json.String "parse");
          ( "params",
            Json.Obj [ ("doc", Json.String (doc i)); ("timing", Json.Bool true) ]
          );
        ]
    done;
    (* One round in flight at a time: a request waits behind at most one
       edit and one parse per document, however many rounds run, so the
       request p99 stays a per-request latency and not the drain time of
       the whole stream. *)
    Server.Engine.drain engine
  done;
  let wall = now () -. t0 in
  (* The telemetry surface, exercised over the wire: the OpenMetrics
     exposition must survive its own strict parser. *)
  send
    [
      ("id", Json.String "om");
      ("method", Json.String "telemetry");
      ("params", Json.Obj [ ("view", Json.String "metrics") ]);
    ];
  Server.Engine.drain engine;
  (match
     List.filter_map
       (fun line ->
         Option.bind (Json.member "result" (Json.of_string line)) (fun res ->
             Option.bind (Json.member "openmetrics" res) Json.to_str))
       !(d.responses)
   with
  | [ text ] -> (
      match Metrics.Openmetrics.parse text with
      | Ok _ -> ()
      | Error msg -> failwith ("server bench: openmetrics rejected: " ^ msg))
  | l ->
      failwith
        (Printf.sprintf "server bench: expected one openmetrics payload, got %d"
           (List.length l)));
  (* Per-request reparse latencies, read back off the wire. *)
  let samples =
    List.filter_map
      (fun line ->
        Option.bind (Json.member "result" (Json.of_string line)) (fun res ->
            Option.bind (Json.member "ms" res) Json.to_float))
      !(d.responses)
  in
  let n_samples = List.length samples in
  if n_samples <> n_docs * rounds then
    failwith
      (Printf.sprintf "server bench: expected %d timed parses, got %d"
         (n_docs * rounds) n_samples);
  let p99 = percentile 0.99 samples in
  (* Oracle: a single-threaded Session replaying each document's stream
     must land on the same dag as the concurrent engine. *)
  let lang = Languages.Calc.language in
  let agree = ref 0 in
  for i = 0 to n_docs - 1 do
    let oracle = session_of lang (base i) in
    for r = 0 to rounds - 1 do
      let pos, del, insert = round_edit r in
      Session.edit oracle ~pos ~del ~insert;
      ignore (reparse_exn oracle)
    done;
    match Server.Pool.find (Server.Engine.pool engine) (doc i) with
    | None -> ()
    | Some e ->
        let sexp s =
          Parsedag.Pp.to_sexp lang.Language.grammar (Session.root s)
        in
        if String.equal (sexp oracle) (sexp e.Server.Pool.session) then
          incr agree
  done;
  let live = Server.Pool.size (Server.Engine.pool engine) in
  let edits_per_sec = float_of_int (n_docs * rounds) /. wall in
  let agree_pct = 100. *. float_of_int !agree /. float_of_int n_docs in
  let docs_pct = 100. *. float_of_int live /. float_of_int n_docs in
  Printf.printf
    "%d docs x %d rounds on %d worker domain(s): %.0f edits/sec sustained, \
     p99 reparse %.3f ms, oracle agreement %.0f%%\n"
    n_docs rounds
    (Server.Engine.jobs engine)
    edits_per_sec (p99 *. 1.) agree_pct;
  record "server" ~experiment:"server" ~language:"calc" ~case:"p99-reparse"
    [
      ("median", Json.Float p99);
      ("docs", Json.Int n_docs);
      ("rounds", Json.Int rounds);
    ];
  record ~gate:false "server" ~experiment:"server" ~language:"calc"
    ~case:"throughput"
    [
      ("edits_per_sec", Json.Float edits_per_sec);
      ("wall_ms", Json.Float (wall *. 1e3));
    ];
  record "server" ~experiment:"server" ~language:"calc" ~case:"oracle"
    [
      ("oracle_agree_pct", Json.Float agree_pct);
      ("parallel_docs_pct", Json.Float docs_pct);
    ];
  (* End-to-end request latency, read back from the structured access
     log; and the telemetry invariants — the flight recorder full to its
     expected depth, the trace rings clean — as gated percentages. *)
  let request_p99 =
    percentile 0.99 (access_log_parse_ms d ~expected:(n_docs * rounds))
  in
  let health = Server.Engine.health engine in
  let flight_depth = health_int d "flight_depth" in
  let flight_cap =
    match
      Option.bind
        (Json.member "capacity" (Server.Engine.flight engine))
        Json.to_int
    with
    | Some c -> c
    | None -> failwith "server bench: flight recorder lacks capacity"
  in
  let flight_depth_pct =
    100. *. float_of_int flight_depth
    /. float_of_int (min flight_cap (n_docs * rounds))
  in
  let dropped =
    match
      Option.bind (Json.member "trace" health) (fun tr ->
          Option.bind (Json.member "dropped" tr) Json.to_int)
    with
    | Some d -> d
    | None -> failwith "server bench: health snapshot lacks trace.dropped"
  in
  let zero_dropped_pct = if dropped = 0 then 100. else 0. in
  Printf.printf
    "p99 request latency %.3f ms end-to-end; flight recorder %d/%d deep; \
     %d trace event(s) dropped\n"
    request_p99 flight_depth
    (min flight_cap (n_docs * rounds))
    dropped;
  record "server" ~experiment:"server" ~language:"calc" ~case:"request-p99"
    [
      ("median", Json.Float request_p99);
      ("docs", Json.Int n_docs);
      ("rounds", Json.Int rounds);
    ];
  record "server" ~experiment:"server" ~language:"calc" ~case:"telemetry"
    [
      ("flight_depth_pct", Json.Float flight_depth_pct);
      ("zero_dropped_pct", Json.Float zero_dropped_pct);
    ]

(* Fault-injected availability run (BENCH_chaos.json).  Two phases on
   one supervised engine:

   - supervision: a clean edit+parse round per document with one
     injected mid-execution domain kill.  The killed parse must answer
     -32006, its document heals on the next touch, and the scheduler
     must have spawned exactly one replacement domain.
   - overload: a stall fault pins the worker for one dispatch cycle
     while a parse flood exceeds the bounded admission cap, shedding
     oldest-first.  Shedding must stay bounded (every shed is still a
     -32007 response, so delivery stays total).

   Gates: responses_delivered_pct (must hold at 100 — also enforced
   here as a hard failure), served_pct (a rise in shedding fails the
   reuse rule), worker_replaced_pct, and the p99 request latency under
   the faults (noise-floored latency rule). *)
let chaos_bench () =
  header "Fault-injected chaos: supervision + overload shedding (iglrd engine)";
  let n_docs = 4 in
  let flood = max 16 (int_of_float (200. *. !scale)) in
  let base i =
    String.concat "\n"
      (List.init 20 (fun k -> Printf.sprintf "a%d = 1 + %d;" k ((i + k) mod 9)))
  in
  with_engine ~jobs:1 ~max_inflight:8 @@ fun d ->
  Fun.protect ~finally:Fault.clear @@ fun () ->
  let engine = d.engine in
  let send = send d in
  let parse ~id i =
    send
      [
        ("id", Json.Int id);
        ("method", Json.String "parse");
        ("params", Json.Obj [ ("doc", Json.String (doc i)) ]);
      ]
  in
  open_docs d n_docs base;
  let install plan =
    match Fault.plan_of_string plan with
    | Ok p -> Fault.install p
    | Error e -> failwith ("chaos bench: bad plan: " ^ e)
  in
  (* Phase 1 — supervision: the second executed parse is killed
     mid-execution. *)
  install "seed=7;kill.mid@2";
  for i = 0 to n_docs - 1 do
    send_edit d ~id:(100 + i) i ~pos:5 ~del:1
      ~insert:(string_of_int (i mod 9));
    parse ~id:(200 + i) i
  done;
  Server.Engine.drain engine;
  Fault.clear ();
  (* Phase 2 — overload: pin the worker for one dispatch cycle and
     flood parses past the admission cap. *)
  install "seed=7;stall=80;stall@1";
  for k = 0 to flood - 1 do
    parse ~id:(1000 + k) (k mod n_docs)
  done;
  Server.Engine.drain engine;
  Fault.clear ();
  let accepted = Server.Engine.requests engine in
  let delivered = List.length !(d.responses) in
  if delivered <> accepted then
    failwith
      (Printf.sprintf "chaos bench: %d accepted but %d responses delivered"
         accepted delivered);
  let count_code code =
    List.length
      (List.filter
         (fun line ->
           match Json.member "error" (Json.of_string line) with
           | Some e -> (
               match Option.bind (Json.member "code" e) Json.to_int with
               | Some c -> c = code
               | None -> false)
           | None -> false)
         !(d.responses))
  in
  let crashed = count_code Server.Protocol.e_worker in
  let sheds = count_code Server.Protocol.e_overloaded in
  if crashed <> 1 then
    failwith
      (Printf.sprintf "chaos bench: expected 1 crashed parse, saw %d" crashed);
  let restarts = health_int d "supervised_restarts" in
  let parses = n_docs + flood in
  let delivered_pct = 100. *. float_of_int delivered /. float_of_int accepted in
  let shed_pct = 100. *. float_of_int sheds /. float_of_int parses in
  let served_pct = 100. -. shed_pct in
  let replaced_pct = if restarts >= 1 then 100. else 0. in
  let p99 = percentile 0.99 (access_log_parse_ms d ~expected:parses) in
  Printf.printf
    "%d requests accepted, %d delivered (%.0f%%); %d/%d parses shed \
     (%.1f%%); 1 domain kill, %d replacement(s); p99 %.3f ms under faults\n"
    accepted delivered delivered_pct sheds parses shed_pct restarts p99;
  record "chaos" ~experiment:"chaos" ~language:"calc" ~case:"delivery"
    [ ("responses_delivered_pct", Json.Float delivered_pct) ];
  record "chaos" ~experiment:"chaos" ~language:"calc" ~case:"overload"
    [ ("served_pct", Json.Float served_pct) ];
  record ~gate:false "chaos" ~experiment:"chaos" ~language:"calc"
    ~case:"shed-share"
    [ ("shed_pct", Json.Float shed_pct); ("flood", Json.Int flood) ];
  record "chaos" ~experiment:"chaos" ~language:"calc" ~case:"supervision"
    [ ("worker_replaced_pct", Json.Float replaced_pct) ];
  record "chaos" ~experiment:"chaos" ~language:"calc" ~case:"p99-under-faults"
    [ ("median", Json.Float p99); ("docs", Json.Int n_docs) ]

(* ------------------------------------------------------------------ *)
(* Semantic queries: per-edit diagnostics on the incremental engine.   *)

(* Deterministic (seeded token-edit stream, deterministic analyses), so
   the percentages gate exactly against the committed baseline:
   - cell reuse: a single-token edit must leave >= 90% of the semantic
     cells validating clean rather than recomputing (early cutoff +
     keyed-by-retained-node reuse) — the query-layer analogue of the
     §5 syntactic reuse invariant;
   - scratch agreement: after every committed reparse the incremental
     result must render identically to a from-scratch analysis of the
     same tree (the differential oracle's invariant, 100%);
   - per-edit diagnostic latency ships under the latency rule
     (noise-floored at smoke scales). *)
let semantic_bench () =
  header "Semantic queries: per-edit diag latency, cell reuse, scratch oracle";
  let module Diag = Semantics.Diag in
  Printf.printf "%-8s %7s %9s %9s %9s %12s %12s\n" "Lang" "cells" "reuse %"
    "worst %" "agree %" "diag (ms)" "initial (ms)";
  let c_lines = max 200 (int_of_float (4000. *. !scale)) in
  let programs =
    [
      ( "calc",
        Languages.Calc.language,
        String.concat "\n"
          (List.init 100 (fun i ->
               Printf.sprintf "w%d = (1%d + 2) * w%d / 3;" i (i mod 10)
                 (max 0 (i - 1)))) );
      ("c", Languages.C_subset.language, Spec_gen.plain ~lines:c_lines ~seed:91);
    ]
  in
  List.iter
    (fun (name, lang, src) ->
      let make () = Diag.create lang.Language.grammar in
      let s = session_of lang src in
      let d = make () in
      Session.on_commit s (fun ~watermark root ->
          Diag.commit d ~watermark root);
      let _, t_initial = time_once (fun () -> Diag.run d (Session.root s)) in
      let engine = Diag.engine d in
      let samples = ref [] in
      let reuse_pcts = ref [] in
      let agree = ref 0 in
      let checks = ref 0 in
      let step (e : Edit_gen.edit) =
        Session.edit s ~pos:e.Edit_gen.e_pos ~del:e.Edit_gen.e_del
          ~insert:e.Edit_gen.e_insert;
        ignore (reparse_exn s);
        let c0 = (Query.stats engine).Query.computes in
        let r, t = time_once (fun () -> Diag.run d (Session.root s)) in
        samples := t :: !samples;
        let recomputed = (Query.stats engine).Query.computes - c0 in
        let total = Query.cells engine in
        reuse_pcts :=
          (100. *. (1. -. (float_of_int recomputed /. float_of_int total)))
          :: !reuse_pcts;
        (* From-scratch oracle: fresh analyzers over the same committed
           tree must produce an identical rendering (the typedef
           decisions are deterministic, so re-deciding them on the same
           dag reselects the same alternatives). *)
        let r0 = Diag.run (make ()) (Session.root s) in
        incr checks;
        if String.equal (Diag.render r) (Diag.render r0) then incr agree
      in
      let count = 12 in
      let edits = Edit_gen.token_edits ~seed:97 ~count (Session.text s) in
      List.iter
        (fun (e : Edit_gen.edit) ->
          let inv = Edit_gen.inverse e (Session.text s) in
          step e;
          step inv)
        edits;
      let reuse_pct = mean !reuse_pcts in
      let worst_pct = List.fold_left Float.min 100. !reuse_pcts in
      let agree_pct = 100. *. float_of_int !agree /. float_of_int !checks in
      if reuse_pct < 90. then
        failwith
          (Printf.sprintf
             "semantic: %s mean cell reuse %.1f%% on single-token edits \
              (need >= 90%%)"
             name reuse_pct);
      if agree_pct < 100. then
        failwith
          (Printf.sprintf
             "semantic: %s diverged from the scratch oracle (%d/%d agree)"
             name !agree !checks);
      let t = timing_of_samples !samples in
      let cells = Query.cells engine in
      Printf.printf "%-8s %7d %9.2f %9.2f %9.2f %12.3f %12.3f\n" name cells
        reuse_pct worst_pct agree_pct (t.tmed *. 1e3) (t_initial *. 1e3);
      record "semantic" ~experiment:"semantic" ~language:name ~case:"cell-reuse"
        [
          ("cycles", Json.Int count);
          ("cells", Json.Int cells);
          ("cell_reuse_pct", Json.Float reuse_pct);
          ("worst_reuse_pct", Json.Float worst_pct);
        ];
      record "semantic" ~experiment:"semantic" ~language:name
        ~case:"scratch-agreement"
        [ ("scratch_agree_pct", Json.Float agree_pct) ];
      record "semantic" ~experiment:"semantic" ~language:name ~case:"diag-edit"
        (timing_fields ~runs:(List.length !samples) t);
      record ~gate:false "semantic" ~experiment:"semantic" ~language:name
        ~case:"diag-initial"
        [ ("unit", Json.String "ms"); ("median", Json.Float (t_initial *. 1e3)) ])
    programs;
  Printf.printf
    "(reuse %%: semantic cells validated clean rather than recomputed per \
     single-token edit;\n agree %%: incremental result renders identically \
     to a from-scratch analysis of the same\n tree — the bench-side run of \
     the differential oracle the fuzz suite applies per edit)\n"

let experiments =
  [
    ("table1", table1);
    ("fig4", fig4);
    ("fig7", fig7);
    ("sec5-batch", sec5_batch);
    ("sec5-incremental", sec5_incremental);
    ("sec5-space", sec5_space);
    ("sec5-reconstruct", sec5_reconstruct);
    ("asymptotic", asymptotic);
    ("attrs", attrs);
    ("ablate-reuse", ablate_reuse);
    ("reuse", reuse);
    ("recovery", recovery);
    ("overhead", overhead);
    ("ambig", ambig);
    ("filter", filter_bench);
    ("earley", earley);
    ("server", server_bench);
    ("chaos", chaos_bench);
    ("semantic", semantic_bench);
  ]

let () =
  let args = Array.to_list Sys.argv in
  let rec parse_args picked = function
    | [] -> picked
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        parse_args picked rest
    | "--json-dir" :: d :: rest ->
        json_dir := d;
        parse_args picked rest
    | name :: rest when List.mem_assoc name experiments ->
        parse_args (name :: picked) rest
    | "all" :: rest -> parse_args picked rest
    | arg :: rest ->
        if arg <> Sys.argv.(0) then
          Printf.eprintf "ignoring unknown argument %S\n" arg;
        parse_args picked rest
  in
  let picked = List.rev (parse_args [] (List.tl args)) in
  let to_run =
    if picked = [] then List.map fst experiments else picked
  in
  Printf.printf
    "Incremental Analysis of Real Programming Languages — evaluation \
     (scale %.3f)\n"
    !scale;
  List.iter (fun name -> (List.assoc name experiments) ()) to_run;
  write_json ()
