(* Regression gate over the bench harness's machine-readable output.

   Usage:
     check_regress.exe --baseline DIR --fresh DIR

   The gated set is every BENCH_*.json document in the baseline
   directory (iglr-bench/1 schema), checked in sorted order against the
   document of the same name in the fresh directory.  Entries are keyed
   by (experiment, language, case); only entries with "gate": true are
   compared.  The rule follows from the baseline entry's fields:

   - "ratio" (lower is better): fail when fresh ratio > baseline *
     (1 + tolerance).  Most ratios are work counts per token, per edit
     or per item (words, nodes, shifts), which repeat exactly; the rest
     are paired-minimum wall-clock ratios.
   - otherwise every *_pct field (higher is better): fail when the
     fresh percentage drops below baseline * (1 - tolerance).  These are
     deterministic too (seeded edit streams, fixed fault sites, exact
     coverage counts).

   The tolerance is 20% for both rules.  When the two runs were made at
   different --scale factors, ratios compare different workloads and
   always pass; the percentages still gate.

   Every regression is reported as one machine-parseable line naming the
   offending metric with its baseline/current values, so CI logs localize
   the failure without re-running the bench:

     FAIL experiment=E language=L case=C metric=M baseline=B current=V limit=T

   A gated entry missing from the fresh output reports metric=KIND
   error=missing (KIND from the document's file name), a missing *_pct
   field metric=NAME error=missing, a gated baseline entry with none of
   the fields above metric=gate error=no-gated-field, a gated fresh
   entry with no baseline entry metric=KIND error=no-baseline, and a
   fresh document with no baseline document=FILE metric=KIND
   error=no-baseline.

   Exit status: 0 clean, 1 on any regression, 2 on usage/IO errors. *)

module Json = Metrics.Json

let tolerance = 0.2
let failures = ref 0
let compared = ref 0

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("check_regress: " ^ msg);
      exit 2)
    fmt

let get_str name entry =
  match Option.bind (Json.member name entry) Json.to_str with
  | Some s -> s
  | None -> die "entry missing string field %S" name

let get_float name entry =
  Option.bind (Json.member name entry) Json.to_float

let gated e = Option.bind (Json.member "gate" e) Json.to_bool = Some true

let key entry =
  (get_str "experiment" entry, get_str "language" entry, get_str "case" entry)

let pp_key (e, l, c) = Printf.sprintf "%s/%s/%s" e l c

let read file =
  try Json.of_file file with
  | Sys_error msg -> die "%s" msg
  | Json.Parse msg -> die "%s: %s" file msg

let entries file doc =
  (match Option.bind (Json.member "schema" doc) Json.to_str with
  | Some "iglr-bench/1" -> ()
  | Some other -> die "%s: unknown schema %S" file other
  | None -> die "%s: missing schema field" file);
  match Option.bind (Json.member "entries" doc) Json.to_list with
  | Some es -> List.map (fun e -> (key e, e)) es
  | None -> die "%s: missing entries array" file

(* One offending metric per line, strictly key=value so CI log scrapers
   can localize a regression without re-running the bench. *)
let kv_key (e, l, c) =
  Printf.sprintf "experiment=%s language=%s case=%s" e l c

let fail key ~metric ~baseline ~current ~limit =
  incr failures;
  Printf.printf "FAIL %s metric=%s baseline=%g current=%g limit=%g\n"
    (kv_key key) metric baseline current limit

let fail_error key ~metric error =
  incr failures;
  Printf.printf "FAIL %s metric=%s error=%s\n" (kv_key key) metric error

let ok key fmt =
  Printf.ksprintf
    (fun msg ->
      incr compared;
      Printf.printf "ok   %-40s %s\n" (pp_key key) msg)
    fmt

let pct_fields entry =
  match entry with
  | Json.Obj kvs ->
      List.filter_map
        (fun (k, v) ->
          if String.length k > 4 && Filename.check_suffix k "_pct" then
            Option.map (fun f -> (k, f)) (Json.to_float v)
          else None)
        kvs
  | _ -> []

(* [ratio_tolerance] is infinite when the runs' scales differ. *)
let check_entry ~ratio_tolerance key base fresh =
  let upper = 1. +. ratio_tolerance in
  match (get_float "ratio" base, pct_fields base) with
  | Some br, _ -> (
      match get_float "ratio" fresh with
      | None -> fail_error key ~metric:"ratio" "missing"
      | Some fr when fr > br *. upper ->
          fail key ~metric:"ratio" ~baseline:br ~current:fr
            ~limit:(br *. upper)
      | Some fr -> ok key "ratio %.3f vs baseline %.3f" fr br)
  | None, [] -> fail_error key ~metric:"gate" "no-gated-field"
  | None, pcts ->
      let fresh_pcts = pct_fields fresh in
      List.iter
        (fun (name, bv) ->
          match List.assoc_opt name fresh_pcts with
          | None -> fail_error key ~metric:name "missing"
          | Some fv when fv < bv *. (1. -. tolerance) ->
              fail key ~metric:name ~baseline:bv ~current:fv
                ~limit:(bv *. (1. -. tolerance))
          | Some fv -> ok key "%s %.2f%% vs baseline %.2f%%" name fv bv)
        pcts

let documents dir =
  match Sys.readdir dir with
  | names ->
      List.sort compare
        (List.filter
           (fun f ->
             String.starts_with ~prefix:"BENCH_" f
             && Filename.check_suffix f ".json")
           (Array.to_list names))
  | exception Sys_error msg -> die "%s" msg

(* BENCH_<kind>.json -> kind *)
let kind_of file =
  Filename.chop_suffix
    (String.sub file 6 (String.length file - 6))
    ".json"

let () =
  let rec parse (baseline, fresh) = function
    | [] -> (baseline, fresh)
    | "--baseline" :: d :: rest -> parse (d, fresh) rest
    | "--fresh" :: d :: rest -> parse (baseline, d) rest
    | arg :: _ -> die "unknown argument %S" arg
  in
  let baseline_dir, fresh_dir =
    parse ("", "") (List.tl (Array.to_list Sys.argv))
  in
  if baseline_dir = "" || fresh_dir = "" then
    die "both --baseline and --fresh are required";
  let docs = documents baseline_dir in
  List.iter
    (fun file ->
      if not (List.mem file docs) then begin
        incr failures;
        Printf.printf "FAIL document=%s metric=%s error=no-baseline\n" file
          (kind_of file)
      end)
    (documents fresh_dir);
  let pairs =
    List.map
      (fun file ->
        ( file,
          read (Filename.concat baseline_dir file),
          read (Filename.concat fresh_dir file) ))
      docs
  in
  (* Comparing runs at different scales compares different workloads.
     One harness run writes every document at one scale, so the first
     pair decides. *)
  let scale doc = Option.bind (Json.member "scale" doc) Json.to_float in
  let ratio_tolerance =
    match pairs with
    | (_, base, fresh) :: _ -> (
        match (scale base, scale fresh) with
        | Some a, Some b when a <> b ->
            Printf.printf
              "note: baseline scale %.3f != fresh scale %.3f; ratio \
               entries are not comparable, gating on percentages only\n"
              a b;
            infinity
        | _ -> tolerance)
    | [] -> tolerance
  in
  List.iter
    (fun (file, b, f) ->
      let base = entries file b and fresh = entries file f in
      List.iter
        (fun (k, be) ->
          if gated be then
            match List.assoc_opt k fresh with
            | None -> fail_error k ~metric:(kind_of file) "missing"
            | Some fe -> check_entry ~ratio_tolerance k be fe)
        base;
      List.iter
        (fun (k, fe) ->
          if gated fe && not (List.mem_assoc k base) then
            fail_error k ~metric:(kind_of file) "no-baseline")
        fresh)
    pairs;
  Printf.printf "%d compared, %d regression%s\n" !compared !failures
    (if !failures = 1 then "" else "s");
  exit (if !failures > 0 then 1 else 0)
