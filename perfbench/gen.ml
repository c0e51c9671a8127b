(* Seeded request streams for the three workloads.

   Everything the daemon receives is produced here, as complete JSON-RPC
   request lines with sequential ids: the same seed gives byte-identical
   lines.  The generator also tracks the text every open document must
   have once the requests sent so far have been applied, which is what
   the correctness checks compare against. *)

module Json = Metrics.Json
module Spec_gen = Workload.Spec_gen
module Edit_gen = Workload.Edit_gen
module Textutil = Workload.Textutil

type req = {
  id : int;
  line : string;
  expect : (string * string) option;
      (** a [diag] request whose answer must equal the from-scratch
          analysis of this (language, text) *)
}

(* What a stream op is, for per-kind latencies: on [edit-large] the
   kind of burst a keystroke belongs to. *)
type kind = Type | Tweak | Paste | Open

let kind_name = function
  | Type -> "type"
  | Tweak -> "tweak"
  | Paste -> "paste"
  | Open -> "open"

type op = { kind : kind; reqs : req list }

let op kind reqs = { kind; reqs }

type doc = { name : string; lang : string; mutable text : string }

type t = {
  window : int;  (** closed-loop clients: ops in flight at once *)
  setup : op list;  (** document opens, sent before the warm-up *)
  warmup : int;  (** stream ops run as part of set-up *)
  next : unit -> op;  (** the infinite keystroke / file stream *)
  settle : unit -> op list;
      (** untimed ops that finish the current burst, so the stream stops
          at a checkable point *)
  docs : unit -> doc list;  (** open documents, in opening order *)
  fresh : unit -> int;  (** the next request id *)
}

let workloads = [ "edit-large"; "many-docs"; "open-project" ]

(* ------------------------------------------------------------------ *)
(* Request encoding.                                                   *)

let ids () =
  let n = ref 0 in
  fun () ->
    incr n;
    !n

let request fresh ?expect meth params =
  let id = fresh () in
  let line =
    Json.to_line
      (Json.Obj
         [
           ("id", Json.Int id);
           ("method", Json.String meth);
           ("params", Json.Obj params);
         ])
  in
  { id; line; expect }

let open_req fresh (d : doc) =
  request fresh "open"
    [
      ("doc", Json.String d.name);
      ("lang", Json.String d.lang);
      ("text", Json.String d.text);
    ]

let edit_req fresh (d : doc) (e : Edit_gen.edit) =
  d.text <- Edit_gen.apply e d.text;
  request fresh "edit"
    [
      ("doc", Json.String d.name);
      ( "edits",
        Json.List
          [
            Json.Obj
              [
                ("pos", Json.Int e.Edit_gen.e_pos);
                ("del", Json.Int e.Edit_gen.e_del);
                ("insert", Json.String e.Edit_gen.e_insert);
              ];
          ] );
    ]

let doc_req fresh ?expect meth (d : doc) =
  request fresh ?expect meth [ ("doc", Json.String d.name) ]

(* ------------------------------------------------------------------ *)
(* edit-large: one ~2 kloc C program with the typedef-ambiguity
   density of a Table 1 profile, edited in bursts that each return the
   text to the original: typing a statement one character at a time and
   backspacing it out (every prefix is a syntax error, so these go
   through the recovery ladder), single-token tweaks with their
   inverses, and cutting a whole function, pasting it at another
   function boundary, then undoing both.                               *)

let edit_large_profile = "ghostscript"
let edit_large_lines = 2000

let edit_large seed part =
  let fresh = ids () in
  let p = Spec_gen.find edit_large_profile in
  let original =
    Spec_gen.generate ~seed
      ~scale:(float_of_int edit_large_lines /. float_of_int p.Spec_gen.p_lines)
      p
  in
  let d = { name = "main.c"; lang = "c"; text = original } in
  let st = Random.State.make [| seed; part; 0xed17 |] in
  (* Function extents [start, stop), and typing points: just past the
     last statement of a function body.  There, every proper prefix of a
     typed statement is a syntax error (elsewhere a prefix can fuse with
     the identifier that follows into a valid declaration), so each
     typing burst recovers equally often whatever the seed. *)
  let fn_starts =
    Array.of_list
      (List.map (fun p -> p + 1) (Textutil.occurrences original ~pat:"\nint fn"))
  in
  let nfn = Array.length fn_starts in
  let fn_stop i =
    if i + 1 < nfn then fn_starts.(i + 1) else String.length original
  in
  let stmt_points =
    Array.of_list
      (List.map (fun p -> p + 1) (Textutil.occurrences original ~pat:";\n}"))
  in
  (* Recovery cost depends on where in the file the error sits, so
     typing points and cut functions are visited in a low-discrepancy
     order (golden-ratio steps from a seeded start): every run covers the
     file evenly. *)
  let sweep a =
    let u = ref (Random.State.float st 1.0) in
    fun () ->
      u := Float.rem (!u +. 0.6180339887498949) 1.0;
      a.(int_of_float (!u *. float_of_int (Array.length a)))
  in
  let next_point = sweep stmt_points in
  let next_cut = sweep (Array.init nfn Fun.id) in
  (* The statement typed by the [k]th typing burst: the three shapes
     take turns and numbers have two digits, so the keystroke count per
     cycle does not depend on the seed. *)
  let typed_statement k =
    let v () = Random.State.int st 3 in
    let n = 10 + Random.State.int st 90 in
    match k mod 3 with
    | 0 -> Printf.sprintf " v%d = v%d + %d;" (v ()) (v ()) n
    | 1 -> Printf.sprintf " v%d = v%d * (v%d - %d);" (v ()) (v ()) (v ()) n
    | _ -> Printf.sprintf " while (v%d < %d) v%d = v%d + 1;" (v ()) n (v ()) (v ())
  in
  let e pos del insert = { Edit_gen.e_pos = pos; e_del = del; e_insert = insert } in
  let typing k =
    let at = next_point () in
    let s = typed_statement k in
    let n = String.length s in
    List.init n (fun i -> e (at + i) 0 (String.make 1 s.[i]))
    @ List.init n (fun i -> e (at + n - 1 - i) 1 "")
  in
  let tweak () =
    let t =
      List.hd (Edit_gen.token_edits ~seed:(Random.State.bits st) ~count:1 original)
    in
    [ t; Edit_gen.inverse t original ]
  in
  let cut_paste () =
    let i = next_cut () in
    let j =
      let j = Random.State.int st (nfn - 1) in
      if j >= i then j + 1 else j
    in
    let start = fn_starts.(i) and stop = fn_stop i in
    let body = String.sub original start (stop - start) in
    let len = stop - start in
    (* Boundary [j] of the text with function [i] cut out. *)
    let dest = if j < i then fn_starts.(j) else fn_starts.(j) - len in
    [ e start len ""; e dest 0 body; e dest len ""; e start 0 body ]
  in
  (* A fixed cycle of burst kinds, so every seed has the same mix:
     about 70% of keystrokes are typing.  The mix is an assumption, not
     taken from a study of real editing; the traced run reports latency
     by burst kind so that figures can be reweighted. *)
  let cycle = [| Type; Tweak; Paste; Tweak; Tweak; Paste; Tweak |] in
  let bursts = ref 0 in
  let burst () =
    let k = !bursts in
    incr bursts;
    let kind = cycle.(k mod Array.length cycle) in
    let edits =
      match kind with
      | Type -> typing (k / Array.length cycle)
      | Tweak -> tweak ()
      | Paste -> cut_paste ()
      | Open -> assert false
    in
    List.map (fun e -> (kind, e)) edits
  in
  let pending = Queue.create () in
  let keystroke () =
    if Queue.is_empty pending then List.iter (fun x -> Queue.push x pending) (burst ());
    let kind, ed = Queue.pop pending in
    let edit = edit_req fresh d ed in
    let parse = doc_req fresh "parse" d in
    let expect =
      if Queue.is_empty pending then begin
        assert (d.text == original || String.equal d.text original);
        Some (d.lang, original)
      end
      else None
    in
    op kind [ edit; parse; doc_req fresh ?expect "diag" d ]
  in
  let settle () =
    let rec go acc = if Queue.is_empty pending then List.rev acc else go (keystroke () :: acc) in
    go []
  in
  {
    window = 1;
    setup = [ op Open [ open_req fresh d ] ];
    warmup = 10;
    next = keystroke;
    settle;
    docs = (fun () -> [ d ]);
    fresh;
  }

(* ------------------------------------------------------------------ *)
(* many-docs: 64 small documents in four deterministic languages; each
   keystroke is one digit tweak (or its inverse) + parse on the next
   document in round-robin order, four keystrokes in flight.           *)

let small_doc st lang =
  let b = Buffer.create 1024 in
  let lines = ref 0 in
  let target = 20 + Random.State.int st 21 in
  let n () = Random.State.int st 100 in
  let v c = Printf.sprintf "%c%d" c (Random.State.int st 10) in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        incr lines;
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  (match lang with
  | "calc" ->
      while !lines < target do
        match Random.State.int st 3 with
        | 0 -> line "%s = (%s + %d) * %s / %d;" (v 'v') (v 'a') (n ()) (v 'b') (1 + n ())
        | 1 -> line "%s = %s - %d * (%s + %d);" (v 'w') (v 'v') (n ()) (v 'c') (n ())
        | _ -> line "%s + %d;" (v 'v') (n ())
      done
  | "tiny" ->
      let k = ref 0 in
      while !lines < target do
        line "proc p%d%d ( ) {" !k (n ());
        incr k;
        for _ = 1 to 3 + Random.State.int st 5 do
          match Random.State.int st 4 with
          | 0 -> line "  %s = %s + %d * %s;" (v 'a') (v 'b') (n ()) (v 'c')
          | 1 -> line "  while (%s) { %s = %s * %d; }" (v 'a') (v 'a') (v 'b') (n ())
          | 2 -> line "  if (%s) { %s = %d; } else { %s = %s + %d; }" (v 'b') (v 'c') (n ()) (v 'c') (v 'b') (n ())
          | _ -> line "  print %s + %d;" (v 'a') (n ())
        done;
        line "}"
      done
  | "lisp" ->
      while !lines < target do
        match Random.State.int st 3 with
        | 0 -> line "(define (%s %s %s) (+ %s (* %s %d)))" (v 'f') (v 'a') (v 'b') (v 'a') (v 'b') (n ())
        | 1 -> line "(let ((%s %d) (%s %d)) (print (list %s %s)))" (v 'a') (n ()) (v 'b') (n ()) (v 'a') (v 'b')
        | _ -> line "(setq %s '(%d %d %s))" (v 'x') (n ()) (n ()) (v 'y')
      done
  | "java" ->
      let k = ref 0 in
      while !lines < target do
        line "class C%d%d {" !k (n ());
        incr k;
        for _ = 1 to 2 + Random.State.int st 4 do
          match Random.State.int st 3 with
          | 0 -> line "  int %s;" (v 'f')
          | 1 ->
              line
                "  int %s(int %s, int %s) { int %s = %s + %d; while (%s < %d) %s = %s + 1; return %s * %s; }"
                (v 'm') (v 'a') (v 'b') (v 'c') (v 'a') (n ()) (v 'c') (n ()) (v 'c') (v 'c') (v 'c') (v 'b')
          | _ -> line "  void %s() { if (%s == %d) %s = %d; else %s = %s - 1; }" (v 'g') (v 'f') (n ()) (v 'f') (n ()) (v 'f') (v 'f')
        done;
        line "}"
      done
  | _ -> invalid_arg lang);
  Buffer.contents b

let many_docs_langs = [| "calc"; "tiny"; "lisp"; "java" |]
let many_docs_count = 64

let many_docs seed part =
  let fresh = ids () in
  let st = Random.State.make [| seed; 0x3d0c |] in
  let edits = Random.State.make [| seed; part; 0x3d0c |] in
  let docs =
    Array.init many_docs_count (fun i ->
        let lang = many_docs_langs.(i mod Array.length many_docs_langs) in
        { name = Printf.sprintf "d%02d.%s" i lang; lang; text = small_doc st lang })
  in
  (* Per document: the inverse still to type, if the last keystroke on it
     was a tweak. *)
  let undo = Array.make many_docs_count None in
  let k = ref 0 in
  let keystroke () =
    let i = !k mod many_docs_count in
    incr k;
    let d = docs.(i) in
    let e =
      match undo.(i) with
      | Some inv ->
          undo.(i) <- None;
          inv
      | None ->
          let e =
            List.hd
              (Edit_gen.token_edits ~seed:(Random.State.bits edits) ~count:1 d.text)
          in
          undo.(i) <- Some (Edit_gen.inverse e d.text);
          e
    in
    let edit = edit_req fresh d e in
    op Tweak [ edit; doc_req fresh "parse" d ]
  in
  {
    window = 4;
    setup = Array.to_list (Array.map (fun d -> op Open [ open_req fresh d ]) docs);
    warmup = 2 * many_docs_count;
    next = keystroke;
    settle = (fun () -> []);
    docs = (fun () -> Array.to_list docs);
    fresh;
  }

(* ------------------------------------------------------------------ *)
(* open-project: a corpus of a few-hundred-line files from all 13
   Table 1 profiles under several seeds; a rolling window of 16 files
   stays open.  Each op opens the next file, runs [diag] on it when its
   language has semantic analysis, and closes the oldest file.          *)

let corpus_seeds = 4
let open_window = 16

let supports_diag lang =
  match Languages.Registry.find lang with
  | Some l -> Semantics.Diag.supported l.Languages.Language.grammar
  | None -> false

let open_project seed part =
  let fresh = ids () in
  (* File sizes are the same for every seed — an even grid over 200-500
     lines, dealt out over the slots in a fixed order — and the seed
     sets their text: a run's latencies then follow the mix of sizes
     less by chance. *)
  let nfiles = corpus_seeds * List.length Spec_gen.table1 in
  let corpus =
    Array.of_list
      (List.concat_map
         (fun s ->
           List.mapi
             (fun j (p : Spec_gen.profile) ->
               let slot = (s * List.length Spec_gen.table1) + j in
               let lines = 200 + (300 * (slot * 23 mod nfiles) / nfiles) in
               let text =
                 Spec_gen.generate ~seed:((seed * 31) + s)
                   ~scale:(float_of_int lines /. float_of_int p.Spec_gen.p_lines)
                   p
               in
               let lang = match p.Spec_gen.p_dialect with Spec_gen.C -> "c" | Spec_gen.Cpp -> "cpp" in
               (lang, text))
             Spec_gen.table1)
         (List.init corpus_seeds Fun.id))
  in
  let diag_ok = Hashtbl.create 4 in
  let supported lang =
    match Hashtbl.find_opt diag_ok lang with
    | Some b -> b
    | None ->
        let b = supports_diag lang in
        Hashtbl.replace diag_ok lang b;
        b
  in
  let opened = Queue.create () in
  let k = ref 0 in
  let open_next () =
    let lang, text = corpus.((!k + (part * 13)) mod Array.length corpus) in
    let d = { name = Printf.sprintf "f%d" !k; lang; text } in
    incr k;
    Queue.push d opened;
    d
  in
  let setup = List.init open_window (fun _ -> op Open [ open_req fresh (open_next ()) ]) in
  let next () =
    let d = open_next () in
    let o = open_req fresh d in
    let diag =
      if supported d.lang then [ doc_req fresh ~expect:(d.lang, d.text) "diag" d ]
      else []
    in
    let oldest = Queue.pop opened in
    op Open ((o :: diag) @ [ doc_req fresh "close" oldest ])
  in
  {
    window = 1;
    setup;
    warmup = open_window;
    next;
    settle = (fun () -> []);
    docs = (fun () -> List.of_seq (Queue.to_seq opened));
    fresh;
  }

(* [part] varies the edit stream (or, for [open-project], where in the
   corpus the rolling window starts) while the documents stay those of
   [seed]: the daemons of one run each measure different ops. *)
let make ?(part = 0) name seed =
  match name with
  | "edit-large" -> edit_large seed part
  | "many-docs" -> many_docs seed part
  | "open-project" -> open_project seed part
  | _ -> invalid_arg ("unknown workload " ^ name)
