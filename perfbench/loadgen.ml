(* The keystroke benchmark's load generator.

     loadgen --iglrd EXE --workload W --seed N --seconds S --trace 0|1

   [--trace 0] drives the real daemon and prints the end-to-end
   metrics; [--trace 1] replays the same request lines in-process and
   prints the per-layer metrics.  The last line of standard output is
   the result object.  Any disagreement between the daemon and the
   library computing from scratch exits 1. *)

let now = Unix.gettimeofday

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median = percentile 0.5
let take n l = List.filteri (fun i _ -> i < n) l
let ratio a b = if b = 0. then 0. else a /. b
let pct a b = 100. *. ratio a b

(* ------------------------------------------------------------------ *)
(* Driving the daemon.                                                 *)

let set_up ?part exe workload seed =
  let g = Gen.make ?part workload seed in
  let tally = Daemon.tally () in
  let t0 = now () in
  let d = Daemon.spawn exe in
  let ops = ref g.Gen.setup and warm = ref g.Gen.warmup in
  (try
     Daemon.pump d ~window:g.Gen.window
       (fun () ->
         match !ops with
         | op :: rest ->
             ops := rest;
             Some op
         | [] when !warm > 0 ->
             decr warm;
             Some (g.Gen.next ())
         | [] -> None)
       tally
   with e ->
     Daemon.kill d;
     raise e);
  (g, d, tally, now () -. t0)

(* One daemon's life: set-up, the measured phase, checks. *)
type segment = {
  setup_s : float;
  latencies : (Gen.kind * float) list;  (** one per op of the measured phase *)
  wall : float;  (** the measured phase, less the time spent sampling *)
  cpu : float;
  speed : float;  (** [Calib.factor] over the measured phase *)
  wall_speed : float;  (** [Calib.wall_factor] likewise *)
  rss_mb : float;
  sent : int;
  errors : int;
}

(* Spawn and set up a daemon, run the measured phase — the ops [more g]
   yields for the generator [g] — then check the daemon's answers
   against the library. *)
let segment ?part exe workload seed ~more =
  let g, d, setup_tally, setup_s = set_up ?part exe workload seed in
  Fun.protect
    ~finally:(fun () -> Daemon.kill d)
    (fun () ->
      let tally = Daemon.tally () and calib = Calib.create () in
      let cpu0 = Daemon.cpu_seconds d in
      let t0 = now () in
      Daemon.pump ~calib d ~window:g.Gen.window (more g) tally;
      Calib.stop calib;
      let wall = now () -. t0 -. calib.Calib.spent in
      let cpu = Daemon.cpu_seconds d -. cpu0 in
      (* Untimed from here on. *)
      let rest = Daemon.tally () in
      Daemon.run_ops d ~window:1 (g.Gen.settle ()) rest;
      let errors = Check.answers tally.Daemon.answers in
      if Check.answers setup_tally.Daemon.answers + Check.answers rest.Daemon.answers > 0
      then raise (Daemon.Mismatch "error answers outside the timed phase");
      Check.documents d g.Gen.fresh (g.Gen.docs ());
      let rss_mb = Daemon.peak_rss_mb d in
      Daemon.stop d;
      {
        setup_s;
        latencies = tally.Daemon.latencies;
        wall;
        cpu;
        speed = Calib.factor calib;
        wall_speed = Calib.wall_factor calib;
        rss_mb;
        sent = tally.Daemon.sent;
        errors;
      })

let for_seconds seconds (g : Gen.t) =
  let deadline = now () +. seconds in
  fun () -> if now () < deadline then Some (g.Gen.next ()) else None

let for_ops n (g : Gen.t) =
  let left = ref n in
  fun () ->
    if !left > 0 then begin
      decr left;
      Some (g.Gen.next ())
    end
    else None

(* The timed phase is split over this many daemons, one after the
   other, each measuring a different part of the stream: a process's
   speed varies by several per cent from one start to the next, and
   pooling several processes averages that out.  Each daemon's set-up
   is timed; their median is [setup_s].  The latency percentiles pool
   every op of every daemon.

   Every time is scaled by its daemon's [Calib] factors — CPU time by
   [Calib.factor], wall-clock times by [Calib.wall_factor] — so the
   figures are those of a machine running at the reference speed and
   losing no time to the host; the unscaled ones go to standard error.

   The tail is the p90, not the p99: the machine also slows down in
   bursts shorter than a calibration interval, and the further out the
   percentile, the more these move it.  Over five runs the p99 of
   [edit-large], scaled for speed, still spread by 19-27% of its
   median. *)
let daemons = 6

let end_to_end exe workload seed ~seconds =
  let segs =
    List.init daemons (fun part ->
        segment ~part exe workload seed
          ~more:(for_seconds (seconds /. float_of_int daemons)))
  in
  let figures scaled =
    let cpu_k s = if scaled then s.speed else 1.
    and wall_k s = if scaled then s.wall_speed else 1. in
    let total f = List.fold_left (fun a s -> a +. f s) 0. segs in
    let latencies =
      List.concat_map (fun s -> List.map (fun (_, l) -> l *. wall_k s) s.latencies) segs
    in
    let ops = float_of_int (List.length latencies) in
    [
      ("setup_s", median (List.map (fun s -> s.setup_s *. wall_k s) segs), "s");
      ("latency_p50_ms", 1e3 *. median latencies, "ms");
      ("latency_p90_ms", 1e3 *. percentile 0.9 latencies, "ms");
      ("ops_per_s", ops /. total (fun s -> s.wall *. wall_k s), "ops/s");
      ("cpu_ms_per_op", 1e3 *. total (fun s -> s.cpu *. cpu_k s) /. ops, "ms");
    ]
  in
  let sent = List.fold_left (fun a s -> a + s.sent) 0 segs in
  let errors = List.fold_left (fun a s -> a + s.errors) 0 segs in
  Printf.eprintf "speed factor, wall-clock factor per daemon:%s\nunscaled:%s\n%!"
    (String.concat ""
       (List.map (fun s -> Printf.sprintf " %.3f,%.3f" s.speed s.wall_speed) segs))
    (String.concat ""
       (List.map (fun (n, v, u) -> Printf.sprintf " %s=%.4g%s" n v u) (figures false)));
  ( sent,
    errors,
    figures true
    @ [
        ("peak_rss_mb", median (List.map (fun s -> s.rss_mb) segs), "MiB");
        ("ok_pct", pct (float_of_int (sent - errors)) (float_of_int sent), "%");
      ] )

(* ------------------------------------------------------------------ *)
(* The traced run.                                                     *)

(* Replayed stream ops per workload: a fixed count, so the count
   metrics repeat exactly for a seed. *)
let traced_ops = function
  | "edit-large" -> 400
  | "many-docs" -> 4000
  | _ -> 160

(* The paper's batch yardstick: IGLR [Session.create] over deterministic
   LR ([Scanner.all] + [Lr_parser.parse]) on the same texts, summed over
   the texts the LR parser accepts (it refuses conflicted entries). *)
let batch_lr_ratio opened =
  let best_of f =
    let t = ref infinity in
    for _ = 1 to 3 do
      let t0 = now () in
      f ();
      t := Float.min !t (now () -. t0)
    done;
    !t
  in
  let glr = ref 0. and lr = ref 0. in
  List.iter
    (fun ((l : Languages.Language.t), text) ->
      let table = Languages.Language.table l and lexer = Languages.Language.lexer l in
      let lr_parse () =
        let tokens, trailing = Lexgen.Scanner.all lexer text in
        ignore (Iglr.Lr_parser.parse table tokens ~trailing)
      in
      match lr_parse () with
      | () ->
          lr := !lr +. best_of lr_parse;
          glr := !glr +. best_of (fun () -> ignore (Replay.open_session l text))
      | exception Iglr.Lr_parser.Error _ -> ())
    opened;
  ratio !glr !lr

let per_layer exe workload seed =
  let n_ops = traced_ops workload in
  let g = Gen.make workload seed in
  let setup = g.Gen.setup @ List.init g.Gen.warmup (fun _ -> g.Gen.next ()) in
  let ops = List.init n_ops (fun _ -> g.Gen.next ()) in
  (* 1. The counting pass: a library replay whose metric delta over the
     stream ops gives the library's work counts.  Set-up here also pays
     the first [Registry.force] of each language. *)
  let lib, setup_samples = Replay.start ~spans:true setup in
  let (counted, major), counts =
    Iglr.Session.measure (fun () ->
        let gc0 = (Gc.quick_stat ()).Gc.major_collections in
        let r = List.map (Replay.replay_op ~spans:true lib) ops in
        (r, (Gc.quick_stat ()).Gc.major_collections - gc0))
  in
  (* 2. The timing pass: the library with spans, the library without,
     and the inline engine, stepped op by op in rotating order so that
     machine noise falls on all three alike. *)
  let traced, _ = Replay.start ~spans:true setup in
  let plain, _ = Replay.start ~spans:false setup in
  let eng = Replay.engine_start setup in
  Gc.compact ();
  let steps =
    List.mapi
      (fun i op ->
        let on = ref None and off = ref None and e = ref 0. in
        let run = function
          | 0 -> on := Some (Replay.replay_op ~spans:true traced op)
          | 1 -> off := Some (Replay.replay_op ~spans:false plain op)
          | _ -> e := Replay.engine_op eng op
        in
        for k = 0 to 2 do run ((i + k) mod 3) done;
        (Option.get !on, Option.get !off, !e))
      ops
  in
  Replay.engine_stop eng;
  let traced = List.map (fun (s, _, _) -> s) steps in
  let plain = List.map (fun (_, s, _) -> s) steps in
  let requests = List.concat_map (fun (op : Gen.op) -> op.Gen.reqs) ops in
  let answers = List.rev !(eng.Replay.lines) in
  if List.compare_lengths answers requests <> 0 then
    raise
      (Daemon.Mismatch
         (Printf.sprintf "engine replay: %d answers to %d requests" (List.length answers)
            (List.length requests)));
  let engine_errors = Check.answers (List.combine requests answers) in
  let response_bytes =
    List.fold_left (fun n line -> n + String.length line + 1) 0 answers
  in
  (* 3. The daemon, on the same ops. *)
  let d = segment exe workload seed ~more:(for_ops n_ops) in
  let opened =
    take 16
      (List.concat_map
         (fun (s : Replay.sample) -> List.rev s.Replay.info.Replay.opened)
         (if workload = "open-project" then counted else setup_samples))
  in
  let batch = batch_lr_ratio opened in
  (* Aggregation, per stream op: counts and words from the counting
     pass, times from the timing pass. *)
  let n = float_of_int n_ops in
  let count name = float_of_int (Metrics.count counts name) in
  let per_op name = count name /. n in
  let idx = Replay.index in
  let sum from f = List.fold_left (fun acc (s : Replay.sample) -> acc +. f s) 0. from in
  let infos f = sum counted (fun s -> float_of_int (f s.Replay.info)) in
  let words layers =
    sum counted (fun s ->
        List.fold_left (fun a l -> a +. s.Replay.layer_words.(idx l)) 0. layers)
    /. n
  in
  let layer_us ?(from = traced) l =
    List.filter_map
      (fun (s : Replay.sample) ->
        if s.Replay.layer_entries.(idx l) > 0 then Some (s.Replay.layer_s.(idx l) *. 1e6)
        else None)
      from
  in
  let reparse_us = layer_us Replay.Reparse in
  let recovered =
    List.filter (fun (s : Replay.sample) -> s.Replay.info.Replay.recovered > 0) traced
  in
  let eng_us = List.map (fun (_, _, e) -> e *. 1e6) steps in
  (* Scaled to the reference speed, like [latency_p50_ms]. *)
  let daemon_ms kind =
    List.filter_map
      (fun (k, s) -> if k = kind then Some (s *. d.wall_speed *. 1e3) else None)
      d.latencies
  in
  let keystrokes = List.filter (fun (op : Gen.op) -> op.Gen.kind <> Gen.Open) ops in
  let engine_extra_us =
    List.map (fun (_, (p : Replay.sample), e) -> (e -. p.Replay.op_s) *. 1e6) steps
  in
  let op_total from = sum from (fun s -> s.Replay.op_s) in
  let attributed = sum traced (fun s -> Array.fold_left ( +. ) 0. s.Replay.layer_s) in
  let reused = count "vdoc.tokens_reused" and relexed = count "vdoc.tokens_relexed" in
  let sub = count "glr.shifted_subtrees" and term = count "glr.shifted_terminals" in
  let cells = infos (fun i -> i.Replay.cells) in
  let metrics =
    [
      ( "lrtab.build_ms",
        1e3 *. sum setup_samples (fun s -> s.Replay.layer_s.(idx Replay.Lrtab)),
        "ms" );
      ("vdoc.edit_us_p50", median (layer_us Replay.Vdoc), "us");
      ("vdoc.tokens_relexed_per_op", relexed /. n, "count");
      ("vdoc.token_reuse_pct", pct reused (reused +. relexed), "%");
      ("iglr.reparse_us_p50", median reparse_us, "us");
      ("iglr.reparse_us_p99", percentile 0.99 reparse_us, "us");
      ("iglr.recover_us_p50", median (layer_us ~from:recovered Replay.Reparse), "us");
      ( "iglr.open_us_p50",
        median (layer_us ~from:(setup_samples @ traced) Replay.Open),
        "us" );
      ( "iglr.recovered_pct",
        pct (infos (fun i -> i.Replay.recovered)) (infos (fun i -> i.Replay.reparses)),
        "%" );
      ("iglr.isolation_attempts_per_op", per_op "session.isolation_attempts", "count");
      ("iglr.shifted_terminals_per_op", term /. n, "count");
      ("iglr.shifted_subtrees_per_op", sub /. n, "count");
      ("iglr.reductions_per_op", per_op "glr.reductions", "count");
      ("iglr.breakdowns_per_op", per_op "glr.breakdowns", "count");
      ("iglr.subtree_shift_pct", pct sub (sub +. term), "%");
      ("iglr.gss_peak_parsers", count "glr.gss_peak_parsers", "count");
      ("iglr.alloc_words_per_op", words [ Replay.Open; Replay.Reparse ], "words");
      ("iglr.batch_lr_ratio", batch, "ratio");
      ("dag.nodes_allocated_per_op", per_op "dag.nodes_allocated", "count");
      ("dag.commit_nodes_walked_per_op", per_op "dag.commit_nodes_walked", "count");
      ("dag.unshare_copies_per_op", per_op "dag.unshare_copies", "count");
      ("query.commit_us_p50", median (layer_us Replay.Commit), "us");
      ("query.typedefs_us_p50", median (layer_us Replay.Typedefs), "us");
      ("query.run_us_p50", median (layer_us Replay.Run), "us");
      ("query.run_us_p99", percentile 0.99 (layer_us Replay.Run), "us");
      ("query.recomputed_per_op", per_op "query.recomputed", "count");
      ("query.hits_per_op", per_op "query.hits", "count");
      ( "query.cell_reuse_pct",
        (if cells = 0. then 0.
         else 100. *. (1. -. (infos (fun i -> i.Replay.recomputed) /. cells))),
        "%" );
      ("query.cells_live", count "query.cells_live", "count");
      ( "query.alloc_words_per_op",
        words [ Replay.Commit; Replay.Typedefs; Replay.Run ],
        "words" );
      ("server.decode_us_p50", median (layer_us Replay.Decode), "us");
      ("server.engine_us_p50", median engine_extra_us, "us");
      ( "server.transport_us_p50",
        (1e6 *. median (List.map snd d.latencies)) -. median eng_us,
        "us" );
      ("server.response_bytes_per_op", float_of_int response_bytes /. n, "bytes");
      ("machine.kernel_ms", Calib.reference_ms /. d.speed, "ms");
      ("machine.stolen_pct", 100. *. (1. -. (d.wall_speed /. d.speed)), "%");
      ("gc.minor_words_per_op", sum counted (fun s -> s.Replay.words) /. n, "words");
      ("gc.major_collections_per_kop", 1e3 *. float_of_int major /. n, "count");
      ("trace.unattributed_pct", pct (op_total traced -. attributed) (op_total traced), "%");
      ( "trace.overhead_pct",
        pct (op_total traced -. op_total plain) (op_total plain),
        "%" );
      ( "keystroke.type_pct",
        pct
          (float_of_int
             (List.length (List.filter (fun (op : Gen.op) -> op.Gen.kind = Gen.Type) ops)))
          (float_of_int (List.length keystrokes)),
        "%" );
      ("keystroke.type_p50_ms", median (daemon_ms Gen.Type), "ms");
      ("keystroke.tweak_p50_ms", median (daemon_ms Gen.Tweak), "ms");
      ("keystroke.paste_p50_ms", median (daemon_ms Gen.Paste), "ms");
    ]
  in
  (d.sent + List.length requests, d.errors + engine_errors, metrics)

(* ------------------------------------------------------------------ *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed m

let () =
  let exe = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and dump = ref 0 in
  Arg.parse
    [
      ("--iglrd", Arg.Set_string exe, "EXE the daemon binary");
      ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " Gen.workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase (--trace 0)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--dump", Arg.Set_int dump, "N print the set-up and first N stream request lines and exit");
    ]
    (fun a -> raise (Arg.Bad a))
    "loadgen --iglrd EXE --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Gen.workloads) then begin
    prerr_endline ("loadgen: unknown workload " ^ !workload);
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Interrupted: unwind, so every daemon is killed and reaped on the way
     out. *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> failwith "interrupted"));
  if !dump > 0 then begin
    let g = Gen.make !workload !seed in
    let print (op : Gen.op) =
      List.iter (fun (r : Gen.req) -> print_endline r.Gen.line) op.Gen.reqs
    in
    List.iter print g.Gen.setup;
    for _ = 1 to g.Gen.warmup + !dump do print (g.Gen.next ()) done;
    exit 0
  end;
  match
    if !trace = 0 then end_to_end !exe !workload !seed ~seconds:!seconds
    else per_layer !exe !workload !seed
  with
  | attempted, failed, metrics ->
      print_result ~attempted ~failed metrics
  | exception Daemon.Mismatch msg ->
      prerr_endline ("loadgen: check failed: " ^ msg);
      exit 1
