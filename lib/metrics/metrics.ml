(* Lightweight registry of counts for the hot paths.  Time belongs to
   [lib/trace]; the one timing kept here is the reparse-latency
   histogram.

   Metric handles are created once, at module initialisation time, and
   updated with a single flag test plus a store — no allocation, no
   hashing on the hot path.  When the registry is disabled the update is
   one branch.  Snapshots copy the registry into an immutable association
   list; deltas between snapshots give per-session or per-experiment
   views over the same global counters.

   Domain safety: every handle is sharded per domain.  A handle owns a
   cache-line-strided cell array indexed by a small per-domain slot
   (assigned once per domain via domain-local storage, recycled on
   domain exit), so concurrent updates from worker domains touch
   disjoint memory — no locks, no atomics, no lost increments.
   [snapshot] merges the shards (sum for counters/histograms, max for
   peaks); [local_snapshot] and [local_count] read only the calling
   domain's shard, which is what makes exact per-request deltas possible
   on a busy multi-domain server. *)

module Json = Json

(* ------------------------------------------------------------------ *)
(* Domain shards.

   A slot is a small dense index into every handle's cell array.  Slots
   are handed out under a mutex the first time a domain touches any
   metric and returned when the domain exits, so the live-slot count
   tracks the number of *concurrent* domains, not the number ever
   spawned.  More than [domain_slots] concurrent domains would alias
   slots (counts stay correct in aggregate but per-slot attribution
   blurs); the scheduler tops out near the core count, far below it. *)

let domain_slots = 64
let slot_mask = domain_slots - 1

(* 8 words = 64 bytes: one cell per cache line, so two domains
   hammering the same counter never ping-pong a line. *)
let stride = 8

let slot_mutex = Mutex.create ()
let free_slots : int list ref = ref []
let slots_assigned = ref 0

let assign_slot () =
  Mutex.lock slot_mutex;
  let s =
    match !free_slots with
    | s :: rest ->
        free_slots := rest;
        s
    | [] ->
        let s = !slots_assigned land slot_mask in
        incr slots_assigned;
        s
  in
  Mutex.unlock slot_mutex;
  Domain.at_exit (fun () ->
      Mutex.lock slot_mutex;
      free_slots := s :: !free_slots;
      Mutex.unlock slot_mutex);
  s

let slot_key = Domain.DLS.new_key assign_slot
let[@inline] domain_slot () = Domain.DLS.get slot_key

(* ------------------------------------------------------------------ *)
(* Handles. *)

type counter = { c_name : string; c_cells : int array (* strided *) }

(* High-watermark gauge (e.g. peak simultaneous GLR parsers). *)
type peak = { p_name : string; p_cells : int array (* strided *) }

type histogram = {
  h_name : string;
  h_bounds : float array;  (* ascending upper bounds; last bucket = +inf *)
  h_buckets : int;  (* length bounds + 1 *)
  h_counts : int array;  (* h_buckets per slot, slot-major *)
}

type metric =
  | Counter of counter
  | Peak of peak
  | Histogram of histogram

(* ------------------------------------------------------------------ *)
(* Registry.                                                           *)

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let on = ref true

let set_enabled b = on := b

(* Registration typically happens when a module's top level runs — and
   under OCaml 5 a worker domain can be the first to force a lazy module
   initializer, so the duplicate check and the table insert must be one
   critical section. *)
let registry_mutex = Mutex.create ()

let register name m =
  Mutex.lock registry_mutex;
  let dup = Hashtbl.mem registry name in
  if not dup then Hashtbl.replace registry name m;
  Mutex.unlock registry_mutex;
  if dup then invalid_arg (Printf.sprintf "Metrics: duplicate metric %S" name)

let counter name =
  let c = { c_name = name; c_cells = Array.make (domain_slots * stride) 0 } in
  register name (Counter c);
  c

let peak name =
  let p = { p_name = name; p_cells = Array.make (domain_slots * stride) 0 } in
  register name (Peak p);
  p

let histogram name ~bounds =
  (let sorted = Array.copy bounds in
   Array.sort compare sorted;
   if sorted <> bounds then invalid_arg "Metrics.histogram: unsorted bounds");
  let buckets = Array.length bounds + 1 in
  let h =
    { h_name = name; h_bounds = bounds; h_buckets = buckets;
      h_counts = Array.make (domain_slots * buckets) 0 }
  in
  register name (Histogram h);
  h

(* ------------------------------------------------------------------ *)
(* Hot-path updates.                                                   *)

let[@inline] incr c =
  if !on then begin
    let i = domain_slot () * stride in
    c.c_cells.(i) <- c.c_cells.(i) + 1
  end

let[@inline] add c n =
  if !on then begin
    let i = domain_slot () * stride in
    c.c_cells.(i) <- c.c_cells.(i) + n
  end

let[@inline] record_peak p v =
  if !on then begin
    let i = domain_slot () * stride in
    if v > p.p_cells.(i) then p.p_cells.(i) <- v
  end

let now = Unix.gettimeofday
let now_ms () = now () *. 1e3

(* [start] returns a timestamp for [observe_since], 0. when disabled. *)
let[@inline] start () = if !on then now () else 0.

let observe h x =
  if !on then begin
    let n = Array.length h.h_bounds in
    let rec bucket i = if i >= n || x <= h.h_bounds.(i) then i else bucket (i + 1) in
    let i = (domain_slot () * h.h_buckets) + bucket 0 in
    h.h_counts.(i) <- h.h_counts.(i) + 1
  end

(* [observe_since h t0] — record the milliseconds elapsed since a
   [start] timestamp; no-op when that start was taken disabled. *)
let observe_since h t0 =
  if !on && t0 <> 0. then observe h ((now () -. t0) *. 1e3)

(* ------------------------------------------------------------------ *)
(* Snapshots.                                                          *)

type value =
  | Count of int
  | Gauge of int
  | Hist of { bounds : float array; counts : int array }

type snapshot = (string * value) list

let sum_strided cells =
  let acc = ref 0 in
  for s = 0 to domain_slots - 1 do
    acc := !acc + cells.(s * stride)
  done;
  !acc

let max_strided cells =
  let acc = ref 0 in
  for s = 0 to domain_slots - 1 do
    if cells.(s * stride) > !acc then acc := cells.(s * stride)
  done;
  !acc

(* Merged view: sum (or max) across every domain shard. *)
let value_of = function
  | Counter c -> Count (sum_strided c.c_cells)
  | Peak p -> Gauge (max_strided p.p_cells)
  | Histogram h ->
      let counts = Array.make h.h_buckets 0 in
      for s = 0 to domain_slots - 1 do
        for b = 0 to h.h_buckets - 1 do
          counts.(b) <- counts.(b) + h.h_counts.((s * h.h_buckets) + b)
        done
      done;
      Hist { bounds = h.h_bounds; counts }

(* This domain's shard only. *)
let local_value_of slot = function
  | Counter c -> Count c.c_cells.(slot * stride)
  | Peak p -> Gauge p.p_cells.(slot * stride)
  | Histogram h ->
      Hist
        {
          bounds = h.h_bounds;
          counts = Array.sub h.h_counts (slot * h.h_buckets) h.h_buckets;
        }

let snapshot_with value_of =
  Mutex.lock registry_mutex;
  let entries =
    Hashtbl.fold (fun name m acc -> (name, value_of m) :: acc) registry []
  in
  Mutex.unlock registry_mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

let snapshot () = snapshot_with value_of

let local_snapshot () =
  let slot = domain_slot () in
  snapshot_with (local_value_of slot)

(* One counter of this domain's shard, looked up by name: what a
   per-request bracket reads when it needs a few counts, not the whole
   registry. *)
let local_count name =
  let i = domain_slot () * stride in
  Mutex.lock registry_mutex;
  let m = Hashtbl.find_opt registry name in
  Mutex.unlock registry_mutex;
  match m with
  | Some (Counter c) -> c.c_cells.(i)
  | Some (Peak _ | Histogram _) | None -> 0

(* [diff later earlier] — the activity between two snapshots.  Counters
   and histogram buckets subtract; gauges are high-watermarks over
   the whole process, so the later value is reported as-is. *)
let diff later earlier =
  List.map
    (fun (name, v) ->
      match v, List.assoc_opt name earlier with
      | Count b, Some (Count a) -> (name, Count (max 0 (b - a)))
      | Hist b, Some (Hist a)
        when Array.length b.counts = Array.length a.counts ->
          ( name,
            Hist
              {
                bounds = b.bounds;
                counts =
                  Array.init (Array.length b.counts) (fun i ->
                      max 0 (b.counts.(i) - a.counts.(i)));
              } )
      | v, _ -> (name, v))
    later

(* ------------------------------------------------------------------ *)
(* Snapshot accessors.                                                 *)

let count snap name =
  match List.assoc_opt name snap with
  | Some (Count n) | Some (Gauge n) -> n
  | _ -> 0

(* [share snap a b] — a / (a + b) as a percentage; 0 when both empty.
   The reuse percentages are instances: share shifted_subtrees
   shifted_terminals. *)
let share snap a b =
  let x = count snap a and y = count snap b in
  if x + y = 0 then 0. else 100. *. float_of_int x /. float_of_int (x + y)

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let pp ppf snap =
  List.iter
    (fun (name, v) ->
      match v with
      | Count 0 | Gauge 0 -> ()
      | Count n -> Format.fprintf ppf "%-28s %12d@." name n
      | Gauge n -> Format.fprintf ppf "%-28s %12d (peak)@." name n
      | Hist { bounds; counts } ->
          if Array.exists (fun c -> c > 0) counts then begin
            Format.fprintf ppf "%-28s" name;
            Array.iteri
              (fun i c ->
                if c > 0 then
                  if i < Array.length bounds then
                    Format.fprintf ppf " <=%g:%d" bounds.(i) c
                  else Format.fprintf ppf " >%g:%d" bounds.(i - 1) c)
              counts;
            Format.fprintf ppf "@."
          end)
    snap

let value_to_json = function
  | Count n -> Json.Int n
  | Gauge n -> Json.Obj [ ("peak", Json.Int n) ]
  | Hist { bounds; counts } ->
      Json.Obj
        [
          ( "bounds",
            Json.List (Array.to_list (Array.map (fun b -> Json.Float b) bounds))
          );
          ( "counts",
            Json.List (Array.to_list (Array.map (fun c -> Json.Int c) counts))
          );
        ]

let to_json snap =
  Json.Obj (List.map (fun (name, v) -> (name, value_to_json v)) snap)

(* ------------------------------------------------------------------ *)
(* OpenMetrics / Prometheus text exposition.                           *)

module Openmetrics = struct
  (* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.  Registry names use dots
     ("glr.shifted_subtrees"); map every other character to '_' and prefix
     the exposition namespace. *)
  let sanitize name =
    let b = Bytes.of_string ("iglr_" ^ name) in
    Bytes.iteri
      (fun i c ->
        let ok =
          (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
          || (c >= '0' && c <= '9' && i > 0)
          || c = '_' || c = ':'
        in
        if not ok then Bytes.set b i '_')
      b;
    Bytes.to_string b

  let float_repr v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.9g" v

  let render snap =
    let buf = Buffer.create 4096 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
    List.iter
      (fun (name, v) ->
        let n = sanitize name in
        match v with
        | Count c ->
            line "# TYPE %s counter" n;
            line "%s_total %d" n c
        | Gauge g ->
            line "# TYPE %s gauge" n;
            line "%s %d" n g
        | Hist { bounds; counts } ->
            line "# TYPE %s histogram" n;
            let cumulative = ref 0 in
            Array.iteri
              (fun i c ->
                if i < Array.length bounds then begin
                  cumulative := !cumulative + c;
                  line "%s_bucket{le=\"%s\"} %d" n (float_repr bounds.(i))
                    !cumulative
                end)
              counts;
            let total = Array.fold_left ( + ) 0 counts in
            line "%s_bucket{le=\"+Inf\"} %d" n total;
            line "%s_count %d" n total)
      snap;
    line "# EOF";
    Buffer.contents buf

  type sample = {
    s_name : string;
    s_labels : (string * string) list;
    s_value : float;
  }

  (* Minimal validating parser for the exposition format above: TYPE
     comments declare families, samples must parse as
     name[{labels}] value, the document must end with "# EOF", and
     every sample must belong to a declared family.  Used by the smoke
     checker and the tests — a scrape either parses or the build
     fails. *)
  let parse text =
    let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
    let lines = String.split_on_char '\n' text in
    (* Drop one trailing empty segment from the final newline. *)
    let lines =
      match List.rev lines with
      | "" :: rest -> List.rev rest
      | _ -> lines
    in
    let families = Hashtbl.create 64 in
    let rec go acc saw_eof i = function
      | [] ->
          if saw_eof then Ok (List.rev acc) else err "missing terminal # EOF"
      | _ :: _ when saw_eof -> err "content after # EOF"
      | line :: rest ->
          if line = "# EOF" then go acc true (i + 1) rest
          else if String.length line > 0 && line.[0] = '#' then begin
            match String.split_on_char ' ' line with
            | [ "#"; "TYPE"; fam; kind ]
              when List.mem kind [ "counter"; "gauge"; "histogram" ] ->
                Hashtbl.replace families fam ();
                go acc saw_eof (i + 1) rest
            | _ -> err "line %d: malformed comment %S" i line
          end
          else begin
            match String.index_opt line ' ' with
            | None -> err "line %d: no value in %S" i line
            | Some sp -> (
                let series = String.sub line 0 sp in
                let value =
                  String.sub line (sp + 1) (String.length line - sp - 1)
                in
                match float_of_string_opt value with
                | None -> err "line %d: non-numeric value %S" i value
                | Some v -> (
                    let name, labels =
                      match String.index_opt series '{' with
                      | None -> (series, [])
                      | Some b ->
                          if series.[String.length series - 1] <> '}' then
                            (series, [])
                          else
                            let name = String.sub series 0 b in
                            let body =
                              String.sub series (b + 1)
                                (String.length series - b - 2)
                            in
                            let labels =
                              List.filter_map
                                (fun kv ->
                                  match String.index_opt kv '=' with
                                  | None -> None
                                  | Some e ->
                                      let k = String.sub kv 0 e in
                                      let v =
                                        String.sub kv (e + 1)
                                          (String.length kv - e - 1)
                                      in
                                      let v =
                                        if
                                          String.length v >= 2
                                          && v.[0] = '"'
                                          && v.[String.length v - 1] = '"'
                                        then String.sub v 1 (String.length v - 2)
                                        else v
                                      in
                                      Some (k, v))
                                (String.split_on_char ',' body)
                            in
                            (name, labels)
                    in
                    (* A sample belongs to a declared family: exact name,
                       or a histogram/counter suffix of one. *)
                    let known =
                      Hashtbl.mem families name
                      || List.exists
                           (fun suf ->
                             Filename.check_suffix name suf
                             && Hashtbl.mem families
                                  (String.sub name 0
                                     (String.length name - String.length suf)))
                           [ "_total"; "_bucket"; "_count"; "_sum" ]
                    in
                    if not known then
                      err "line %d: sample %S has no # TYPE declaration" i name
                    else
                      go
                        ({ s_name = name; s_labels = labels; s_value = v }
                        :: acc)
                        saw_eof (i + 1) rest))
          end
    in
    go [] false 1 lines

  let sample_value samples name =
    List.find_map
      (fun s -> if s.s_name = name then Some s.s_value else None)
      samples
end
