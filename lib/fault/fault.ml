type site = Worker_raise | Kill_pre | Kill_mid | Stall | Sink_fail | Clock_skew

let all_sites = [ Worker_raise; Kill_pre; Kill_mid; Stall; Sink_fail; Clock_skew ]

let site_name = function
  | Worker_raise -> "worker.raise"
  | Kill_pre -> "kill.pre"
  | Kill_mid -> "kill.mid"
  | Stall -> "stall"
  | Sink_fail -> "sink.fail"
  | Clock_skew -> "clock.skew"

let site_of_name s = List.find_opt (fun x -> site_name x = s) all_sites

let site_index = function
  | Worker_raise -> 0
  | Kill_pre -> 1
  | Kill_mid -> 2
  | Stall -> 3
  | Sink_fail -> 4
  | Clock_skew -> 5

exception Injected of site
exception Domain_killed

let () =
  Printexc.register_printer (function
    | Injected site ->
        Some (Printf.sprintf "fault injected at %s" (site_name site))
    | Domain_killed -> Some "fault-injected domain death"
    | _ -> None)

(* When a rule fires for a given occurrence of its site.  [At] indices
   are 1-based; [Every k] fires at k, 2k, ...; [Prob p] draws from a
   splitmix64 hash of (seed, site, occurrence), so a plan replays
   identically regardless of domain interleaving. *)
type mode = At of int list | Every of int | Prob of float

type plan = {
  seed : int;
  stall_ms : float;
  skew_ms : float;
  rules : (site * mode) list;
}

type state = { plan : plan; counters : int Atomic.t array }

(* The zero-cost path: one load of [current] per probe site. *)
let current : state option Atomic.t = Atomic.make None

let install plan =
  Atomic.set current
    (Some
       {
         plan;
         counters = Array.init (List.length all_sites) (fun _ -> Atomic.make 0);
       })

let clear () = Atomic.set current None
let active () = Atomic.get current <> None

let hits site =
  match Atomic.get current with
  | None -> 0
  | Some st -> Atomic.get st.counters.(site_index site)

(* splitmix64 on a mixed key: the standard constants, enough for a
   deterministic per-occurrence coin. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let draw ~seed ~site ~n =
  let k =
    Int64.add
      (Int64.mul (Int64.of_int seed) 0x9e3779b97f4a7c15L)
      (Int64.of_int ((site_index site * 1_000_003) + n))
  in
  let bits = Int64.shift_right_logical (mix64 k) 11 in
  Int64.to_float bits /. 9007199254740992. (* 2^53 *)

let fire site =
  match Atomic.get current with
  | None -> false
  | Some st -> (
      let n = 1 + Atomic.fetch_and_add st.counters.(site_index site) 1 in
      match List.assoc_opt site st.plan.rules with
      | None -> false
      | Some (At l) -> List.mem n l
      | Some (Every k) -> k > 0 && n mod k = 0
      | Some (Prob p) -> draw ~seed:st.plan.seed ~site ~n < p)

(* Busy-wait: the stall site must not depend on signal delivery or
   introduce syscalls into the scheduler's dispatch path. *)
let busy_wait ms =
  let t0 = Unix.gettimeofday () in
  while (Unix.gettimeofday () -. t0) *. 1000. < ms do
    Domain.cpu_relax ()
  done

let point site =
  if fire site then
    match site with
    | Worker_raise | Sink_fail -> raise (Injected site)
    | Kill_pre | Kill_mid -> raise Domain_killed
    | Stall -> (
        match Atomic.get current with
        | Some st -> busy_wait st.plan.stall_ms
        | None -> ())
    | Clock_skew -> ()

let skew_ms () =
  match Atomic.get current with
  | None -> 0.
  | Some st -> if fire Clock_skew then st.plan.skew_ms else 0.

(* ------------------------------------------------------------------ *)
(* Plan syntax.                                                        *)

let plan_of_string s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let clauses =
    List.filter (fun c -> String.trim c <> "") (String.split_on_char ';' s)
  in
  let rec go acc = function
    | [] ->
        Ok
          {
            seed = acc.seed;
            stall_ms = acc.stall_ms;
            skew_ms = acc.skew_ms;
            rules = List.rev acc.rules;
          }
    | clause :: rest -> (
        let clause = String.trim clause in
        match String.index_opt clause '=' with
        | Some i -> (
            let k = String.sub clause 0 i in
            let v = String.sub clause (i + 1) (String.length clause - i - 1) in
            match (k, float_of_string_opt v) with
            | "seed", Some f -> go { acc with seed = int_of_float f } rest
            | "stall", Some f -> go { acc with stall_ms = f } rest
            | "skew", Some f -> go { acc with skew_ms = f } rest
            | _ -> err "bad clause %S (expected seed=, stall= or skew=)" clause)
        | None -> (
            let split_at c =
              Option.map
                (fun i ->
                  ( String.sub clause 0 i,
                    String.sub clause (i + 1) (String.length clause - i - 1) ))
                (String.index_opt clause c)
            in
            let with_site name f =
              match site_of_name name with
              | None -> err "unknown fault site %S" name
              | Some site -> (
                  match f site with
                  | Some mode -> go { acc with rules = (site, mode) :: acc.rules } rest
                  | None -> err "bad rule %S" clause)
            in
            match split_at '@' with
            | Some (name, idx) ->
                with_site name (fun _ ->
                    let parts = String.split_on_char '@' idx in
                    let ns = List.filter_map int_of_string_opt parts in
                    if List.length ns = List.length parts && ns <> [] then
                      Some (At ns)
                    else None)
            | None -> (
                match split_at '%' with
                | Some (name, p) ->
                    with_site name (fun _ ->
                        Option.bind (float_of_string_opt p) (fun p ->
                            if p >= 0. && p <= 1. then Some (Prob p) else None))
                | None -> (
                    match split_at '/' with
                    | Some (name, k) ->
                        with_site name (fun _ ->
                            Option.bind (int_of_string_opt k) (fun k ->
                                if k >= 1 then Some (Every k) else None))
                    | None -> err "bad clause %S" clause))))
  in
  go { seed = 0; stall_ms = 2.; skew_ms = 50.; rules = [] } clauses
