(** Lightweight registry of counts for hot-path observability.

    The engine's instrumentation (subtree reuse, lookahead state checks,
    relex reuse, dag commits) lives behind handles created once at module
    initialisation; each update is a flag test plus a store — zero
    allocation, and a single branch when disabled via {!set_enabled}.
    Time is [lib/trace]'s, apart from the one reparse-latency
    histogram.

    Handles register under a unique name in a process-global registry.
    {!snapshot} captures all of it; {!diff} between two snapshots yields
    the activity of one session, parse, or experiment.

    Every handle is sharded per domain: updates from concurrent worker
    domains land in disjoint cache-line-strided cells (no locks, no lost
    increments), {!snapshot} merges the shards, and {!local_snapshot} and
    {!local_count} read only the calling domain's shard — the exact
    per-request view the parse service uses for request-correlated metric
    deltas. *)

(** Minimal JSON (writer + parser) used by the machine-readable bench
    output and the regression gate; no external dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  val to_file : string -> t -> unit

  val to_line : t -> string
  (** Compact single-line rendering without a trailing newline — the
      framing unit of newline-delimited protocols (the [iglrd]
      daemon). *)

  exception Parse of string

  val of_string : string -> t
  (** @raise Parse on malformed input. *)

  val of_file : string -> t

  val member : string -> t -> t option
  val to_list : t -> t list option
  val to_str : t -> string option
  val to_int : t -> int option

  val to_float : t -> float option
  (** Accepts both [Int] and [Float]. *)

  val to_bool : t -> bool option
end

type counter
type peak
type histogram

(** {1 Registration} — once per metric, at module initialisation. *)

val counter : string -> counter
val peak : string -> peak

val histogram : string -> bounds:float array -> histogram
(** [bounds] are ascending bucket upper bounds; one overflow bucket is
    added past the last. *)

(** {1 Enabling} *)

val set_enabled : bool -> unit

(** {1 Hot-path updates} — no-ops (one branch) when disabled. *)

val incr : counter -> unit
val add : counter -> int -> unit

val record_peak : peak -> int -> unit
(** Raise the high-watermark to [v] if larger. *)

val start : unit -> float
(** Timestamp for {!observe_since}, 0. when disabled. *)

val now_ms : unit -> float
(** Wall-clock milliseconds, whatever {!set_enabled} chose.  The registry's
    clock, exposed so clients that must not link [unix] directly (the
    parser's deadline budget) share one time source. *)

val observe : histogram -> float -> unit

val observe_since : histogram -> float -> unit
(** [observe_since h (start ())] — record the elapsed span in
    milliseconds. *)

(** {1 Snapshots} *)

type value =
  | Count of int
  | Gauge of int  (** high-watermark *)
  | Hist of { bounds : float array; counts : int array }

type snapshot = (string * value) list
(** Sorted by metric name. *)

val snapshot : unit -> snapshot
(** Merged across every domain shard: counters and histogram buckets
    sum; peaks take the maximum. *)

val local_snapshot : unit -> snapshot
(** The calling domain's shard only.  Two [local_snapshot]s taken around
    a request on its worker domain {!diff} to exactly that request's
    activity, regardless of what the other domains are doing.  It reads
    the whole registry: a bracket that needs a few counts reads them with
    {!local_count}. *)

val local_count : string -> int
(** The calling domain's shard of counter [name]; 0 for an unknown name
    or a metric that is not a counter.  Takes the registry mutex, as
    registration does, for one table lookup. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] — counters and histogram buckets subtract;
    gauges keep the later (whole-process) value. *)

val count : snapshot -> string -> int
(** Counter or gauge value; 0 when absent. *)

val share : snapshot -> string -> string -> float
(** [share snap a b] — [100 * a / (a + b)], 0 when both are zero; the
    shape of every reuse percentage. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable listing; zero-valued metrics are omitted. *)

val to_json : snapshot -> Json.t

(** {1 Domain shards} — shared with [lib/trace], which keys its
    per-domain rings on the same slot assignment. *)

val domain_slots : int
(** Number of shard slots.  Slots are recycled when domains exit, so
    this bounds *concurrent* domains, not total spawns. *)

val domain_slot : unit -> int
(** The calling domain's slot, in [0, domain_slots). *)

(** OpenMetrics / Prometheus text exposition of a snapshot, plus the
    minimal validating parser the smoke tests scrape it back with.
    Counters render as [_total] samples, peaks as gauges, histograms as
    cumulative [_bucket{le="..."}] series with [_count]; the document
    ends with [# EOF]. *)
module Openmetrics : sig
  val render : snapshot -> string

  type sample = {
    s_name : string;
    s_labels : (string * string) list;
    s_value : float;
  }

  val parse : string -> (sample list, string) result
  (** Validates structure (declared families, numeric values, terminal
      [# EOF]) and returns the samples. *)

  val sample_value : sample list -> string -> float option
  (** First sample with the given series name. *)
end
