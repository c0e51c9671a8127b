(** Deterministic fault injection for the parse service.

    A {e fault plan} names the sites at which the service should
    misbehave and when: at fixed occurrence indices ([site@3]), every
    Kth occurrence ([site/4]), or with a seed-deterministic probability
    per occurrence ([site%0.1]).  Plans are process-global and
    installed by tests or by [iglrd --fault-plan]; when no plan is
    installed every probe is a single load of one flag — the engine
    pays nothing in production.

    Replaying the same plan against the same request stream reproduces
    the same faults: occurrence counters are per-site and probability
    draws hash the (seed, site, occurrence) triple, so chaos failures
    shrink to a seed. *)

type site =
  | Worker_raise  (** a worker job raises mid-handler *)
  | Kill_pre  (** the worker domain dies after dequeue, before the job runs *)
  | Kill_mid  (** the worker domain dies while the job is executing *)
  | Stall  (** the scheduler stalls before dispatching a job *)
  | Sink_fail  (** the response sink's write fails *)
  | Clock_skew  (** the dispatcher's deadline clock reads skewed *)

val all_sites : site list

val site_name : site -> string
(** [worker.raise], [kill.pre], [kill.mid], [stall], [sink.fail],
    [clock.skew]. *)

val site_of_name : string -> site option

exception Injected of site
(** Raised by {!point} at {!Worker_raise} and {!Sink_fail} sites. *)

exception Domain_killed
(** Raised by {!point} at {!Kill_pre}/{!Kill_mid} sites: simulates the
    abrupt death of the executing worker domain.  The scheduler's
    supervisor — and nothing else — is allowed to catch it. *)

type plan

val plan_of_string : string -> (plan, string) result
(** Parse a plan description: semicolon-separated clauses

    - [seed=N] — PRNG seed for probabilistic rules (default 0);
    - [stall=MS] — stall duration in milliseconds (default 2);
    - [skew=MS] — clock skew in milliseconds (default 50);
    - [SITE@N] — fire at the Nth occurrence (1-based; repeatable:
      [kill.mid@2@5]);
    - [SITE/K] — fire at every Kth occurrence;
    - [SITE%P] — fire with probability [P] at each occurrence.

    e.g. ["seed=7;kill.mid@3;stall%0.05;sink.fail@9"]. *)

val install : plan -> unit
(** Activate [plan], resetting all occurrence counters. *)

val clear : unit -> unit
(** Deactivate injection; probes return to their zero-cost path. *)

val active : unit -> bool

val fire : site -> bool
(** Record one occurrence of [site] and report whether a fault
    triggers there.  Always [false] when inactive (without counting). *)

val point : site -> unit
(** {!fire}, then act: raise {!Injected} ({!Worker_raise},
    {!Sink_fail}), raise {!Domain_killed} ({!Kill_pre}, {!Kill_mid}),
    or busy-wait the configured stall ({!Stall}).  {!Clock_skew} has no
    action — consume it via {!skew_ms}. *)

val skew_ms : unit -> float
(** The clock skew to add to a deadline-clock reading: the configured
    skew when a {!Clock_skew} occurrence fires, else [0.]. *)

val hits : site -> int
(** Occurrences of [site] recorded since {!install}. *)
