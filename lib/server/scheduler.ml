(* Per-key serialisation is carried by a tiny state machine per key:

     Queued  — pending jobs, waiting on the ready queue
     Running — a worker is executing this key's next job

   An idle key (no pending jobs, none running) has no entry at all.

   A key is on the ready queue exactly when Queued, and at most one
   worker runs a given key at a time, so jobs with equal keys execute in
   submission order without overlap.  Workers take ONE job per
   dispatch — a key with a long backlog cannot starve its siblings.

   Supervision: a worker domain that dies while holding a job (the
   [Fault.Domain_killed] injection, standing in for an abrupt domain
   death) is trapped at the last possible frame of the worker body.  The
   dying worker settles its job — the submitter's [on_crash] callback
   decides between a single front-of-queue retry (the job never started)
   and giving up (the engine answers [-32006 worker-crashed]) — restores
   the key's state machine so the per-document FIFO resumes in order,
   spawns its own replacement domain, and exits.  The worker count is
   therefore invariant across crashes, and a killed domain is replaced
   within the dispatch cycle that killed it. *)

let m_restarts = Metrics.counter "server.supervised_restarts"
let m_crashes = Metrics.counter "server.worker_crashes"

type dstate = Queued | Running

type job = {
  run : unit -> unit;
  on_crash : (started:bool -> attempt:int -> [ `Retry | `Give_up ]) option;
  mutable attempts : int;
}

(* [front] holds a job re-queued by crash recovery: it was the head of
   the FIFO when the worker died, so it must run before anything in
   [pending] — per-key submission order is preserved across a retry. *)
type dq = {
  pending : job Queue.t;
  mutable front : job option;
  mutable state : dstate;
}

let dq_empty dq = dq.front = None && Queue.is_empty dq.pending
let dq_length dq = Queue.length dq.pending + if dq.front = None then 0 else 1

let dq_take dq =
  match dq.front with
  | Some j ->
      dq.front <- None;
      j
  | None -> Queue.pop dq.pending

type t = {
  m : Mutex.t;
  work : Condition.t;  (* signalled when the ready queue grows *)
  idle : Condition.t;  (* signalled when in-flight work completes *)
  keys : (string, dq) Hashtbl.t;
  ready : string Queue.t;
  mutable unfinished : int;  (* submitted and not yet completed *)
  mutable busy : int;  (* workers currently executing a job *)
  mutable executed : int;  (* jobs completed since creation *)
  mutable restarts : int;  (* replacement domains spawned after crashes *)
  mutable alive : int;  (* live worker domains *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
      (* every domain ever spawned, crashed ones included: joined at
         shutdown (a crashed worker's body has returned, so its join is
         immediate) *)
}

let jobs t = t.alive

type disposition = Done | Crashed of { started : bool }

(* Run one job, classifying how it ended.  [Fault.Domain_killed] is the
   only exception treated as a domain death; anything else is a handler
   bug the submitter has already converted to a structured response (or
   failed to — either way the scheduler must keep serving). *)
let execute job =
  if Fault.fire Fault.Kill_pre then Crashed { started = false }
  else
    match job.run () with
    | () -> Done
    | exception Fault.Domain_killed -> Crashed { started = true }
    | exception _ -> Done

let settle_crash job ~started =
  Metrics.incr m_crashes;
  match job.on_crash with
  | None -> `Give_up
  | Some f -> ( try f ~started ~attempt:job.attempts with _ -> `Give_up)

(* A job on [key] has settled (lock held): put the key back on the ready
   queue if it has more work, else forget it — an idle key with an empty
   queue holds nothing, and documents come and go for the daemon's whole
   life.  [Hashtbl.remove] never shrinks the bucket array, so the table
   is reset to its initial size when its last key goes: a burst of keys
   leaves nothing behind once it has drained. *)
let settle t key dq =
  if dq_empty dq then begin
    Hashtbl.remove t.keys key;
    if Hashtbl.length t.keys = 0 then Hashtbl.reset t.keys
  end
  else begin
    dq.state <- Queued;
    Queue.push key t.ready;
    Condition.signal t.work
  end;
  if t.unfinished = 0 then Condition.broadcast t.idle

let rec worker t =
  Mutex.lock t.m;
  while (not t.stop) && Queue.is_empty t.ready do
    Condition.wait t.work t.m
  done;
  if t.stop && Queue.is_empty t.ready then begin
    t.alive <- t.alive - 1;
    Mutex.unlock t.m
  end
  else begin
    let key = Queue.pop t.ready in
    let dq = Hashtbl.find t.keys key in
    dq.state <- Running;
    let job = dq_take dq in
    t.busy <- t.busy + 1;
    Mutex.unlock t.m;
    Fault.point Fault.Stall;
    match execute job with
    | Done ->
        Mutex.lock t.m;
        t.busy <- t.busy - 1;
        t.executed <- t.executed + 1;
        t.unfinished <- t.unfinished - 1;
        settle t key dq;
        Mutex.unlock t.m;
        worker t
    | Crashed { started } ->
        (* The supervisor path: this worker domain is now considered
           dead.  Settle the job, restore the key's FIFO, hand the
           worker slot to a replacement, and fall off the domain. *)
        let verdict = settle_crash job ~started in
        Mutex.lock t.m;
        t.busy <- t.busy - 1;
        (match verdict with
        | `Retry ->
            job.attempts <- job.attempts + 1;
            dq.front <- Some job
        | `Give_up ->
            t.executed <- t.executed + 1;
            t.unfinished <- t.unfinished - 1);
        settle t key dq;
        if not t.stop then begin
          t.restarts <- t.restarts + 1;
          Metrics.incr m_restarts;
          t.workers <- Domain.spawn (fun () -> worker t) :: t.workers
        end
        else t.alive <- t.alive - 1;
        Mutex.unlock t.m
  end

let create ~jobs =
  let jobs = max 0 (min jobs (max 1 (Domain.recommended_domain_count () - 1))) in
  let t =
    {
      m = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      keys = Hashtbl.create 16;
      ready = Queue.create ();
      unfinished = 0;
      busy = 0;
      executed = 0;
      restarts = 0;
      alive = jobs;
      stop = false;
      workers = [];
    }
  in
  t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker t));
  t

let submit t ~key ?on_crash run =
  let job = { run; on_crash; attempts = 0 } in
  if t.workers = [] then begin
    (* Inline mode: deterministic, single-threaded.  Crash faults are
       settled through the same ladder — one retry for a job that never
       started, then give up — so a committed chaos plan replays
       byte-identically under [iglrd --serial]. *)
    Fault.point Fault.Stall;
    let rec go () =
      match execute job with
      | Done -> ()
      | Crashed { started } -> (
          t.restarts <- t.restarts + 1;
          Metrics.incr m_restarts;
          match settle_crash job ~started with
          | `Retry ->
              job.attempts <- job.attempts + 1;
              go ()
          | `Give_up -> ())
    in
    go ();
    t.executed <- t.executed + 1
  end
  else begin
    Mutex.lock t.m;
    (match Hashtbl.find_opt t.keys key with
    | Some dq -> Queue.push job dq.pending
    | None ->
        let dq = { pending = Queue.create (); front = None; state = Queued } in
        Queue.push job dq.pending;
        Hashtbl.replace t.keys key dq;
        Queue.push key t.ready;
        Condition.signal t.work);
    t.unfinished <- t.unfinished + 1;
    Mutex.unlock t.m
  end

let busy t =
  Mutex.lock t.m;
  let b = t.busy in
  Mutex.unlock t.m;
  b

let executed t =
  Mutex.lock t.m;
  let e = t.executed in
  Mutex.unlock t.m;
  e

let restarts t =
  Mutex.lock t.m;
  let r = t.restarts in
  Mutex.unlock t.m;
  r

let depth t ~key =
  Mutex.lock t.m;
  let d =
    match Hashtbl.find_opt t.keys key with
    | None -> 0
    | Some dq -> dq_length dq + if dq.state = Running then 1 else 0
  in
  Mutex.unlock t.m;
  d

let depths t =
  Mutex.lock t.m;
  let ds =
    Hashtbl.fold (fun key dq acc -> (key, dq_length dq) :: acc) t.keys []
  in
  Mutex.unlock t.m;
  List.sort compare ds

let drain t =
  if t.workers <> [] then begin
    Mutex.lock t.m;
    while t.unfinished > 0 do
      Condition.wait t.idle t.m
    done;
    Mutex.unlock t.m
  end

let shutdown t =
  drain t;
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers;
  t.workers <- [];
  t.alive <- 0
