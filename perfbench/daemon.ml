(* The real [iglrd] as a child process, driven over its stdio by a
   closed-loop client.  Each op is timed from writing its first request
   line to reading its last response line. *)

type t = {
  pid : int;
  to_d : Unix.file_descr;
  from_d : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  mutable reaped : bool;
  mutable open_fds : Unix.file_descr list;
}

let now = Unix.gettimeofday

(* A daemon that neither answers nor exits within this many seconds is
   considered hung: the run fails instead of blocking forever. *)
let response_timeout = 60.

let spawn exe =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  {
    pid;
    to_d = in_w;
    from_d = out_r;
    buf = Bytes.create 65536;
    lo = 0;
    hi = 0;
    reaped = false;
    open_fds = [ in_w; out_r ];
  }

let close t fd =
  if List.mem fd t.open_fds then begin
    t.open_fds <- List.filter (( <> ) fd) t.open_fds;
    try Unix.close fd with Unix.Unix_error _ -> ()
  end

let write_all t s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring t.to_d s off (String.length s - off))
  in
  go 0

let rec read_line t =
  match Bytes.index_from_opt t.buf t.lo '\n' with
  | Some i when i < t.hi ->
      let s = Bytes.sub_string t.buf t.lo (i - t.lo) in
      t.lo <- i + 1;
      s
  | _ ->
      let pending = t.hi - t.lo in
      if t.lo > 0 then begin
        Bytes.blit t.buf t.lo t.buf 0 pending;
        t.lo <- 0;
        t.hi <- pending
      end;
      if t.hi = Bytes.length t.buf then begin
        let b = Bytes.create (2 * Bytes.length t.buf) in
        Bytes.blit t.buf 0 b 0 t.hi;
        t.buf <- b
      end;
      (match Unix.select [ t.from_d ] [] [] response_timeout with
      | [], _, _ -> failwith "iglrd did not answer in time"
      | _ -> ());
      let n = Unix.read t.from_d t.buf t.hi (Bytes.length t.buf - t.hi) in
      if n = 0 then failwith "iglrd closed its output";
      t.hi <- t.hi + n;
      read_line t

(* Close the daemon's input (it drains and exits 0) and reap it.  Fails
   if it outlives the grace period; [kill] then ends it. *)
let stop t =
  close t t.to_d;
  let deadline = now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ -> failwith "iglrd did not exit on end of input"
    | _, status ->
        t.reaped <- true;
        if status <> Unix.WEXITED 0 then failwith "iglrd exited abnormally"
  in
  wait ()

(* Make sure the daemon is gone and its pipes closed; safe after [stop]. *)
let kill t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
    t.reaped <- true
  end;
  List.iter (close t) t.open_fds

(* ------------------------------------------------------------------ *)
(* The closed loop.                                                    *)

type tally = {
  mutable sent : int;  (** request lines written *)
  mutable latencies : (Gen.kind * float) list;
      (** one per completed op, newest first: its kind and seconds *)
  mutable answers : (Gen.req * string) list;
      (** every request with its response line, newest first; checked
          after the timed phase *)
}

let tally () = { sent = 0; latencies = []; answers = [] }

exception Mismatch of string

(* Keep up to [window] ops in flight — each logical client sends its
   next op as soon as its previous one is answered — until [next]
   returns [None], then wait for the stragglers.  Responses arrive in
   request order, so the ops complete in the order they were sent and
   the wire stream is the same on every run; the loop only counts
   lines, and [Check.answers] matches them to their requests later.
   With [calib], whenever a sample is due the loop lets the ops in
   flight finish and samples the machine's speed before it sends more. *)
let pump ?calib t ~window (next : unit -> Gen.op option) tally =
  let inflight = Queue.create () in
  let send (op : Gen.op) =
    let b = Buffer.create 256 in
    List.iter
      (fun (r : Gen.req) ->
        Buffer.add_string b r.Gen.line;
        Buffer.add_char b '\n')
      op.Gen.reqs;
    let t0 = now () in
    write_all t (Buffer.contents b);
    tally.sent <- tally.sent + List.length op.Gen.reqs;
    Queue.push (t0, op.Gen.kind, ref op.Gen.reqs) inflight
  in
  let rec fill () =
    match calib with
    | Some c when Calib.due c ->
        if Queue.is_empty inflight then begin
          Calib.sample c;
          fill ()
        end
    | _ ->
        if Queue.length inflight < window then
          match next () with
          | Some op ->
              send op;
              fill ()
          | None -> ()
  in
  fill ();
  while not (Queue.is_empty inflight) do
    let t0, kind, rest = Queue.peek inflight in
    let line = read_line t in
    tally.answers <- (List.hd !rest, line) :: tally.answers;
    rest := List.tl !rest;
    if !rest = [] then begin
      tally.latencies <- (kind, now () -. t0) :: tally.latencies;
      ignore (Queue.pop inflight);
      fill ()
    end
  done

let run_ops t ~window ops tally =
  let q = ref ops in
  pump t ~window
    (fun () ->
      match !q with
      | [] -> None
      | op :: rest ->
          q := rest;
          Some op)
    tally

(* One request, answered synchronously; returns the response line. *)
let call t (r : Gen.req) =
  write_all t (r.Gen.line ^ "\n");
  read_line t

(* ------------------------------------------------------------------ *)
(* The daemon's resource use, from /proc.                              *)

(* USER_HZ: the unit of /proc/<pid>/stat CPU times on Linux. *)
let clock_ticks_per_s = 100.

(* /proc files report length 0: read until end of file. *)
let read_proc path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 4096 and chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes b chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents b)

(* User + system CPU seconds of every thread of the process. *)
let cpu_seconds t =
  let s = read_proc (Printf.sprintf "/proc/%d/stat" t.pid) in
  let r = String.rindex s ')' + 2 in
  let after = String.sub s r (String.length s - r) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  (* Fields 14 and 15 of stat(5); [after] starts at field 3. *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. clock_ticks_per_s

(* VmHWM in MiB: the resident-set high-water mark. *)
let peak_rss_mb t =
  let s = read_proc (Printf.sprintf "/proc/%d/status" t.pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

