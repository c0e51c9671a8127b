(* The machine's speed, sampled beside the daemon.

   The machine the benchmark was written on, a shared 2-vCPU VM, changes
   speed by the minute.  A fixed CPU-bound loop timed back to back for
   five minutes had its fastest tenth of passes at 65 ms in one
   ten-second window and at 50 ms ninety seconds later, with CPU time
   equal to wall time throughout: the machine itself ran slower, it did
   not just run something else.  Every timing of the daemon moves with
   it, CPU time per op included, and between runs by more than the
   bounds allow.

   So the timed phase stops every [interval] seconds, when no request is
   in flight, and times [kernel] — fixed code of the benchmark's own,
   calling nothing of the repository — in the load generator.  A
   daemon's timings are then multiplied by [factor]: the kernel's
   reference time over the median of its samples, which gives them as
   they would be at the speed where the kernel takes [reference_ms].

   The host also takes the VM's processors away for a while, in
   episodes lasting minutes, and the median kernel does not see it.  The
   VM counts that time as stolen ([/proc/stat]); [stolen] is the share
   of the time the VM wanted to run that it lost, over the timed phase,
   and wall-clock times are multiplied by one minus it as well. *)

let now = Unix.gettimeofday

(* The kernel's time at the reference speed: about its median on the
   2-vCPU Intel Xeon VM above. *)
let reference_ms = 2.0

(* Allocation and pointer chasing through a tree of a few hundred KiB,
   like the daemon's own work. *)
module M = Map.Make (Int)

let kernel () =
  let m = ref M.empty in
  for i = 0 to 5999 do
    m := M.add (i * 7919 land 16383) i !m
  done;
  let s = ref 0 in
  for i = 0 to 5999 do
    match M.find_opt (i * 104729 land 16383) !m with Some v -> s := !s + v | None -> ()
  done;
  !s

let interval = 0.1

(* The machine's busy and stolen time so far, in clock ticks, summed
   over its processors. *)
let busy_and_stolen () =
  let ic = open_in "/proc/stat" in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: user :: nice :: system :: _idle :: _iowait :: irq :: softirq :: steal :: _ ->
      let f = float_of_string in
      (f user +. f nice +. f system +. f irq +. f softirq +. f steal, f steal)
  | _ -> failwith "unexpected /proc/stat"

type t = {
  mutable samples : float list;  (** seconds per kernel, newest first *)
  mutable spent : float;  (** seconds spent sampling *)
  mutable due : float;
  start : float * float;  (** [busy_and_stolen] at [create] *)
  mutable stolen : float;  (** set by [stop] *)
}

let create () =
  { samples = []; spent = 0.; due = 0.; start = busy_and_stolen (); stolen = 0. }

(* The end of the timed phase. *)
let stop t =
  let busy, steal = busy_and_stolen () and busy0, steal0 = t.start in
  t.stolen <- (if busy > busy0 then (steal -. steal0) /. (busy -. busy0) else 0.)

let due t = now () >= t.due

let sample t =
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel ()));
  let t1 = now () in
  t.samples <- (t1 -. t0) :: t.samples;
  t.spent <- t.spent +. (t1 -. t0);
  t.due <- t1 +. interval

let median_ms t =
  let a = Array.of_list (List.sort compare t.samples) in
  1e3 *. a.((Array.length a - 1) / 2)

(* Multiply a CPU time measured while [t] sampled by [factor t], a
   wall-clock time by [wall_factor t], to get them as on the reference
   machine. *)
let factor t = reference_ms /. median_ms t
let wall_factor t = factor t *. (1. -. t.stolen)
