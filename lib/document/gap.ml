(* Gap arrays: a sequence kept in one array with a hole (the gap) at the
   last edit point.  A range replace moves the gap to the edit, drops the
   deleted entries into it and writes the new ones at its front, so an
   edit costs the distance the gap moves plus its damage, not the length
   of the sequence.  The array grows, geometrically, only when the gap is
   too small for an insertion. *)

type 'a t = {
  mutable a : 'a array;
  mutable lo : int;  (* the gap is slots [lo, hi) *)
  mutable hi : int;
  fill : 'a;  (* written into vacated slots, so the gap retains nothing *)
}

(* Slots a fresh or grown array keeps free past its entries. *)
let slack = 32

let of_prefix a ~len ~fill =
  if len < 0 || len > Array.length a then invalid_arg "Gap.of_prefix";
  Array.fill a len (Array.length a - len) fill;
  { a; lo = len; hi = Array.length a; fill }

let length g = Array.length g.a - g.hi + g.lo

let[@inline] get g i = if i < g.lo then g.a.(i) else g.a.(i + g.hi - g.lo)

(* Moves the gap to just before entry [p].  Entries that cross it keep
   their order; source slots that end up inside the gap are filled. *)
let move g p =
  let d = g.hi - g.lo in
  if p < g.lo then begin
    let k = g.lo - p in
    Array.blit g.a p g.a (p + d) k;
    Array.fill g.a p (min k d) g.fill
  end
  else if p > g.lo then begin
    let k = p - g.lo in
    Array.blit g.a g.hi g.a g.lo k;
    let from = max g.hi p in
    Array.fill g.a from (p + d - from) g.fill
  end;
  g.lo <- p;
  g.hi <- p + d

(* Makes room for [m] entries at the gap, doubling the array when the gap
   is smaller. *)
let reserve g m =
  if g.hi - g.lo < m then begin
    let len = length g and cap = Array.length g.a in
    let cap' = max (2 * cap) (len + m + slack) in
    let b = Array.make cap' g.fill in
    let tail = cap - g.hi in
    Array.blit g.a 0 b 0 g.lo;
    Array.blit g.a g.hi b (cap' - tail) tail;
    g.a <- b;
    g.hi <- cap' - tail
  end

(* With the gap at the edit: drop the [del] entries after it, write [src]. *)
let write_at_gap g ~del src =
  Array.fill g.a g.hi del g.fill;
  g.hi <- g.hi + del;
  let m = Array.length src in
  reserve g m;
  Array.blit src 0 g.a g.lo m;
  g.lo <- g.lo + m

let replace g ~at ~del src =
  if at < 0 || del < 0 || at + del > length g then invalid_arg "Gap.replace";
  move g at;
  write_at_gap g ~del src

module Ints = struct
  (* Ascending offsets into a text.  An edit shifts every offset past it,
     so entries past the gap are stored relative to [disp]: the shift is
     one addition to [disp], and an entry is converted only when the gap
     moves across it. *)
  type nonrec t = { g : int t; mutable disp : int }

  let of_prefix a ~len = { g = of_prefix a ~len ~fill:0; disp = 0 }
  let length t = length t.g

  let[@inline] get t i =
    let g = t.g in
    if i < g.lo then g.a.(i) else g.a.(i + g.hi - g.lo) + t.disp

  let replace t ~at ~del src ~shift =
    let g = t.g in
    if at < 0 || del < 0 || at + del > length t then
      invalid_arg "Gap.Ints.replace";
    let lo = g.lo in
    move g at;
    (* Entries that crossed the gap change frame. *)
    if at < lo then
      for i = g.hi to g.hi + lo - at - 1 do
        g.a.(i) <- g.a.(i) - t.disp
      done
    else
      for i = lo to at - 1 do
        g.a.(i) <- g.a.(i) + t.disp
      done;
    write_at_gap g ~del src;
    t.disp <- t.disp + shift
end
