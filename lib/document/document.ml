module Node = Parsedag.Node
module Scanner = Lexgen.Scanner

(* Relex observability: per edit, how many tokens were actually rescanned
   versus kept (including tokens rescanned to an identical value and
   trimmed back — those count as reused, since their tree nodes are). *)
let m_edits = Metrics.counter "vdoc.edits"
let m_tokens_relexed = Metrics.counter "vdoc.tokens_relexed"
let m_tokens_reused = Metrics.counter "vdoc.tokens_reused"

type t = {
  lexer : Lexgen.Spec.t;
  mutable root : Node.t;
  leaves : Node.t Gap.t;
  mutable text : string;
  (* The position index of this text version, in gap arrays that an edit
     splices in place.  [starts] holds the byte offset where leaf [i]
     (its trivia first) begins, then the end of the last leaf; [bols] the
     ascending line-start offsets, 0 first; [la_bound] the largest
     [lex_la] of any leaf, and [la_holders] how many leaves have it. *)
  starts : Gap.Ints.t;
  bols : Gap.Ints.t;
  mutable la_bound : int;
  mutable la_holders : int;
}

let node_of_token (tok : Scanner.token) =
  Node.make_term ~term:tok.Scanner.term ~text:tok.Scanner.text
    ~trivia:tok.Scanner.trivia ~lex_la:tok.Scanner.lookahead

let token_length (tok : Scanner.token) =
  String.length tok.Scanner.trivia + String.length tok.Scanner.text

(* Writes the offsets of the line starts inside [s], which begins at byte
   [base], into [a] from slot [at]; returns how many. *)
let fill_line_starts a ~at ~base s =
  let k = ref at in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        a.(!k) <- base + i + 1;
        incr k
      end)
    s;
  !k - at

let count_newlines s =
  let k = ref 0 in
  String.iter (fun c -> if c = '\n' then incr k) s;
  !k

let lex_la (leaf : Node.t) =
  match leaf.Node.kind with Node.Term i -> i.lex_la | _ -> 0

(* The largest [lex_la] among leaves [get 0 .. get (n-1)], and how many
   of them have it. *)
let max_count n get =
  let m = ref 0 and k = ref 0 in
  for i = 0 to n - 1 do
    let v = lex_la (get i) in
    if v > !m then begin
      m := v;
      k := 1
    end
    else if v = !m then incr k
  done;
  (!m, !k)

(* [a] with room for at least [n] entries, its first [len] kept. *)
let grow a ~len n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 len;
    b
  end

(* [a]'s first [len] entries with [Gap.slack] free slots, copied only
   when [a] holds many more. *)
let fit a ~len =
  if Array.length a <= len + (2 * Gap.slack) then a
  else Array.sub a 0 (len + Gap.slack)

let create ~lexer text =
  (* One scan streams each token into its leaf and its start offset and
     keeps the lookahead bound; the root's kid array [bos; leaves; eos]
     is one copy at the end, and the index arrays keep [Gap.slack] free
     slots past their entries.  Nodes are made in source order, then
     eos, then bos. *)
  let cur = Scanner.cursor lexer text ~pos:0 in
  let guess = (String.length text / 2) + Gap.slack in
  let leaves = ref (Array.make guess Node.orphan) in
  let starts = ref (Array.make (guess + 1) 0) in
  let n = ref 0 and la_bound = ref 0 and la_holders = ref 0 in
  Trace.span Trace.Lex "lex" (fun () ->
      while Scanner.advance cur do
        let i = !n in
        let la = Scanner.lookahead cur in
        let leaf =
          Node.make_term ~term:(Scanner.term cur) ~text:(Scanner.text cur)
            ~trivia:(Scanner.trivia cur) ~lex_la:la
        in
        leaves := grow !leaves ~len:i (i + 1 + Gap.slack) Node.orphan;
        starts := grow !starts ~len:(i + 1) (i + 2 + Gap.slack) 0;
        !leaves.(i) <- leaf;
        !starts.(i + 1) <- Scanner.stop cur;
        if la > !la_bound then begin
          la_bound := la;
          la_holders := 1
        end
        else if la = !la_bound then incr la_holders;
        n := i + 1
      done);
  let n = !n in
  let eos = Node.make_eos ~trailing:(Scanner.trailing cur) in
  let bos = Node.make_bos () in
  let kids = Array.make (n + 2) bos in
  Array.blit !leaves 0 kids 1 n;
  kids.(n + 1) <- eos;
  let root = Node.make_root kids in
  Node.commit root;
  (* The gap holds bos, which the root keeps alive anyway. *)
  let leaves = Gap.of_prefix (fit !leaves ~len:n) ~len:n ~fill:bos in
  let bols = Array.make (count_newlines text + 1 + Gap.slack) 0 in
  let lines = 1 + fill_line_starts bols ~at:1 ~base:0 text in
  {
    lexer;
    root;
    leaves;
    text;
    starts = Gap.Ints.of_prefix (fit !starts ~len:(n + 1)) ~len:(n + 1);
    bols = Gap.Ints.of_prefix bols ~len:lines;
    la_bound = !la_bound;
    la_holders = !la_holders;
  }

let root t = t.root
let text t = t.text
let length t = String.length t.text
let token_count t = Gap.length t.leaves
let leaf t i = Gap.get t.leaves i
let leaf_start t i = Gap.Ints.get t.starts i
let line_start t l = Gap.Ints.get t.bols (l - 1)
let lookahead_bound t = t.la_bound

let line_of t byte =
  Relex.first_above (Gap.Ints.get t.bols) ~lo:0 ~hi:(Gap.Ints.length t.bols)
    byte

let index_in_parent (p : Node.t) (n : Node.t) =
  let rec find i =
    if i >= Array.length p.Node.kids then
      invalid_arg "Document: stale parent pointer"
    else if p.Node.kids.(i) == n then i
    else find (i + 1)
  in
  find 0

let parent_of (n : Node.t) =
  if Node.has_parent n then n.Node.parent
  else invalid_arg "Document: node without parent"

(* Unlink [n] from its parent; returns the parent and the slot [n] had. *)
let remove_from_parent n =
  let p = parent_of n in
  let at = index_in_parent p n in
  Node.splice_kids p ~at ~del:1 [||];
  (p, at)

let eos_of t = t.root.Node.kids.(Array.length t.root.Node.kids - 1)

let set_trailing t trailing =
  let eos = eos_of t in
  (match eos.Node.kind with
  | Node.Eos e ->
      if not (String.equal e.Node.trailing trailing) then begin
        e.Node.trailing <- trailing;
        Node.mark_changed eos
      end
  | _ -> assert false)

let edit t ~pos ~del ~insert =
  if pos < 0 || del < 0 || pos + del > String.length t.text then
    invalid_arg "Document.edit: range out of bounds";
  let len = String.length t.text and ins = String.length insert in
  let new_text =
    let b = Bytes.create (len - del + ins) in
    Bytes.blit_string t.text 0 b 0 pos;
    Bytes.blit_string insert 0 b pos ins;
    Bytes.blit_string t.text (pos + del) b (pos + ins) (len - pos - del);
    Bytes.unsafe_to_string b
  in
  let n = token_count t in
  (* Relex before touching the tree so a lex error leaves us unchanged. *)
  let r =
    Trace.span Trace.Relex "relex" @@ fun () ->
    Relex.relex ~lexer:t.lexer ~count:n ~leaf:(leaf t) ~start:(leaf_start t)
      ~la_bound:t.la_bound ~pos ~del ~insert ~new_text
  in
  (* Trim replacement tokens that are identical to the leaves they would
     replace (tokens rescanned only because their lookahead reached the
     edit): keeping the old nodes preserves subtree reuse around the
     damage. *)
  let token_equals_leaf (tok : Scanner.token) (leaf : Node.t) =
    match leaf.Node.kind with
    | Node.Term i ->
        i.term = tok.Scanner.term
        && String.equal i.text tok.Scanner.text
        && String.equal i.trivia tok.Scanner.trivia
        && i.lex_la = tok.Scanner.lookahead
    | _ -> false
  in
  let r =
    let first = ref r.Relex.first
    and replaced = ref r.Relex.replaced
    and tokens = ref r.Relex.tokens in
    while
      !replaced > 0 && !tokens <> []
      && token_equals_leaf (List.hd !tokens) (leaf t !first)
    do
      incr first;
      decr replaced;
      tokens := List.tl !tokens
    done;
    let rev = ref (List.rev !tokens) in
    while
      !replaced > 0 && !rev <> []
      && token_equals_leaf (List.hd !rev) (leaf t (!first + !replaced - 1))
    do
      decr replaced;
      rev := List.tl !rev
    done;
    {
      r with
      Relex.first = !first;
      replaced = !replaced;
      tokens = List.rev !rev;
    }
  in
  Metrics.incr m_edits;
  Metrics.add m_tokens_relexed (List.length r.Relex.tokens);
  Metrics.add m_tokens_reused (n - r.Relex.replaced);
  (* The splice decision after trimming: which leaves the edit actually
     replaced versus kept (the relex half of the reuse story). *)
  if Trace.enabled () then
    Trace.instant Trace.Relex "splice"
      [
        ("first", Trace.Int r.Relex.first);
        ("replaced", Trace.Int r.Relex.replaced);
        ("inserted", Trace.Int (List.length r.Relex.tokens));
        ("relexed", Trace.Int (List.length r.Relex.tokens));
        ("reused", Trace.Int (n - r.Relex.replaced));
      ];
  let new_terms = Array.of_list (List.map node_of_token r.Relex.tokens) in
  (* Splice into the tree: the replacement terminals take the tree position
     of the first replaced leaf (or sit just before eos when appending);
     the remaining replaced leaves are unlinked from their own parents. *)
  if r.Relex.replaced > 0 || Array.length new_terms > 0 then begin
    let anchor =
      if r.Relex.first < n then leaf t r.Relex.first else eos_of t
    in
    let insert_parent = parent_of anchor in
    let insert_at = index_in_parent insert_parent anchor in
    (* Unlink replaced leaves.  The anchor's slot index was captured above;
       removing the anchor first keeps [insert_at] pointing at its spot. *)
    for i = r.Relex.first to r.Relex.first + r.Relex.replaced - 1 do
      Node.mark_changed (fst (remove_from_parent (leaf t i)))
    done;
    Node.splice_kids insert_parent ~at:insert_at ~del:0 new_terms;
    Array.iter Node.mark_changed new_terms;
    Node.mark_changed insert_parent
  end;
  (match r.Relex.trailing with
  | Some trailing -> set_trailing t trailing
  | None -> ());
  (* The lookahead bound stays exact: the new tokens may raise it; when
     the last leaf holding it goes (an unterminated comment opener is
     closed, say) it is recomputed, one pass over the leaves. *)
  let new_la, new_holders =
    max_count (Array.length new_terms) (Array.get new_terms)
  in
  let lost = ref 0 in
  for i = r.Relex.first to r.Relex.first + r.Relex.replaced - 1 do
    if lex_la (leaf t i) = t.la_bound then incr lost
  done;
  Gap.replace t.leaves ~at:r.Relex.first ~del:r.Relex.replaced new_terms;
  if new_la > t.la_bound then begin
    t.la_bound <- new_la;
    t.la_holders <- new_holders
  end
  else begin
    t.la_holders <-
      t.la_holders - !lost + if new_la = t.la_bound then new_holders else 0;
    if t.la_holders = 0 then begin
      let m, k = max_count (token_count t) (leaf t) in
      t.la_bound <- m;
      t.la_holders <- k
    end
  end;
  (* Splice the index: the prefix stays, the new tokens' offsets follow
     from the first replaced leaf's, and the suffix moves by whatever the
     replacement changed its start by.  Line starts up to [pos] stay,
     those in the deleted bytes go, the inserted text's follow. *)
  let first = r.Relex.first in
  let ends = Array.make (Array.length new_terms) 0 in
  let off = ref (leaf_start t first) in
  List.iteri
    (fun i tok ->
      off := !off + token_length tok;
      ends.(i) <- !off)
    r.Relex.tokens;
  Gap.Ints.replace t.starts ~at:(first + 1) ~del:r.Relex.replaced ends
    ~shift:(!off - leaf_start t (first + r.Relex.replaced));
  let lo = line_of t pos and hi = line_of t (pos + del) in
  let inserted = Array.make (count_newlines insert) 0 in
  ignore (fill_line_starts inserted ~at:0 ~base:pos insert);
  Gap.Ints.replace t.bols ~at:lo ~del:(hi - lo) inserted ~shift:(ins - del);
  t.text <- new_text;
  r.Relex.replaced

let changed_tokens t =
  let acc = ref [] in
  for i = token_count t - 1 downto 0 do
    let l = leaf t i in
    if Node.changed l then acc := l :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Error-isolation surgery (local error recovery).                     *)

type detach = { d_leaf : Node.t; d_parent : Node.t; d_index : int }

let detach_leaves t ~lo ~hi =
  if lo < 0 || hi >= token_count t || lo > hi then
    invalid_arg "Document.detach_leaves: bad range";
  let undo = ref [] in
  for i = lo to hi do
    let d_leaf = leaf t i in
    let p, idx = remove_from_parent d_leaf in
    Node.mark_changed p;
    undo := { d_leaf; d_parent = p; d_index = idx } :: !undo
  done;
  !undo

let reattach undo =
  (* [undo] is in reverse removal order (a stack), so a single forward
     pass replays the exact inverse operations. *)
  List.iter
    (fun { d_leaf; d_parent; d_index } ->
      Node.splice_kids d_parent ~at:d_index ~del:0 [| d_leaf |];
      Node.mark_changed d_parent)
    undo

(* [a]'s parent [c] is a choice: put [a], the on-path alternative, in
   [c]'s slot.  Counts stay exact: alternatives share their terminals, and
   a splice below [a] adjusted [c]'s count too.  False when [c] has no
   parent. *)
let flatten_choice (c : Node.t) (a : Node.t) =
  let q = c.Node.parent in
  Node.has_parent c
  && begin
       q.Node.kids.(index_in_parent q c) <- a;
       a.Node.parent <- q;
       true
     end

(* Highest ancestor of [anchor] whose yield still starts at [anchor]:
   splicing just before it puts the error run at statement level rather
   than deep inside the following subtree.  Choice nodes on the way are
   flattened, which guarantees the spliced error node never sits under a
   choice (whose alternatives must agree on one yield). *)
let rec climb_anchor (anchor : Node.t) (a : Node.t) =
  let p = a.Node.parent in
  match p.Node.kind with
  | Node.Root -> a
  | Node.Choice _ -> if flatten_choice p a then climb_anchor anchor a else a
  | _ ->
      if
        match Node.first_terminal p with
        | Some ft -> ft == anchor
        | None -> false
      then climb_anchor anchor p
      else a

let splice_error t ~message ~lo ~hi =
  if lo < 0 || hi >= token_count t || lo > hi then
    invalid_arg "Document.splice_error: bad range";
  let kids = Array.init (hi - lo + 1) (fun k -> leaf t (lo + k)) in
  let e = Node.make_error ~message kids in
  Array.iter
    (fun (k : Node.t) ->
      k.Node.parent <- e;
      Node.clear_changes k)
    kids;
  let anchor =
    if hi + 1 < token_count t then leaf t (hi + 1) else eos_of t
  in
  let a = climb_anchor anchor anchor in
  let p = parent_of a in
  Node.splice_kids p ~at:(index_in_parent p a) ~del:0 [| e |];
  (* Walk to the root: clear states so the spine over an error region
     never state-matches (integration of the flagged run is re-attempted
     on every later reparse, succeeding once the text is repaired), and
     flatten any choice ancestor — the insertion grew this alternative's
     yield, so the alternatives no longer agree; keep the on-path
     interpretation. *)
  let rec fixup (n : Node.t) =
    n.Node.state <- Node.nostate;
    if Node.has_parent n then
      let q = n.Node.parent in
      match q.Node.kind with
      | Node.Choice _ -> if flatten_choice q n then fixup n
      | _ -> fixup q
  in
  fixup p;
  e
