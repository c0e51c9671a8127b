type entry = {
  doc : string;
  lang_name : string;
  lang : Languages.Language.t;
  mutable session : Iglr.Session.t;
  mutable committed_text : string;
  mutable poisoned : bool;
  mutable analysis : Semantics.Diag.t option;
}

type t = { m : Mutex.t; tbl : (string, entry) Hashtbl.t }

let m_quarantined = Metrics.counter "server.quarantined"
let m_rebuilt = Metrics.counter "server.rebuilt"

let create () = { m = Mutex.create (); tbl = Hashtbl.create 16 }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let add t entry = locked t (fun () -> Hashtbl.replace t.tbl entry.doc entry)
let find t doc = locked t (fun () -> Hashtbl.find_opt t.tbl doc)
let remove t doc = locked t (fun () -> Hashtbl.remove t.tbl doc)

let ids t =
  locked t (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] |> List.sort compare)

let size t = locked t (fun () -> Hashtbl.length t.tbl)

(* Quarantine: a session that let an exception escape a mutating entry
   point may hold a half-updated document, so it can no longer be
   trusted.  [poison] marks it; [heal] rebuilds a fresh session from the
   entry's last committed text.  Both are cheap flags/replacements — the
   expensive rebuild happens lazily, on the next request that touches
   the document, under the scheduler's per-document ordering. *)

let poison t doc =
  match find t doc with
  | None -> ()
  | Some e ->
      if not e.poisoned then Metrics.incr m_quarantined;
      e.poisoned <- true

let poisoned t = locked t (fun () ->
    Hashtbl.fold (fun k e acc -> if e.poisoned then k :: acc else acc) t.tbl []
    |> List.sort compare)

let commit_text e text = e.committed_text <- text

let heal e =
  let session, _ =
    Iglr.Session.create
      ~budget:(Iglr.Session.budget e.session)
      ~table:(Languages.Language.table e.lang)
      ~lexer:(Languages.Language.lexer e.lang)
      e.committed_text
  in
  e.session <- session;
  (* The analyzers' commit subscription died with the old session; the
     next diag request rebuilds them from scratch. *)
  e.analysis <- None;
  e.poisoned <- false;
  Metrics.incr m_rebuilt
