type t = {
  next : int array;  (* state * 256 + byte -> target, -1 = stuck *)
  rules : int array;  (* state -> accepted rule, -1 = none *)
}

let num_states t = Array.length t.rules

let make ~next ~accept =
  if Array.length next <> Array.length accept then
    invalid_arg "Dfa.make: table length mismatch";
  let n = Array.length next in
  let flat = Array.make (n * 256) (-1) in
  Array.iteri
    (fun s row ->
      if Array.length row <> 256 then invalid_arg "Dfa.make: row length";
      Array.blit row 0 flat (s * 256) 256)
    next;
  { next = flat;
    rules = Array.map (function Some r -> r | None -> -1) accept }

let next t s c = t.next.((s lsl 8) lor Char.code c)
let accept t s = match t.rules.(s) with -1 -> None | r -> Some r
let transitions t = t.next
let rules t = t.rules

let of_nfa nfa =
  let index : (int array, int) Hashtbl.t = Hashtbl.create 64 in
  let states = ref [] in
  let count = ref 0 in
  let worklist = Queue.create () in
  let intern set =
    match Hashtbl.find_opt index set with
    | Some id -> id
    | None ->
        let id = !count in
        incr count;
        Hashtbl.replace index set id;
        states := (id, set) :: !states;
        Queue.add (id, set) worklist;
        id
  in
  let start_set = Nfa.eps_closure nfa [ Nfa.start nfa ] in
  let (_ : int) = intern start_set in
  let rows = ref [] in
  while not (Queue.is_empty worklist) do
    let id, set = Queue.pop worklist in
    let row = Array.make 256 (-1) in
    for c = 0 to 255 do
      let targets = Nfa.step nfa set (Char.chr c) in
      if targets <> [] then begin
        let closure = Nfa.eps_closure nfa targets in
        row.(c) <- intern closure
      end
    done;
    rows := (id, row) :: !rows
  done;
  let n = !count in
  let next = Array.make n [||] in
  List.iter (fun (id, row) -> next.(id) <- row) !rows;
  let accept = Array.make n None in
  List.iter
    (fun (id, set) ->
      accept.(id) <-
        Array.fold_left
          (fun acc s ->
            match Nfa.accept_rule nfa s with
            | Some r -> (
                match acc with Some r' -> Some (min r r') | None -> Some r)
            | None -> acc)
          None set)
    !states;
  make ~next ~accept
