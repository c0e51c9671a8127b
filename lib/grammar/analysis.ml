type t = {
  nullable : bool array;
  first : Bitset.t array;
  follow : Bitset.t array;
  num_terminals : int;
}

let nullable a nt = a.nullable.(nt)
let first a nt = a.first.(nt)
let follow a nt = a.follow.(nt)

let symbol_nullable a = function
  | Cfg.T _ -> false
  | Cfg.N n -> a.nullable.(n)

let compute_nullable g =
  let nn = Cfg.num_nonterminals g in
  let nullable = Array.make nn false in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (p : Cfg.production) ->
        if
          (not nullable.(p.lhs))
          && Array.for_all
               (function Cfg.T _ -> false | Cfg.N n -> nullable.(n))
               p.rhs
        then begin
          nullable.(p.lhs) <- true;
          changed := true
        end)
      (Cfg.productions g)
  done;
  nullable

let compute_first g nullable =
  let nn = Cfg.num_nonterminals g in
  let nt = Cfg.num_terminals g in
  let first = Array.init nn (fun _ -> Bitset.create nt) in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (p : Cfg.production) ->
        let target = first.(p.lhs) in
        let rec scan i =
          if i < Array.length p.rhs then
            match p.rhs.(i) with
            | Cfg.T t ->
                if not (Bitset.mem target t) then begin
                  Bitset.add target t;
                  changed := true
                end
            | Cfg.N n ->
                if Bitset.union_into ~into:target first.(n) then
                  changed := true;
                if nullable.(n) then scan (i + 1)
        in
        scan 0)
      (Cfg.productions g)
  done;
  first

let first_of_word_sets ~num_terminals ~nullable ~first rhs ~from =
  let set = Bitset.create num_terminals in
  let rec scan i =
    if i >= Array.length rhs then true
    else
      match rhs.(i) with
      | Cfg.T t ->
          Bitset.add set t;
          false
      | Cfg.N n ->
          ignore (Bitset.union_into ~into:set first.(n));
          if nullable.(n) then scan (i + 1) else false
  in
  let eps = scan from in
  (set, eps)

let compute_follow g nullable first =
  let nn = Cfg.num_nonterminals g in
  let nt = Cfg.num_terminals g in
  let follow = Array.init nn (fun _ -> Bitset.create nt) in
  Bitset.add follow.(Cfg.start g) Cfg.eof;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (p : Cfg.production) ->
        Array.iteri
          (fun i sym ->
            match sym with
            | Cfg.T _ -> ()
            | Cfg.N n ->
                let rest_first, rest_eps =
                  first_of_word_sets ~num_terminals:nt ~nullable ~first p.rhs
                    ~from:(i + 1)
                in
                if Bitset.union_into ~into:follow.(n) rest_first then
                  changed := true;
                if rest_eps then
                  if Bitset.union_into ~into:follow.(n) follow.(p.lhs) then
                    changed := true)
          p.rhs)
      (Cfg.productions g)
  done;
  follow

let compute g =
  let nullable = compute_nullable g in
  let first = compute_first g nullable in
  let follow = compute_follow g nullable first in
  { nullable; first; follow; num_terminals = Cfg.num_terminals g }

let first_of_word _g a rhs ~from =
  first_of_word_sets ~num_terminals:a.num_terminals ~nullable:a.nullable
    ~first:a.first rhs ~from

let pp g ppf a =
  let pp_terms ppf s =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
         (fun ppf t -> Format.pp_print_string ppf (Cfg.terminal_name g t)))
      (Bitset.elements s)
  in
  for n = 0 to Cfg.num_nonterminals g - 1 do
    Format.fprintf ppf "%s: nullable=%b first=%a follow=%a@."
      (Cfg.nonterminal_name g n)
      a.nullable.(n) pp_terms a.first.(n) pp_terms a.follow.(n)
  done
