(* Minimal JSON: enough for the bench's machine-readable output and the
   regression gate that reads it back.  No external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing.                                                           *)

let hex = "0123456789abcdef"

(* [s] from [i] on, escaped into [buf]; [s.[start..i-1]] is a run that
   needs no escape, copied whole when it ends. *)
let rec add_escaped buf s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    match String.unsafe_get s i with
    | ('"' | '\\' | '\000' .. '\031') as c ->
        Buffer.add_substring buf s start (i - start);
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c ->
            Buffer.add_string buf "\\u00";
            Buffer.add_char buf hex.[Char.code c lsr 4];
            Buffer.add_char buf hex.[Char.code c land 15]);
        add_escaped buf s (i + 1) (i + 1)
    | _ -> add_escaped buf s start (i + 1)

let add_string buf s =
  Buffer.add_char buf '"';
  add_escaped buf s 0 0;
  Buffer.add_char buf '"'

(* The decimal digits of [-n], for [n <= 0] (so [min_int] needs no
   special case). *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

let float_repr f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
    "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let rec emit buf indent v =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> add_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List vs ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 2));
          emit buf (indent + 2) v)
        vs;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 2));
          add_string buf k;
          Buffer.add_string buf ": ";
          emit buf (indent + 2) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  emit buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Compact single-line rendering, no trailing newline: the framing unit
   of the daemon's newline-delimited protocol (one JSON value per line,
   so an embedded pretty-printer newline would split a message). *)
let rec emit_line buf v =
  match v with
  | Null | Bool _ | Int _ | Float _ | String _ -> emit buf 0 v
  | List [] -> Buffer.add_string buf "[]"
  | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          emit_line buf v)
        vs;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          emit_line buf v)
        fields;
      Buffer.add_char buf '}'

let to_line v =
  let buf = Buffer.create 256 in
  emit_line buf v;
  Buffer.contents buf

let to_file path v = Out_channel.with_open_bin path (fun oc ->
    Out_channel.output_string oc (to_string v))

(* ------------------------------------------------------------------ *)
(* Parsing.                                                            *)

exception Parse of string

(* Whether [word] sits in [s] at [at] (which has room for it). *)
let rec matches_at s at word i =
  i = String.length word
  || (s.[at + i] = word.[i] && matches_at s at word (i + 1))

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at byte %d" msg !pos)) in
  (* Bytes are read in place; ['\000'] past the end starts no token. *)
  let peek () = if !pos < n then String.unsafe_get s !pos else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && matches_at s !pos word 0 then begin
      pos := !pos + m;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let d i =
      match s.[!pos + i] with
      | '0' .. '9' as c -> Char.code c - 48
      | 'a' .. 'f' as c -> Char.code c - 87
      | 'A' .. 'F' as c -> Char.code c - 55
      | _ -> fail "bad \\u escape"
    in
    let v = (d 0 lsl 12) lor (d 1 lsl 8) lor (d 2 lsl 4) lor d 3 in
    pos := !pos + 4;
    v
  in
  (* A [\u] escape's code point, a surrogate pair combined; [!pos] is
     past the [u]. *)
  let code_point () =
    let c = hex4 () in
    if c >= 0xDC00 && c <= 0xDFFF then fail "lone low surrogate"
    else if c >= 0xD800 && c <= 0xDBFF then begin
      if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
        fail "lone high surrogate";
      pos := !pos + 2;
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "lone high surrogate";
      0x10000 + ((c - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else c
  in
  (* The first ['"'] or backslash at or after [i]. *)
  let rec run_end i =
    if i >= n then begin
      pos := n;
      fail "unterminated string"
    end
    else
      match String.unsafe_get s i with
      | '"' | '\\' -> i
      | _ -> run_end (i + 1)
  in
  (* The rest of a string with escapes; [i] ends the run that starts at
     [!pos]. *)
  let rec unescape buf i =
    Buffer.add_substring buf s !pos (i - !pos);
    pos := i + 1;
    if s.[i] = '"' then Buffer.contents buf
    else begin
      let c = if !pos < n then s.[!pos] else '\000' in
      (match c with
      | '"' | '\\' | '/' -> Buffer.add_char buf c
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'u' -> ()
      | _ -> fail "bad escape");
      advance ();
      if c = 'u' then Buffer.add_utf_8_uchar buf (Uchar.of_int (code_point ()));
      unescape buf (run_end !pos)
    end
  in
  (* Runs between escapes are copied whole; a string without escapes is
     one [String.sub]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let i = run_end start in
    if s.[i] = '"' then begin
      pos := i + 1;
      String.sub s start (i - start)
    end
    else unescape (Buffer.create (i - start + 16)) i
  in
  (* A signed run of at most 18 digits is built digit by digit (it
     cannot overflow); any other number token takes the [String.sub]
     path, with [int_of_string]'s and [float_of_string]'s rules. *)
  let parse_number () =
    let start = !pos and neg = peek () = '-' in
    if neg || peek () = '+' then advance ();
    let digits = !pos and v = ref 0 in
    while match peek () with '0' .. '9' -> true | _ -> false do
      v := (10 * !v) + Char.code s.[!pos] - 48;
      advance ()
    done;
    let whole = !pos - digits in
    while is_num_char (peek ()) do advance () done;
    if !pos = digits + whole && whole > 0 && whole <= 18 then
      Int (if neg then - !v else !v)
    else
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin advance (); Obj [] end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); fields ((k, v) :: acc)
            | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin advance (); List [] end
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); elems (v :: acc)
            | ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elems []
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let of_file path =
  of_string (In_channel.with_open_bin path In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* Accessors.                                                          *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List vs -> Some vs | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
