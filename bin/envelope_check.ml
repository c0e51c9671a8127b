(* envelope_check — reads one JSON document on stdin, decodes it with
   Metrics.Json and prints its top-level fields, string values in full
   (schema, tool, language) and other values by name only, so
   `dune build @cli-smoke` can golden-diff the shape of a document whose
   values (timings) vary between runs.  Exits 1 when stdin is not
   exactly one JSON object. *)

module J = Metrics.Json

let () =
  match J.of_string (In_channel.input_all stdin) with
  | J.Obj fields ->
      List.iter
        (function
          | k, J.String v -> Printf.printf "%s: %s\n" k v
          | k, _ -> print_endline k)
        fields
  | _ ->
      prerr_endline "envelope_check: not a JSON object";
      exit 1
  | exception J.Parse m ->
      prerr_endline ("envelope_check: " ^ m);
      exit 1
