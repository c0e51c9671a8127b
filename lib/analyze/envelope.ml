let make ~tool ?language fields =
  let module J = Metrics.Json in
  let fields =
    match language with
    | Some l -> ("language", J.String l) :: fields
    | None -> fields
  in
  J.Obj
    (("schema", J.String "iglr-analysis/1") :: ("tool", J.String tool) :: fields)
