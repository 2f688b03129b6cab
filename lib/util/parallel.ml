let recommended_domains () =
  let d =
    match Sys.getenv_opt "ISAAC_DOMAINS" with
    | Some s -> (match int_of_string_opt s with Some v -> v | None -> 1)
    | None -> Domain.recommended_domain_count ()
  in
  max 1 (min 8 d)

let chunk_sizes ~domains ~total =
  let base = total / domains and extra = total mod domains in
  List.init domains (fun i -> base + if i < extra then 1 else 0)

let run_chunks ~domains ~total f =
  if domains <= 1 || total <= 1 then [ f ~chunk:0 ~offset:0 ~size:total ]
  else begin
    let sizes = chunk_sizes ~domains ~total in
    let offsets =
      let acc = ref 0 in
      List.map (fun s -> let o = !acc in acc := o + s; o) sizes
    in
    let handles =
      List.mapi
        (fun chunk (offset, size) ->
          Domain.spawn (fun () ->
              match f ~chunk ~offset ~size with
              | v -> Ok v
              | exception e -> Error e))
        (List.combine offsets sizes)
    in
    (* Join every domain before surfacing a failure: a worker left running
       after the call returns could still be mutating shared state. *)
    let results = List.map Domain.join handles in
    List.map (function Ok v -> v | Error e -> raise e) results
  end
