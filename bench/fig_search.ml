(* Fig. 5 (time cost of Search) and Fig. 6 (overhead generated by
   Search).

   Per width and record count, random equality and order queries are
   executed against the cloud; we report the result-generation and
   VO-generation time split (Fig. 5a-d, read from the [cloud.collect]
   and [cloud.search] spans) and the produced overhead: token count,
   encrypted-result bytes and VO bytes (Fig. 6a-d).

   Paper shapes: equality result generation grows faster at 8 bits
   (denser matches); order VO generation grows with both records and
   width; VO size stays tens of bytes (constant-size RSA witnesses). *)

let measure sys ~cond ~queries =
  let open Bench_common in
  let width = sys.bs_width in
  let totals = ref (0., 0., 0, 0, 0) in
  let measured = ref 0 in
  let record_values = Array.of_list (List.filter_map (fun r -> List.assoc_opt "" r.Slicer_types.fields) sys.bs_records) in
  let draw () =
    (* Equality queries sample values that exist (the paper's equality
       figures measure non-empty result generation); order queries draw
       uniform pivots. *)
    let v =
      match cond with
      | Slicer_types.Eq when Array.length record_values > 0 ->
        record_values.(Drbg.uniform_int sys.bs_rng (Array.length record_values))
      | _ -> Drbg.uniform_int sys.bs_rng (1 lsl width)
    in
    User.gen_tokens ~rng:sys.bs_rng sys.bs_user (Slicer_types.query v cond)
  in
  (* A query the claim cache answered, even in part, is redrawn, so
     every point times Algorithm 4 rather than a memo lookup. *)
  let rec fresh_search attempts =
    if attempts = 0 then None
    else
      let tokens = draw () in
      match timed_search sys.bs_cloud tokens with
      | Some (claims, rt, vt) -> Some (tokens, claims, rt, vt)
      | None -> fresh_search (attempts - 1)
  in
  for _ = 0 to queries - 1 do
    match fresh_search 64 with
    | None -> ()
    | Some (tokens, claims, rt', vt') ->
      let result_bytes =
        List.fold_left
          (fun n (c : Slicer_contract.claim) ->
            n + List.fold_left (fun m r -> m + String.length r) 0 c.Slicer_contract.results)
          0 claims
      in
      let vo_bytes =
        List.fold_left
          (fun n (c : Slicer_contract.claim) ->
            n + String.length (Bigint.to_bytes_be c.Slicer_contract.witness))
          0 claims
      in
      let rt, vt, tk, rb, vb = !totals in
      incr measured;
      totals := (rt +. rt', vt +. vt', tk + List.length tokens, rb + result_bytes, vb + vo_bytes)
  done;
  let rt, vt, tk, rb, vb = !totals in
  let f = float_of_int (max 1 !measured) in
  ( rt /. f,
    vt /. f,
    float_of_int tk /. f,
    float_of_int rb /. f,
    float_of_int vb /. f )

let run (scale : Bench_common.scale) =
  Bench_common.header "Fig. 5 - time cost of Search  /  Fig. 6 - overhead generated by Search";
  Printf.printf
    "(paper: Fig 5a/5b equality result/VO time, Fig 5c/5d order result/VO time;\n\
    \ Fig 6a token count, Fig 6b/6c result size, Fig 6d VO size)\n";
  List.iter
    (fun width ->
      Bench_common.subheader (Printf.sprintf "%d-bit values, equality search" width);
      Bench_common.row_header [ "records"; "result gen"; "VO gen"; "tokens"; "result size"; "VO size" ];
      List.iter
        (fun size ->
          let sys = Bench_common.build_system ~width ~size in
          let rt, vt, tk, rb, vb =
            measure sys ~cond:Slicer_types.Eq ~queries:scale.Bench_common.queries_per_point
          in
          Bench_common.json_row ~figure:"fig5-6" ~series:"equality"
            [ ("records", Bench_common.J_int size);
              ("bits", Bench_common.J_int width);
              ("result_seconds", Bench_common.J_float rt);
              ("vo_seconds", Bench_common.J_float vt);
              ("tokens", Bench_common.J_float tk);
              ("result_bytes", Bench_common.J_float rb);
              ("vo_bytes", Bench_common.J_float vb) ];
          Bench_common.row (string_of_int size)
            [ Bench_common.seconds rt; Bench_common.seconds vt; Printf.sprintf "%.1f" tk;
              Bench_common.kb (int_of_float rb); Printf.sprintf "%.0fB" vb ])
        scale.Bench_common.sizes;
      Bench_common.subheader (Printf.sprintf "%d-bit values, order search" width);
      Bench_common.row_header [ "records"; "result gen"; "VO gen"; "tokens"; "result size"; "VO size" ];
      List.iter
        (fun size ->
          let sys = Bench_common.build_system ~width ~size in
          let rt, vt, tk, rb, vb =
            measure sys ~cond:Slicer_types.Gt ~queries:scale.Bench_common.queries_per_point
          in
          Bench_common.json_row ~figure:"fig5-6" ~series:"order"
            [ ("records", Bench_common.J_int size);
              ("bits", Bench_common.J_int width);
              ("result_seconds", Bench_common.J_float rt);
              ("vo_seconds", Bench_common.J_float vt);
              ("tokens", Bench_common.J_float tk);
              ("result_bytes", Bench_common.J_float rb);
              ("vo_bytes", Bench_common.J_float vb) ];
          Bench_common.row (string_of_int size)
            [ Bench_common.seconds rt; Bench_common.seconds vt; Printf.sprintf "%.1f" tk;
              Bench_common.kb (int_of_float rb); Printf.sprintf "%.0fB" vb ])
        scale.Bench_common.order_sizes)
    scale.Bench_common.widths
