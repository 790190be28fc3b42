type t = {
  u_keys : Keys.user_keys;
  u_kprf : Keys.prf; (* keyed context for K: one key block per user, not per token *)
  u_width : int;
  mutable trapdoors : Owner.trapdoor_state;
}

let create ~keys ~width state =
  { u_keys = keys; u_kprf = Keys.prf_of_key keys.Keys.u_k; u_width = width; trapdoors = state }

let update_state t state = t.trapdoors <- state

let gen_tokens ~rng t q =
  let keywords =
    match q.Slicer_types.q_cond with
    | Slicer_types.Eq ->
      [ Bitvec.equality_keyword ~attr:q.Slicer_types.q_attr ~width:t.u_width q.Slicer_types.q_value ]
    | Slicer_types.Gt ->
      Sore.shuffle ~rng
        (Bitvec.token_tuples ~attr:q.Slicer_types.q_attr ~width:t.u_width q.Slicer_types.q_value Bitvec.Gt)
    | Slicer_types.Lt ->
      Sore.shuffle ~rng
        (Bitvec.token_tuples ~attr:q.Slicer_types.q_attr ~width:t.u_width q.Slicer_types.q_value Bitvec.Lt)
  in
  List.filter_map
    (fun w ->
      match Hashtbl.find_opt t.trapdoors w with
      | None -> None
      | Some (trapdoor, j) ->
        Some
          { Slicer_types.st_trapdoor = trapdoor;
            st_updates = j;
            st_g1 = Keys.g1_keyed t.u_kprf w;
            st_g2 = Keys.g2_keyed t.u_kprf w })
    keywords

let decrypt_results t ers =
  List.map (Keys.decrypt_record_id ~k_r:t.u_keys.Keys.u_k_r) ers

