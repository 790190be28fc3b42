type build_leakage = {
  bl_entry_count : int;
  bl_position_bits : int;
  bl_payload_bits : int;
  bl_prime_count : int;
  bl_prime_bits : int;
  bl_witness_count : int;
}

let of_shipment (sh : Owner.shipment) =
  let entry_count = Owner.shipment_entry_count sh and primes = Owner.shipment_primes sh in
  (* Every entry is a packed [l ‖ d] record of the index's fixed layout. *)
  let position_bits, payload_bits =
    if entry_count = 0 then (0, 0) else (8 * Enc_index.label_len, 8 * Enc_index.payload_len)
  in
  let prime_bits = match primes with x :: _ -> Bigint.num_bits x | [] -> 0 in
  { bl_entry_count = entry_count;
    bl_position_bits = position_bits;
    bl_payload_bits = payload_bits;
    bl_prime_count = List.length primes;
    bl_prime_bits = prime_bits;
    bl_witness_count = List.length sh.Owner.sh_witnesses }

let equal_build a b = a = b

type search_leakage = {
  sl_token_count : int;
  sl_generations : int list;
  sl_result_counts : int list;
  sl_result_bits : int;
}

let of_search tokens claims =
  let result_bits =
    List.concat_map (fun (c : Slicer_contract.claim) -> c.Slicer_contract.results) claims
    |> function
    | r :: _ -> 8 * String.length r
    | [] -> 0
  in
  { sl_token_count = List.length tokens;
    sl_generations = List.map (fun t -> t.Slicer_types.st_updates) tokens;
    sl_result_counts =
      List.map (fun (c : Slicer_contract.claim) -> List.length c.Slicer_contract.results) claims;
    sl_result_bits = result_bits }

let repeat_matrix history =
  let arr = Array.of_list (List.map Slicer_types.token_bytes history) in
  let n = Array.length arr in
  Array.init n (fun i -> Array.init n (fun j -> String.equal arr.(i) arr.(j)))
