let random_prime_of_bits ~rng bits =
  (* A uniform prime of exactly [bits] bits, like the leaked |x|. *)
  Primegen.next_prime (Drbg.bits rng bits)

let simulate_build ~rng (leak : Leakage.build_leakage) =
  let bytes_of_bits b = (b + 7) / 8 in
  (* One packed [l ‖ d] record per entry. *)
  let entry () =
    Drbg.generate rng (bytes_of_bits leak.Leakage.bl_position_bits)
    ^ Drbg.generate rng (bytes_of_bits leak.Leakage.bl_payload_bits)
  in
  (* One group per prime, with the p entries dealt out as evenly as the
     q groups allow; a group's G1 key is a 128-bit PRF output. *)
  let p = leak.Leakage.bl_entry_count and q = leak.Leakage.bl_prime_count in
  let groups =
    List.init q (fun i ->
        let kg_g1 = Drbg.generate rng 16 in
        let kg_entries =
          String.concat "" (List.init ((((i + 1) * p) / q) - ((i * p) / q)) (fun _ -> entry ()))
        in
        { Owner.kg_g1; kg_entries; kg_prime = random_prime_of_bits ~rng leak.Leakage.bl_prime_bits })
  in
  (* Group elements of the modulus's width: [Ac] and, for a Build, one
     witness per prime. *)
  let element () = Bigint.succ (Drbg.bits rng 511) in
  let ac = element () in
  { Owner.sh_groups = groups; sh_ac = ac;
    sh_witnesses = List.init leak.Leakage.bl_witness_count (fun _ -> element ()) }

let simulate_search ~rng (leak : Leakage.search_leakage) =
  let result_bytes = (leak.Leakage.sl_result_bits + 7) / 8 in
  let tokens =
    List.map
      (fun j ->
        { Slicer_types.st_trapdoor = Drbg.generate rng 64;
          st_updates = j;
          st_g1 = Drbg.generate rng 16;
          st_g2 = Drbg.generate rng 16 })
      leak.Leakage.sl_generations
  in
  (* Pad or trim the per-token counts to the token list (honest runs
     have equal lengths; the simulator just follows the leakage). *)
  let counts = leak.Leakage.sl_result_counts in
  (* A hint is public: the offset of the prime the claim's own token
     and results walk to, as the cloud derives it. *)
  let claims =
    List.mapi
      (fun i st ->
        let count = match List.nth_opt counts i with Some c -> c | None -> 0 in
        let token_bytes = Slicer_types.token_bytes st in
        let results = List.init count (fun _ -> Drbg.generate rng result_bytes) in
        { Slicer_contract.token_bytes; results; witness = Bigint.succ (Drbg.bits rng 511);
          hint =
            Prime_rep.offset
              (Prime_rep.to_prime_uncached (Slicer_contract.claim_input ~token_bytes results)) })
      tokens
  in
  (tokens, claims)
