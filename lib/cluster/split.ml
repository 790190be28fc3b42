let shipment ~params ~base_acs (sh : Owner.shipment) =
  let shards = Array.length base_acs in
  if shards < 1 then invalid_arg "Split.shipment: base_acs must be non-empty";
  (* Collect each shard's groups in shipment order, so each per-shard
     shipment keeps the owner's keyword order. *)
  let buckets = Array.make shards [] in
  List.iter
    (fun g ->
      let s = Shard_key.of_group ~shards g in
      buckets.(s) <- g :: buckets.(s))
    sh.Owner.sh_groups;
  Array.mapi
    (fun i bucket ->
      let groups = List.rev bucket in
      (* Ac_i' = Ac_i ^ (prod primes_i): shard i's accumulator is lifted
         only by its own keywords' primes. An empty slice leaves Ac_i
         unchanged (empty product). *)
      let ac =
        Rsa_acc.add_batch params base_acs.(i) (List.map (fun g -> g.Owner.kg_prime) groups)
      in
      { Owner.sh_groups = groups; sh_ac = ac })
    buckets
