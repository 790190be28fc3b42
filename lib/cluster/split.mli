(** Splitting owner shipments across shards.

    An {!Owner.shipment} partitions cleanly: each keyword group
    (entries + prime) goes to {!Shard_key.of_group}'s shard, and shard
    [i]'s new accumulation value is its {e own} base [Ac_i] lifted by
    its own primes — per-shard accumulators never see another shard's
    primes, which is what keeps Algorithm-5 verification per-shard and
    constant-size. *)

val shipment :
  params:Rsa_acc.params ->
  base_acs:Bigint.t array ->
  Owner.shipment ->
  Owner.shipment array
(** [shipment ~params ~base_acs sh] splits [sh] into
    [Array.length base_acs] per-shard shipments. [base_acs.(i)] is
    shard [i]'s current accumulation value — the params' generator for
    a Build, the shard's live on-chain [Ac_i] for an Insert. Every
    shard gets a shipment (possibly with no groups: its [Ac_i] is then
    unchanged), so Build/Insert fan-outs keep all generations aligned.
    No per-shard shipment carries a witness: a Build's are against the
    whole [sh_ac], so a routed shard warms its own. *)
