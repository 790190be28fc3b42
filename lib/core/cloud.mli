(** The cloud: index storage and the Search protocol (Algorithm 4).

    The cloud walks each search token's trapdoor chain backwards with
    the public permutation, collects every masked index entry, computes
    the multiset hash and prime representative of the result set, and
    produces the RSA membership witness (the verification object).

    The threat model's dishonest behaviours are built in as
    {!misbehavior} modes so tests, examples and benches can demonstrate
    that every deviation is caught on chain and punished via refund. *)

type t

type misbehavior =
  | Honest
  | Drop_result     (** omit one matched record from each claim *)
  | Inject_result   (** add a bogus encrypted record to each claim *)
  | Tamper_result   (** flip a bit in one returned record *)
  | Forge_witness   (** return a perturbed verification object *)
  | Stale_results   (** answer from a pre-insert snapshot of the index *)

val create : acc_params:Rsa_acc.params -> tdp_public:Rsa_tdp.public -> unit -> t
(** An empty cloud. Every verification object comes from a persistent
    {!Witness_tree} over the accumulated primes, which also holds the
    cloud's one copy of them: Insert only appends leaves, and a warm
    witness query is a table lookup instead of a full-size
    exponentiation. *)

val install :
  ?witnesses:Bigint.t list ->
  t ->
  records:string list ->
  primes:Bigint.t list ->
  ac:Bigint.t ->
  unit
(** Add index entries and primes and adopt the new [Ac]. [records] are
    packed 32-byte [l ‖ d] records ({!Enc_index.install}): a shipment's
    groups' [kg_entries] ({!install_shipment}), or one string for a
    snapshot's merged view ({!sorted_records}, with {!primes} and
    {!current_ac}). [witnesses], one per prime against [ac], become the
    new primes' served witnesses ({!Witness_tree.append}), unchecked.
    [Stale_results] mode answers from the state before the most recent
    install.
    @raise Invalid_argument, before anything is installed, when
    [witnesses] is neither empty nor one per prime, or when the index
    refuses [records] ({!Enc_index.install}: a record that is not
    whole, or a position held or repeated). *)

val install_shipment : t -> Owner.shipment -> unit
(** {!install} of a Build/Insert shipment's groups, primes, witnesses
    and [sh_ac]. A Build's witnesses come from the owner, who keeps the
    accumulator's factors, so the cloud's witness warm finds every leaf
    fresh and computes nothing.
    @raise Invalid_argument as {!install}. *)

val set_behavior : t -> misbehavior -> unit

(** {2 Snapshot export}

    The merged view of every shipment installed so far — feeding these
    back through {!install} on a fresh cloud reproduces the same index,
    prime multiset and [Ac]. *)

val sorted_records : t -> string
(** All index entries as packed [l ‖ d] records, sorted by position
    ({!Enc_index.sorted_records}). *)

val primes : t -> Bigint.t list
(** The accumulated prime multiset, in installation order: the witness
    tree's leaves ({!Witness_tree.leaves}). *)

val current_ac : t -> Bigint.t
(** The accumulation value the cloud currently answers under. *)

val search : t -> Slicer_types.search_token list -> Slicer_contract.claim list
(** Algorithm 4, one claim per token, with any configured misbehaviour
    applied. Each claim's [hint] is the {!Prime_rep.offset} of the
    prime its witness was made for. An honest cloud answers a repeated
    token from its claim cache; the other tokens go through the claim
    step together: Algorithm 4 and the claim input, then one
    {!Prime_rep.to_primes} over all the inputs (the fresh walks spread
    across the pool), then the witnesses. Each claim's results are
    timed as the [cloud.collect] span inside the whole search's
    [cloud.search] span, so the paper's Fig. 5 split reads off the two
    histograms: result generation is [cloud.collect], VO generation
    the rest. *)

val search_batched :
  t -> Slicer_types.search_token list -> Slicer_contract.claim list * Bigint.t
(** Like {!search}, but all claims share one batched membership witness
    ([Rsa_acc.batch_witness]): a single 64-byte object for a whole
    order search, instead of one per slice. Every token goes through
    the claim step; the claim cache is not consulted. The per-claim
    [witness] fields are placeholders; the second component is the batch
    object for [Slicer_contract.submit_result_batched]. *)

val precompute_witnesses : t -> unit
(** Warm every witness at once ([Witness_tree.warm_all]), which
    returns at once when every leaf is fresh. The warmth survives later
    {!install}s: only the stale leaves are lazily re-based.

    {!install}, this warm and {!restore_witness_index} each bring the
    gauges [slicer_cloud_index_bytes] ({!Enc_index.capacity_bytes}) and
    [slicer_witness_tree_bytes] ({!Witness_tree.size_bytes}) up to date
    by this cloud's change since its last report, so the clouds of one
    process sum. *)

(** {2 Witness-index introspection and snapshotting} *)

val witness_index_stats : t -> Witness_tree.stats

val export_witness_index : t -> string
(** Compact serialized warm state (leaf witnesses + generation stamps)
    for the service snapshot. *)

val restore_witness_index : t -> string -> int option
(** Graft an exported blob onto the index rebuilt by {!install} replay:
    restored leaves serve identical witnesses without recomputation.
    Returns the number of leaves absorbed; [None] for an empty or
    foreign blob. *)

val index_entries : t -> int
val index_bytes : t -> int
(** Fig. 4a metric. *)

val ads_bytes : t -> int
(** Fig. 4b metric: the prime list (34 bytes per 272-bit prime). *)

val prime_count : t -> int
