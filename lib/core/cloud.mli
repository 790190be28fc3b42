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
    {!Witness_tree} over the accumulated primes: Insert only recomputes
    the O(log n) product spine, and a warm witness query is a table
    lookup instead of a full-size exponentiation. *)

val install :
  t -> entries:(string * string) list -> primes:Bigint.t list -> ac:Bigint.t -> unit
(** Add index entries and primes and adopt the new [Ac]: a Build/Insert
    shipment's {!Owner.shipment_entries}, {!Owner.shipment_primes} and
    [sh_ac], or a snapshot's merged view ({!entries}, {!primes},
    {!current_ac}). [Stale_results] mode answers from the state before
    the most recent install. *)

val set_behavior : t -> misbehavior -> unit
val behavior : t -> misbehavior

(** {2 Snapshot export}

    The merged view of every shipment installed so far — feeding these
    back through {!install} on a fresh cloud reproduces the same index,
    prime multiset and [Ac]. *)

val entries : t -> (string * string) list
(** All index entries [(l, d)], deterministically sorted. *)

val primes : t -> Bigint.t list
(** The accumulated prime multiset, in installation order. *)

val current_ac : t -> Bigint.t
(** The accumulation value the cloud currently answers under. *)

val search : t -> Slicer_types.search_token list -> Slicer_contract.claim list
(** Algorithm 4, one claim per token, with any configured misbehaviour
    applied. Each claim's results are timed as the [cloud.collect]
    span inside the whole search's [cloud.search] span, so the paper's
    Fig. 5 split reads off the two histograms: result generation is
    [cloud.collect], VO generation the rest. An honest cloud answers a
    repeated token from its claim cache. *)

val search_batched :
  t -> Slicer_types.search_token list -> Slicer_contract.claim list * Bigint.t
(** Like {!search}, but all claims share one batched membership witness
    ([Rsa_acc.batch_witness]): a single 64-byte object for a whole
    order search, instead of one per slice. The per-claim [witness]
    fields are placeholders; the second component is the batch object
    for [Slicer_contract.submit_result_batched]. *)

val precompute_witnesses : t -> unit
(** Warm every witness at once ([Witness_tree.warm_all]). The warmth
    survives later {!install}s: only the stale leaves are lazily
    re-based. *)

val warm_tokens : t -> Slicer_types.search_token list -> unit
(** Speculative warmer driven from the query stream: batch-derive (and
    cache) the claim primes these tokens will need and touch their
    witness-index leaves, so the subsequent {!search} serves VOs from
    warm state. No-op for a misbehaving cloud (perturbed results make
    speculation useless). *)

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
