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

val create :
  ?witness_index:bool -> acc_params:Rsa_acc.params -> tdp_public:Rsa_tdp.public -> unit -> t
(** [~witness_index] (default [true]) maintains a persistent
    {!Witness_tree} over the accumulated primes: Insert only recomputes
    the O(log n) product spine, and a warm witness query is a table
    lookup instead of a full-size exponentiation. [false] falls back to
    the shared-product context for every VO. *)

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

val search_one : t -> Slicer_types.search_token -> Slicer_contract.claim
(** Algorithm 4 for a single token (with any configured misbehaviour
    applied). *)

val search : t -> Slicer_types.search_token list -> Slicer_contract.claim list

val search_batched :
  t -> Slicer_types.search_token list -> Slicer_contract.claim list * Bigint.t
(** Like {!search}, but all claims share one batched membership witness
    ([Rsa_acc.batch_witness]): one accumulator pass and a single
    64-byte object for a whole order search, instead of one per slice.
    The per-claim [witness] fields are placeholders; the second
    component is the batch object for
    [Slicer_contract.submit_result_batched]. *)

type search_timings = { result_seconds : float; vo_seconds : float }

val search_instrumented :
  t -> Slicer_types.search_token list -> Slicer_contract.claim list * search_timings
(** {!search} with the wall-clock split the paper's Fig. 5 reports:
    result generation (index traversal and unmasking) versus
    verification-object generation (multiset hash, prime representative
    and RSA witness). *)

val precompute_witnesses : t -> unit
(** Warm every witness at once: with the index enabled this is
    [Witness_tree.warm_all] (and the warmth {e survives} later
    {!install}s — only the stale leaves are lazily re-based); without
    it, the legacy one-shot table from [Rsa_acc.all_witnesses],
    invalidated by the next {!install}. *)

val warm_tokens : t -> Slicer_types.search_token list -> unit
(** Speculative warmer driven from the query stream: batch-derive (and
    cache) the claim primes these tokens will need and touch their
    witness-index leaves, so the subsequent {!search} serves VOs from
    warm state. No-op for a misbehaving cloud (perturbed results make
    speculation useless). *)

(** {2 Witness-index introspection and snapshotting} *)

val witness_index_stats : t -> Witness_tree.stats option
(** [None] when the index is disabled (or not yet built). *)

val witness_index_bytes : t -> int
(** Approximate heap footprint of the maintained index (0 if disabled). *)

val export_witness_index : t -> string
(** Compact serialized warm state (leaf witnesses + generation stamps)
    for the service snapshot; [""] when the index is disabled. *)

val restore_witness_index : t -> string -> int option
(** Graft an exported blob onto the index rebuilt by {!install} replay:
    restored leaves serve identical witnesses without recomputation.
    Returns the number of leaves absorbed; [None] for an empty/foreign
    blob or when the index is disabled. *)

val index_entries : t -> int
val index_bytes : t -> int
(** Fig. 4a metric. *)

val ads_bytes : t -> int
(** Fig. 4b metric: the prime list (34 bytes per 272-bit prime). *)

val prime_count : t -> int
