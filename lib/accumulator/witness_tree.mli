(** Persistent, incrementally maintained witness index.

    Keeps {!Rsa_acc}'s product/root-split tree alive across operations:
    a product segment tree over the accumulator's append-only prime
    multiset in which every node also carries a lazily maintained
    {e base} — the generator raised to the product of all leaves
    outside the node's range. A leaf's base is exactly its membership
    witness, so the per-query witness cost drops from one full-size
    exponentiation to a table lookup once a leaf is warm.

    Maintenance is generation-stamped: {!append} only recomputes the
    O(log n) product spine above the new leaves (bigint multiplies, no
    exponentiations), and a stale cached base is brought current by ONE
    exponentiation with the product of the leaves appended outside its
    range since its stamp. Cold bases are computed by a single descent
    step from their (recursively refreshed) parent.

    Every value served is identical — byte for byte — to what the
    from-scratch paths ({!Rsa_acc.mem_witness},
    {!Rsa_acc.batch_witness}, {!Rsa_acc.all_witnesses}) compute, at
    every pool size. Operations are mutex-guarded; internal pool
    fan-out writes disjoint slots only. *)

type t

val create : Rsa_acc.params -> t

val leaf_count : t -> int
(** Number of accumulated primes (the tree's current generation). *)

val append : ?witnesses:Bigint.t list -> t -> Bigint.t list -> unit
(** Append a shipment's primes: O(log n) spine products recomputed (one
    multiply per level, wide levels pool-parallel), no witness work.
    [witnesses] (default none), one per prime and each against the
    accumulator after the append, are grafted as the new leaves' bases
    stamped at the new generation, unchecked: a Build's witnesses from
    the owner serve at once.
    @raise Invalid_argument when [witnesses] is neither empty nor one
    per prime; the tree is then unchanged. *)

val witness : t -> Bigint.t -> Bigint.t option
(** Membership witness for a prime, or [None] when it was never
    appended. Warm: a lookup. Stale: one delta exponentiation.
    Cold: one root-split descent (the [mem_witness] cost), after which
    the whole path stays warm. *)

val ac : t -> Bigint.t
(** The accumulation value of the maintained multiset (cached per
    generation). Empty tree: the generator. *)

val batch_witness : t -> Bigint.t list -> Bigint.t
(** Batched witness [g^(P / Π subset)] for distinct member primes,
    combined from the per-leaf witnesses by balanced Shamir pairing —
    exponent work independent of the multiset size. Duplicate subset
    elements fall back to the exact-division path over the maintained
    root product (multiset semantics preserved). The empty subset
    yields {!ac}.
    @raise Invalid_argument when some element is not a member (same
    contract as {!Rsa_acc.batch_witness}). *)

val warm_all : t -> unit
(** Compute every base in one pool-parallel root-splitting descent over
    the maintained products — the persistent-index analogue of
    {!Rsa_acc.all_witnesses}. Returns at once when every leaf is
    already fresh. *)

type stats = {
  ws_leaves : int;
  ws_cached : int;      (** leaves holding a cached witness (any stamp) *)
  ws_fresh : int;       (** leaves whose cached witness is current *)
  ws_hits : int;
  ws_refreshes : int;
  ws_cold : int;
  ws_misses : int;
}

val stats : t -> stats
(** Per-tree effectiveness counters; the process-wide aggregates are the
    [slicer_witness_index_*] {!Obs} series. *)

val size_bytes : t -> int
(** Approximate heap footprint of the maintained products and bases. *)

val export : t -> string
(** Compact serialized form: the leaf witnesses with their generation
    stamps (products rebuild from the prime multiset already carried by
    the service snapshot). *)

val absorb : t -> string -> int option
(** Graft an {!export} blob onto a tree rebuilt over the same leaf
    sequence, by the same graft as {!append}'s witnesses: restored
    leaves serve witnesses again without any recomputation. Entries
    that do not fit the current tree are skipped; returns the number
    absorbed, or [None] when the blob is not a witness-tree export. *)
