(** Persistent, incrementally maintained witness index.

    An append-only array of the accumulator's primes (its leaves) under
    a segment tree in which every node carries a lazily maintained
    {e base} — the generator raised to the product of all leaves
    outside the node's range. A leaf's base is exactly its membership
    witness, so the per-query witness cost drops from one full-size
    exponentiation to a table lookup once a leaf is warm.

    The tree keeps what costs exponentiations to make, the leaves, the
    bases and their generation stamps, and no product: a product is
    bigint multiplies over a range of leaves, made where it is needed.
    {!append} writes leaves only. A stale cached base is brought current
    by ONE exponentiation with the product of the leaves appended
    outside its range since its stamp. A cold base is computed by a
    single descent step from its (recursively refreshed) parent, by the
    product of its sibling's leaves. {!warm_all} builds one transient
    product tree over the leaves per warm.

    Every value served is identical — byte for byte — to what the
    from-scratch paths ({!Rsa_acc.mem_witness},
    {!Rsa_acc.batch_witness}, {!Rsa_acc.all_witnesses}) compute, at
    every pool size. Operations are mutex-guarded; internal pool
    fan-out writes disjoint slots only. *)

type t

val create : Rsa_acc.params -> t

val leaf_count : t -> int
(** Number of accumulated primes (the tree's current generation). *)

val leaves : t -> int -> Bigint.t list
(** [leaves t n] is the first [n] primes appended (all of them when [n]
    exceeds {!leaf_count}), in append order: the cloud's one copy of its
    prime sequence. *)

val append : ?witnesses:Bigint.t list -> t -> Bigint.t list -> unit
(** Append a shipment's primes as leaves: no product and no witness
    work.
    [witnesses] (default none), one per prime and each against the
    accumulator after the append, are grafted as the new leaves' bases
    stamped at the new generation, unchecked: a Build's witnesses from
    the owner serve at once.
    @raise Invalid_argument when [witnesses] is neither empty nor one
    per prime; the tree is then unchanged. *)

val witness : t -> Bigint.t -> Bigint.t option
(** Membership witness for a prime, or [None] when it was never
    appended. Warm: a lookup. Stale: one delta exponentiation.
    Cold: one root-split descent (the [mem_witness] cost: the sibling
    ranges on the path multiplied from their leaves, one exponentiation
    per level), after which the whole path stays warm. *)

val ac : t -> Bigint.t
(** The accumulation value of the maintained multiset, its exponent
    multiplied from the leaves (cached per generation). Empty tree: the
    generator. *)

val batch_witness : t -> Bigint.t list -> Bigint.t
(** Batched witness [g^(P / Π subset)] for distinct member primes,
    combined from the per-leaf witnesses by balanced Shamir pairing —
    exponent work independent of the multiset size. Duplicate subset
    elements fall back to the exact-division path over the root product,
    multiplied from the leaves (multiset semantics preserved). The empty subset
    yields {!ac}.
    @raise Invalid_argument when some element is not a member (same
    contract as {!Rsa_acc.batch_witness}). *)

val warm_all : t -> unit
(** Compute every base in one pool-parallel root-splitting descent over
    a product tree built for this warm and dropped after it — the
    persistent-index analogue of {!Rsa_acc.all_witnesses}. Returns at
    once, building nothing, when every leaf is already fresh. *)

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
(** Approximate heap footprint: each leaf and each cached base at its
    byte length plus 16, and one word per slot of the leaf, base and
    stamp arrays ([5 * cap] slots for a capacity of [cap] leaves, the
    leaf count rounded up to a power of two). *)

val export : t -> string
(** Compact serialized form: the leaf witnesses with their generation
    stamps (the leaves themselves come back from the prime multiset
    the service snapshot carries). *)

val absorb : t -> string -> int option
(** Graft an {!export} blob onto a tree rebuilt over the same leaf
    sequence, by the same graft as {!append}'s witnesses: restored
    leaves serve witnesses again without any recomputation. Entries
    that do not fit the current tree are skipped; returns the number
    absorbed, or [None] when the blob is not a witness-tree export. *)
