(** Prime representatives — the random-oracle-style map [H_prime] of the
    paper (after Barić & Pfitzmann) from byte strings to primes.

    Construction: the SHA-256 digest of the input forms the high 256 bits
    of the candidate and a 16-bit counter the low bits; the counter is
    walked upward until a prime appears: candidates with a factor below
    8192 are sieved out (from the base's residues, taken in one
    {!Bigint.residues} call, by windows of 256 odd offsets), and
    survivors get the deterministic Baillie–PSW test
    ({!Primality.baillie_psw}), about 11.2 a walk, counted in
    [slicer_acc_prime_tests_total].
    Distinct digests occupy disjoint candidate intervals, so collision
    resistance reduces to that of SHA-256. *)

val counter_bits : int
(** Width of the low counter field (16). *)

val to_prime : string -> Bigint.t
(** [to_prime s] is the deterministic 272-bit prime representative of
    [s]. All honest parties (owner, cloud, contract) compute the same
    prime for the same token-and-hash string. Results are memoized in a
    bounded, mutex-guarded process-wide table, so Build/Insert/Search/
    Verify evaluating the same [token‖hash] pay the prime walk once.
    @raise Failure in the cryptographically negligible event that no
    prime lies in the candidate interval. *)

val to_prime_uncached : string -> Bigint.t
(** The walk behind {!to_prime}, bypassing the memo: what one miss
    costs. *)

val to_primes : string list -> Bigint.t list
(** Batch {!to_prime}, preserving order. Uncached inputs are
    deduplicated and their prime walks fanned out across the shared
    domain pool ({!Parallel.pool}) — the walk is a pure function of its
    input, so every returned representative is identical to the
    sequential [List.map to_prime]. This is the owner's per-keyword ADS
    hot path during Build/Insert, and the cloud's claim step. *)

type cache_stats = { cs_entries : int; cs_hits : int; cs_misses : int; cs_limit : int }

val cache_stats : unit -> cache_stats
(** Occupancy and hit counters of the memo table (the table stops
    inserting, but stays correct, at [cs_limit] entries). *)

val is_representative_of : Bigint.t -> string -> bool
(** Checks that a claimed prime is exactly [to_prime s]. *)

val offset : Bigint.t -> int
(** The low {!counter_bits} of a prime: for [to_prime s], its offset
    on [s]'s candidate walk. The cloud sends it as the claim's hint. *)

val of_offset : string -> int -> Bigint.t option
(** [of_offset s j] is [Some p] when [j] is odd, [0 < j < 2^16] and
    [p = base(s) + j] passes Baillie–PSW; [None] otherwise. One test
    instead of a walk, and no minimality check: a prime of [s]'s
    interval other than [to_prime s] was never accumulated, so no
    witness verifies for it. The bound on [j] is what keeps [p] inside
    [s]'s interval, where no other input's prime can lie. When the
    memo holds [to_prime s] at offset [j], that prime is the answer and
    no test runs. A prime found by the test is not memoized. *)
