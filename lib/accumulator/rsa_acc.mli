(** RSA accumulator (Li, Li & Xue, ACNS 2007 flavour) — the paper's ADS.

    The accumulation value of a set of primes [X] is
    [Ac = g^(Π_{x∈X} x) mod n]; the membership witness for [x] is
    [mw = g^(Π X \ {x}) mod n] and verification checks
    [mw^x = Ac (mod n)]. Witnesses are constant-size (one group
    element), which is what makes on-chain verification cheap.

    {2 Cost model}

    Let [n] be the set size, [b] the prime-representative bit width
    (272) and [B = n·b] the total exponent bits. All generation-side
    operations are batched: prime exponents are combined by a balanced
    {e product tree} (the C Karatsuba product kernel underneath) and the
    single resulting exponent is applied in one sliding-window
    Montgomery ladder on the parameters' {!Bigint.Mont} context —
    the generator [g] is raised the same way as every other base.

    - {!accumulate}: one product tree + one [B]-bit exponentiation of
      [g] — [B] modular squarings, instead of [n] separate
      exponentiations.
    - {!mem_witness}: one exact division of the product plus a
      [(B - b)]-bit exponentiation of [g] — {e not} [n-1]
      exponentiations.
    - {!all_witnesses}: root splitting over the product tree from the
      root's base [g] — [O(B log n)] squaring work, with the two halves
      of every split running on separate domains.
    - Verification ({!verify_mem}, {!verify_mem_batch},
      {!verify_non_mem}) always runs its exponentiations, one [b]-bit
      modexp per claim prime: the contract-side shape and cost are part
      of the protocol being reproduced (Table II's verification row).
      Repeated claims are answered by the claim-level memos above this
      module, never by a cache here.

    Results are bit-identical at every pool size: batching only
    regroups exponent arithmetic ([g^x^y = g^(xy)]), and the pool's
    combinators fix their bracketing from the input size alone. *)

type secret
(** The modulus's factorisation, opened only by {!factors}. *)

type params = private {
  modulus : Bigint.t;   (** RSA modulus [n = p*q]. *)
  generator : Bigint.t; (** A quadratic residue [g ∈ QR_n \ {1}]. *)
  mont : Bigint.Mont.ctx;
      (** The modulus's Montgomery context, a pure function of [modulus]
          built once when the record is: immutable, so a [params] value
          is safe to share across domains. *)
  secret : secret option;
      (** [Some] only on the parameters {!setup} returned, which the
          owner keeps. *)
}

val params_of_parts : modulus:Bigint.t -> generator:Bigint.t -> params
(** Parameters from values received over the wire or from disk: every
    decoder builds them here, so they hold no factorisation. With
    {!setup} the only way to build [params] (the record is private).
    @raise Invalid_argument when the modulus is even or below 3. *)

val setup : ?safe:bool -> rng:Drbg.t -> bits:int -> unit -> params
(** Generates fresh parameters for the owner, who keeps the
    factorisation (the trapdoor) inside them and computes [Ac] and
    witnesses with it. No codec writes it: the wire, the WAL and the
    snapshot carry [(modulus, generator)] only, so the accumulator stays
    trustless for the cloud, the contract and every user. [~safe]
    requests safe primes as in the paper (slower). *)

val factors : params -> (Bigint.t * Bigint.t) option
(** [(p, q)] with [p * q = modulus], on the parameters {!setup}
    returned; [None] on any {!params_of_parts}. Only the owner calls
    it ([scripts/check_alg5.sh] fails any other caller under [lib/] or
    [bin/]). *)

val accumulate : params -> Bigint.t list -> Bigint.t
(** [Ac] for the given prime list (order-independent): {!add_batch}
    from [g], so the empty list accumulates to [g]. *)

val add : params -> Bigint.t -> Bigint.t -> Bigint.t
(** [add params ac x] is the incremental update [ac^x mod n] — used by
    Insert so the owner need not re-accumulate from scratch. *)

val add_batch : params -> Bigint.t -> Bigint.t list -> Bigint.t
(** [add_batch params ac xs] folds a whole shipment in as {e one}
    exponentiation [ac^(Π xs) mod n] — identical to iterating {!add}
    ([g^x^y = g^(xy)]), minus [|xs| - 1] Montgomery setups and ladders. *)

val mem_witness : params -> Bigint.t list -> Bigint.t -> Bigint.t
(** [mem_witness params xs x] is the witness for [x] against
    [accumulate params xs]. [x] must occur in [xs]; exactly one
    occurrence is excluded (computed as the exact division [Π xs / x] of
    the product tree followed by one exponentiation of [g] — see the
    cost model above). For a set queried repeatedly, keep a
    {!Witness_tree} instead.
    @raise Invalid_argument when [x] does not occur. *)

val all_witnesses : params -> Bigint.t list -> (Bigint.t * Bigint.t) list
(** Witnesses for every element by divide-and-conquer root splitting
    over the product tree — [O(B log n)] squarings ([B] = total exponent
    bits) with one exponentiation per tree node instead of one per
    prime per node, and the two halves of every split on separate
    domains. Returns [(x, witness)] pairs in input order. *)

val verify_mem : params -> ac:Bigint.t -> x:Bigint.t -> witness:Bigint.t -> bool
(** The contract-side check [witness^x mod n = ac]: one modexp on
    every call. *)

(** {1 Batched membership}

    A single witness can cover a whole set of member primes:
    [w = g^(Π X \ S)] verifies via [w^(Π S) = Ac]. The cloud uses this
    to answer an order search (up to [b] claims) with {e one}
    accumulator pass and one 64-byte object instead of [b]. *)

val batch_witness : params -> Bigint.t list -> Bigint.t list -> Bigint.t
(** [batch_witness params xs subset] excludes one occurrence of each
    subset element. @raise Invalid_argument when some element does not
    occur. *)

val verify_mem_batch : params -> ac:Bigint.t -> xs:Bigint.t list -> witness:Bigint.t -> bool
(** [witness^(Π xs) = Ac], computed as iterated exponentiation (the
    same shape the metered contract charges). The empty list verifies
    iff [witness = ac]. *)

(** {1 Exponentiation over the parameters} *)

val pow_mod : params -> Bigint.t -> Bigint.t -> Bigint.t
(** [pow_mod params b e] is [b^e mod n] on the parameters' own
    {!Bigint.Mont} context, so repeated exponentiations never re-derive
    Montgomery state. *)

val pow_mod2 : params -> Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t * Bigint.t
(** [pow_mod2 params b e1 e2 = (pow_mod params b e1, pow_mod params b e2)],
    computed by {!Bigint.Mont.pow2} from one squaring chain shared by
    both exponents. The witness index derives a node's two child bases
    with one call. *)

(** {1 Non-membership (universal accumulator)}

    The Li-Li-Xue construction the paper builds on is {e universal}:
    for a prime [x] outside the set, Bézout coefficients of
    [(x, Π X)] yield a constant-size proof of absence. *)

type non_mem_witness = { nw_a : Bigint.t; nw_d : Bigint.t }

val non_mem_witness : params -> Bigint.t list -> Bigint.t -> non_mem_witness
(** @raise Invalid_argument when [x] divides the set product (i.e. is a
    member). *)

val verify_non_mem : params -> ac:Bigint.t -> x:Bigint.t -> witness:non_mem_witness -> bool
(** Checks [ac^a = g * d^x (mod n)]. *)
