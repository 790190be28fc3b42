(** An executable sketch of the Theorem 2 simulator.

    The security proof argues a PPT simulator given only the leakage
    functions produces transcripts indistinguishable from real protocol
    runs. This module is that simulator, made concrete: it fabricates
    Build shipments and Search transcripts from {!Leakage} profiles
    alone — uniformly random strings and primes of the right counts and
    sizes, with repeat structure honoured — and the test suite checks
    the fabricated transcripts are {e shape-identical} to real ones
    (the efficiently-checkable part of indistinguishability; the
    remaining distance is exactly the PRF/encryption security the
    theorem assumes). *)

val simulate_build : rng:Drbg.t -> Leakage.build_leakage -> Owner.shipment
(** A fake shipment of [q] groups, each with a random prime of the
    leaked width, holding [p] random (l, d) pairs of the leaked widths
    between them, and the leaked number of random witnesses (one per
    prime for a Build, none for an Insert) — what [S] sends the
    adversary in the Ideal game's build phase. *)

val simulate_search :
  rng:Drbg.t -> Leakage.search_leakage -> Slicer_types.search_token list * Slicer_contract.claim list
(** Fake tokens and claims realising the leaked token count,
    generations and per-token result counts. Each claim's hint is
    derived from its own token and results, as the cloud derives it. *)
