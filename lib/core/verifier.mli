(** The user's side of Algorithm 5.

    Each function is {!Slicer_contract.verify} with a no-op meter and
    every claim prime found by the walk ({!Slicer_contract.Walk}): the
    user runs exactly the check the contract runs, through the same
    memo. An entry the user stores keeps its charges, so an on-chain
    [dispute] of the same claims that hits it burns what a cold
    dispute burns. *)

val verify_claim : Rsa_acc.params -> ac:Bigint.t -> Slicer_contract.claim -> bool
(** [h ← H(er); x ← H_prime(token ‖ h); VerifyMem(x, vo)]. *)

val verify_claims : Rsa_acc.params -> ac:Bigint.t -> Slicer_contract.claim list -> bool
(** Conjunction over all claims (empty list verifies). *)

val verify_claims_batched :
  Rsa_acc.params -> ac:Bigint.t -> Slicer_contract.claim list -> witness:Bigint.t -> bool
(** The one-shared-witness variant: the claims' own [witness] fields are
    ignored, exactly as the batched contract path ignores them. *)
