(** The user's side of Algorithm 5.

    Each function is {!Slicer_contract.verify} with a no-op meter: the
    user checks the prime each claim's hint names, exactly as the
    contract does on settlement and in a [dispute], through the same
    memo. *)

val verify_claims : Rsa_acc.params -> ac:Bigint.t -> Slicer_contract.claim list -> bool
(** Conjunction over all claims (empty list verifies): per claim,
    [h ← H(er); x ← H_prime(token ‖ h)] at the claim's hint, then
    [VerifyMem(x, vo)]. *)

val verify_claims_batched :
  Rsa_acc.params -> ac:Bigint.t -> Slicer_contract.claim list -> witness:Bigint.t -> bool
(** The one-shared-witness variant: the claims' own [witness] fields are
    ignored, exactly as the batched contract path ignores them. *)
