(** The Slicer verification smart contract (Algorithm 5 + the fairness
    escrow of Section IV-A).

    Life cycle:
    + the data owner deploys the contract with the accumulator public
      parameters and initial accumulation value [Ac];
    + [updateAc] — the owner refreshes [Ac] after every Insert (the
      cheap "Data insertion" row of Table II);
    + [requestSearch] — a data user posts search tokens and locks the
      search fee in escrow;
    + [submitResult] — the cloud posts results and witnesses; the
      contract recomputes each claim's multiset hash and prime
      representative, checks the RSA witnesses against [Ac], and either
      pays the cloud or refunds the user.

    Neither plaintext values nor decryption keys ever reach the chain:
    verification works entirely on PRF tokens, encrypted record IDs and
    group elements (the "public verification without privacy leakage"
    requirement). *)

val log_src : Logs.Src.t
(** [slicer.chain.contract] — per-transaction gas and settlement
    outcomes at debug level. *)

type claim = {
  token_bytes : string;   (** [t_j ‖ j ‖ G1 ‖ G2] — the search token *)
  results : string list;  (** encrypted matched records [er] *)
  witness : Bigint.t;     (** the verification object [vo] *)
}

val encode_claims : claim list -> string
val decode_claims : string -> claim list option

val claim_input : token_bytes:string -> string list -> string
(** [claim_input ~token_bytes results] is [token ‖ H(results)], the
    token followed by the multiset hash of its results: the input whose
    [H_prime] is the claim's prime representative. The cloud, the
    user-side verifier and the contract all derive claim primes from
    it. *)

type receipt_leaf = {
  rl_client : string;         (** the registered client name *)
  rl_request : string;        (** the on-chain (composite) request id *)
  rl_claim_hash : string;     (** SHA-256 of the served claims blob *)
  rl_witness_digest : string; (** digest of the verification objects *)
}
(** One settled-search receipt as committed under a batch's Merkle
    root (the optimistic settlement path). *)

val encode_leaf : receipt_leaf -> string
val decode_leaf : string -> receipt_leaf option

val witness_digest :
  claims:claim list -> batch_witness:Bigint.t option -> string
(** The [rl_witness_digest] binding: the batch witness when one covers
    every claim, the concatenated per-claim VOs otherwise. *)

val contract :
  modulus:Bigint.t -> generator:Bigint.t -> initial_ac:Bigint.t -> shard:int * int ->
  dispute_window:int ->
  Vm.contract_def
(** Contract definition; deploy with {!Vm.make_deploy} (no init args —
    parameters are baked into the constructor closure, standing in for
    constructor calldata which is charged separately). [shard = (i, n)]
    records which slice of the keyword space this contract's [Ac]
    covers; a lone server uses [(0, 1)]. [dispute_window] is the number
    of blocks after a [commitBatch] during which any leaf may be
    disputed; [finalize] only succeeds once it has passed. *)

(** Client-side transaction builders. *)

val restore :
  Ledger.t -> contract:Vm.address -> modulus:Bigint.t -> generator:Bigint.t -> unit
(** Recovery support: re-install the contract definition at its
    snapshotted address via {!Vm.install_contract} — no transaction,
    no constructor run. The caller must restore the contract's storage
    (including the [ac] cell) separately; the live accumulation value
    comes from storage, never from the closure. *)

val deploy :
  ?shard:int * int -> ?dispute_window:int ->
  Ledger.t -> owner:Vm.address -> modulus:Bigint.t -> generator:Bigint.t -> initial_ac:Bigint.t ->
  Vm.address * Vm.receipt
(** Deploys and seals a block; returns the contract address.
    [shard] defaults to [(0, 1)] (a lone server); [dispute_window]
    defaults to 4 blocks. *)

val update_ac : Ledger.t -> owner:Vm.address -> contract:Vm.address -> Bigint.t -> Vm.receipt

val request_search :
  Ledger.t -> user:Vm.address -> contract:Vm.address -> request_id:string ->
  tokens:string list -> payment:int -> Vm.receipt
(** Posts the search tokens (as opaque byte strings) with the fee in
    escrow. *)

val submit_result :
  Ledger.t -> cloud:Vm.address -> contract:Vm.address -> request_id:string ->
  claim list -> Vm.receipt
(** Triggers on-chain verification and settlement. The receipt's output
    is [["paid"]] or [["refunded"]]. *)

val submit_result_batched :
  Ledger.t -> cloud:Vm.address -> contract:Vm.address -> request_id:string ->
  claim list -> witness:Bigint.t -> Vm.receipt
(** Settlement with one batched membership witness covering every claim
    (the per-claim [witness] fields are ignored); saves [(k-1) * 64]
    bytes of verification objects for a [k]-token order search. *)

val request_status : Ledger.t -> contract:Vm.address -> request_id:string -> string option
(** ["pending"], ["batched"] (committed under an open batch), ["paid"]
    or ["refunded"]. *)

(** {1 Batched optimistic settlement}

    The cloud posts a slashable [deposit], accumulates settled-Search
    receipts off-chain, and commits one Merkle root per batch
    ([commitBatch]); anyone may [dispute] a single leaf during the
    dispute window — the contract re-runs Algorithm 5 for that leaf
    against the batch's committed [Ac] via a Merkle inclusion proof, a
    proven-bad leaf pays the whole deposit to the disputer and refunds
    every escrow in the batch — and an undisputed batch settles
    wholesale with [finalize] once the window has passed. *)

val post_deposit :
  Ledger.t -> cloud:Vm.address -> contract:Vm.address -> amount:int -> Vm.receipt

val commit_batch :
  Ledger.t -> cloud:Vm.address -> contract:Vm.address -> batch_id:string -> root:string ->
  requests:string list -> Vm.receipt
(** Commits a Merkle [root] over the batch's receipt leaves; every
    member request must be an escrowed ["pending"] search. The output
    is [["committed"]]. *)

val dispute_leaf :
  Ledger.t -> disputer:Vm.address -> contract:Vm.address -> batch_id:string -> index:int ->
  leaf:string -> proof:Merkle.proof -> claims_blob:string -> batch_witness:Bigint.t option ->
  Vm.receipt
(** Opens a dispute on one committed leaf. A bad leaf yields
    [["slashed"]]; a leaf that verifies reverts with
    ["dispute rejected…"] (the disputer pays the verification gas). *)

val finalize_batch :
  Ledger.t -> cloud:Vm.address -> contract:Vm.address -> batch_id:string -> Vm.receipt
(** Wholesale settlement after the window; output
    [["finalized"; total]]. *)

val batch_status : Ledger.t -> contract:Vm.address -> batch_id:string -> string option
(** ["committed"], ["final"] or ["slashed"]. *)

val stored_deposit : Ledger.t -> contract:Vm.address -> who:Vm.address -> int

val stored_dispute_window : Ledger.t -> contract:Vm.address -> int option

val stored_ac : Ledger.t -> contract:Vm.address -> Bigint.t option
(** The accumulation value currently on chain (freshness anchor). *)

val stored_shard : Ledger.t -> contract:Vm.address -> (int * int) option
(** The shard identity [(i, n)] stamped at deploy time; [None] when the
    storage cells are missing (contracts restored from pre-cluster
    snapshots). *)

val requested_tokens : Vm.receipt -> request_id:string -> string list option
(** The tokens that [receipt]'s [SearchRequested] event escrowed for
    [request_id], in request order — how the cloud retrieves a
    request's tokens from the [requestSearch] receipt. [None] when the
    receipt carries no such event for that id. *)
