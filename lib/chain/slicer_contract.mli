(** The Slicer verification smart contract (Algorithm 5 + the fairness
    escrow of Section IV-A).

    Life cycle:
    + the data owner deploys the contract with the accumulator modulus
      (part of the deployed code) and initial accumulation value [Ac];
    + [updateAc] — the owner refreshes [Ac] after every Insert (the
      cheap "Data insertion" row of Table II);
    + [requestSearch] — a data user posts search tokens and locks the
      search fee in escrow;
    + [submitResult] — the cloud posts its claims: results, witnesses
      and each claim's prime hint; the contract recomputes each claim's
      multiset hash, checks the one prime candidate its hint names,
      checks the RSA witnesses against [Ac], and either pays the cloud
      or refunds the user.

    Every storage cell is at most one 32-byte word. The contract keeps
    commitments, not blobs: an escrow is one word (a 31-byte hash of
    user, amount and token digest, then a status byte), [Ac] is stored
    as H(Ac), and a batch as six words. Whoever calls a method that
    needs a preimage passes it as calldata, and the contract checks it
    against the commitment (DESIGN §5, "Contract storage").

    Neither plaintext values nor decryption keys ever reach the chain:
    verification works entirely on PRF tokens, encrypted record IDs and
    group elements (the "public verification without privacy leakage"
    requirement). *)

val log_src : Logs.Src.t
(** [slicer.chain.contract] — per-transaction gas and settlement
    outcomes at debug level. *)

val gas_by_label : unit -> (string * int) list
(** Gas charged under each label (["h-prime"], ["intrinsic"],
    ["sstore"], …) by every transaction submitted through this
    module's helpers, summed across the process: the counters
    [slicer_chain_gas_<label>_total] (a dash becomes an underscore),
    which together sum to [slicer_chain_gas_total]. Sorted by label;
    every label the VM and this contract charge is listed, at 0 until
    charged. *)

type claim = {
  token_bytes : string;   (** [t_j ‖ j ‖ G1 ‖ G2] — the search token *)
  results : string list;  (** encrypted matched records [er], {!result_len} bytes each *)
  witness : Bigint.t;     (** the verification object [vo] *)
  hint : int;
      (** the prime's offset on its walk ({!Prime_rep.offset} of the
          prime the cloud made the witness for), in [0, 2^16) *)
}

val result_len : int
(** 16: every result is one AES block, the record ID's encryption
    under [K_R]. *)

val encode_claims : claim list -> string
(** One piece per claim — its token, its results as one piece of
    {!result_len}-byte cells back to back, its witness — then the
    claims' hints as one last piece, 2 big-endian bytes each in claim
    order. This blob is what the settlement methods take, the reply
    carries, a receipt leaf hashes (so the leaf commits every hint)
    and Algorithm 5's memo keys on.
    @raise Invalid_argument for a hint outside [0, 2^16) or a result
    that is not {!result_len} bytes. *)

val claims_sized : claim list -> Bytesutil.sized
(** The {!encode_claims} bytes as a streamed encoding, each cell emitted
    from its result string: what a Found reply is framed from. Raises as
    {!encode_claims} does, when it is made. *)

val decode_claims : string -> claim list option
(** [None] also when the hints piece is not 2 bytes per claim, or a
    results piece is not whole cells. *)

val claim_input : token_bytes:string -> string list -> string
(** [claim_input ~token_bytes results] is [token ‖ H(results)], the
    token followed by the multiset hash of its results: the input whose
    [H_prime] is the claim's prime representative. The cloud walks
    from it to the prime it hints; {!verify} checks the hinted
    candidate of it. *)

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

val receipt_leaf :
  client:string -> request:string -> claims:claim list -> batch_witness:Bigint.t option ->
  receipt_leaf
(** The leaf a deferred settlement commits, and the one its client
    recomputes: SHA-256 of {!encode_claims} and the {!witness_digest}
    of exactly the claims and VO served. *)

(** {1 Algorithm 5} *)

val verify :
  charge:(label:string -> int -> unit) -> Rsa_acc.params -> ac:Bigint.t ->
  batch_witness:Bigint.t option -> claim list -> bool
(** Algorithm 5, the one implementation, run by the contract (on
    settlement and in [dispute], metered by [charge]) and by the user (a
    no-op [charge]): per claim [h <- H(er)] and [x <- H_prime(token ‖ h)],
    the one candidate its [hint] names ({!Prime_rep.of_offset}), then
    VerifyMem. With [batch_witness = None] each claim is a unit checked
    against its own [witness], in order, stopping at the first that
    fails; with [Some w] one unit covers every claim (their own
    witnesses are ignored). A unit's gas follows from its claims' shapes
    and whether every hint named a prime (DESIGN §5, "One Algorithm 5"),
    so a unit answered from the process-wide memo charges what a cold
    run does. Lookups count in
    [slicer_acc_verify_cache_{hits,misses}_total].
    @raise Invalid_argument for a hint outside [0, 2^16), as
    {!encode_claims} does; a decoded claim's hint is always inside. *)

(** {1 Escrow commitments} *)

type escrow = {
  es_request : string;   (** the on-chain (composite) request id *)
  es_user : Vm.address;  (** who escrowed the fee, and gets any refund *)
  es_amount : int;       (** the escrowed fee *)
  es_digest : string;    (** {!tokens_digest} of the requested tokens *)
}
(** An escrow's preimage: what [requestSearch] commits to in the
    request's one-word slot, and what every later method that reads
    the request takes as calldata. *)

val tokens_digest : string list -> string
(** SHA-256 of the tokens blob, as [requestSearch] and the settlement
    paths hash it. The request's slot holds the first 31 bytes of
    SHA-256(user ‖ amount ‖ token digest), then a status byte; the
    request id is the slot's key, not part of the preimage. *)

val encode_escrows : escrow list -> string
(** The escrows as [commitBatch] and [dispute] take them in calldata. *)

val decode_escrows : string -> escrow list option

val ac_digest : Bigint.t -> string
(** H(Ac): the word the contract stores in place of [Ac]. *)

val contract :
  modulus:Bigint.t -> initial_ac:Bigint.t -> shard:int * int -> dispute_window:int ->
  Vm.contract_def
(** Contract definition; deploy with {!Vm.make_deploy} (no init args —
    parameters are baked into the constructor closure, standing in for
    constructor calldata which is charged separately). The modulus is
    appended to the pseudo-bytecode, as a Solidity [immutable] is, so
    deployment pays for it per code byte and no method reads it from
    storage. [shard = (i, n)] records which slice of the keyword space
    this contract's [Ac] covers; a lone server uses [(0, 1)].
    [dispute_window] is the number of blocks after a [commitBatch]
    during which any leaf may be disputed; [finalize] only succeeds
    once it has passed. *)

(** Client-side transaction builders. *)

val restore : Ledger.t -> contract:Vm.address -> modulus:Bigint.t -> unit
(** Recovery support: re-install the contract definition, code and
    modulus included, at its snapshotted address via
    {!Vm.install_contract} — no transaction, no constructor run. The
    caller must restore the contract's storage (including the H(Ac)
    cell) separately; the live accumulation value's commitment comes
    from storage, never from the closure. *)

val deploy :
  shard:int * int -> dispute_window:int ->
  Ledger.t -> owner:Vm.address -> modulus:Bigint.t -> initial_ac:Bigint.t ->
  Vm.address * Vm.receipt
(** Deploys and seals a block; returns the contract address. A lone
    server is shard [(0, 1)]. The program's one caller is
    [Station.deploy], which every database is stood up through. *)

val update_ac : Ledger.t -> owner:Vm.address -> contract:Vm.address -> Bigint.t -> Vm.receipt

val request_search :
  Ledger.t -> user:Vm.address -> contract:Vm.address -> request_id:string ->
  tokens:string list -> payment:int -> Vm.receipt
(** Posts the search tokens (as opaque byte strings) with the fee in
    escrow. The tokens are calldata only: the [SearchRequested] event
    names the request, not its tokens ({!requested_tokens}). Reverts
    with ["no tokens"] when [tokens] is empty. *)

val submit_result :
  Ledger.t -> cloud:Vm.address -> contract:Vm.address -> request_id:string ->
  user:Vm.address -> amount:int -> ac:Bigint.t -> claim list -> Vm.receipt
(** Triggers on-chain verification and settlement. [user] and [amount]
    are the escrow's preimage (the token digest is recomputed from the
    claims) and [ac] the accumulation value whose hash is on chain; the
    call reverts with ["token set mismatch"] or ["ac mismatch"] when
    they do not match, and with ["malformed claims"] when the claims
    blob does not decode (a hints piece of the wrong length or a
    results piece that is not whole cells included).
    A hint that names a composite or another prime fails its claim.
    Each claim's prime costs {!Gas.h_prime_hinted}. The receipt's
    output is [["paid"]] or [["refunded"]].
    @raise Invalid_argument for a hint outside [0, 2^16). *)

val submit_result_batched :
  Ledger.t -> cloud:Vm.address -> contract:Vm.address -> request_id:string ->
  user:Vm.address -> amount:int -> ac:Bigint.t -> claim list -> witness:Bigint.t -> Vm.receipt
(** Settlement with one batched membership witness covering every claim
    (the per-claim [witness] fields are ignored); saves [(k-1) * 64]
    bytes of verification objects for a [k]-token order search. *)

val request_status : Ledger.t -> contract:Vm.address -> request_id:string -> string option
(** ["pending"], ["batched"], ["paid"] or ["refunded"], decoded from
    the slot's status byte. A member of a batch stays ["batched"] for
    good unless a dispute refunds it: once its batch is ["final"]
    ({!batch_status}) the escrow is paid. *)

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
  members:escrow list -> Vm.receipt
(** Commits a Merkle [root] over the batch's receipt leaves; every
    member must be an escrowed ["pending"] search whose slot matches
    its preimage. The contract records H(member ids), the H(Ac) in
    force and the escrow total. The output is [["committed"]]. *)

val dispute_leaf :
  Ledger.t -> disputer:Vm.address -> contract:Vm.address -> batch_id:string -> index:int ->
  leaf:string -> proof:Merkle.proof -> claims_blob:string -> batch_witness:Bigint.t option ->
  members:escrow list -> ac:Bigint.t -> Vm.receipt
(** Opens a dispute on one committed leaf. [members] are the batch's
    escrow preimages in commit order (so a slash can refund each to its
    user) and [ac] the accumulation value in force at commit. A bad
    leaf yields [["slashed"]]; a leaf that verifies reverts with
    ["dispute rejected…"] (the disputer pays the verification gas).
    Each claim's prime is checked at the hint committed in
    [claims_blob], which must hash to the leaf's [rl_claim_hash]:
    {!Gas.h_prime_hinted} per claim, as on settlement. *)

val finalize_batch :
  Ledger.t -> cloud:Vm.address -> contract:Vm.address -> batch_id:string -> Vm.receipt
(** Wholesale settlement after the window: the escrow total recorded
    at commit pays out to the committing cloud. No member slot is read
    or written; the members stay ["batched"] under a ["final"] batch.
    Output [["finalized"; total]]. *)

val batch_status : Ledger.t -> contract:Vm.address -> batch_id:string -> string option
(** ["committed"], ["final"] or ["slashed"]. *)

val stored_deposit : Ledger.t -> contract:Vm.address -> who:Vm.address -> int

val stored_dispute_window : Ledger.t -> contract:Vm.address -> int option

val stored_ac_digest : Ledger.t -> contract:Vm.address -> string option
(** {!ac_digest} of the accumulation value currently on chain (the
    freshness anchor). [Ac] itself travels in [updateAc]'s calldata and
    its [AcUpdated] event. *)

val stored_shard : Ledger.t -> contract:Vm.address -> (int * int) option
(** The shard identity [(i, n)] stamped at deploy time, which a
    recovering shard checks against its own; [None] when the storage
    cells are missing. *)

val requested_tokens : Ledger.t -> Vm.receipt -> request_id:string -> string list option
(** The tokens that [receipt]'s transaction escrowed for [request_id],
    in request order — how the cloud retrieves a request's tokens: read
    from the [requestSearch] calldata of the transaction behind
    [receipt] ({!Ledger.transaction_of}), once the receipt's
    [SearchRequested] event shows the contract accepted it. [None] when
    the receipt carries no such event for that id, or the ledger did
    not seal its transaction. *)
