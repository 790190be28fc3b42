(** The cloud-side service endpoint: the half of the search round trip
    that runs {e at the cloud}, wired to the chain — receive a token
    set for an escrowed request, answer it from the encrypted index,
    and settle on chain.

    This is the seam the networked deployment cuts along: {!Protocol}
    drives a station in-process, while [Net.Service] drives the same
    station behind a framed-RPC transport. Either way the settlement
    logic (escrow, Algorithm 5 verification, payment/refund) is
    identical because it {e is} the same code. *)

type t

val deploy :
  acc_params:Rsa_acc.params -> tdp_public:Rsa_tdp.public -> owner:Vm.address ->
  cloud_addr:Vm.address -> shard:int * int -> dispute_window:int -> Owner.shipment ->
  (t * Vm.receipt, string) result
(** The one deploy site (Fig. 1's set-up): the cloud installs the
    owner's Build shipment, a fresh chain grants [owner] 100,000,000
    wei, and [owner] deploys the contract with the shipment's [Ac], the
    cluster slice [shard] and the [dispute_window] in blocks. [Error]
    is the deploy's revert reason. *)

val resume :
  cloud:Cloud.t -> head:Block.header -> contract:Vm.address -> cloud_addr:Vm.address -> t
(** A station whose chain continues from [head] ({!Ledger.resume}),
    sealed by the validators {!deploy} names: how a state snapshot,
    which keeps the head and no history, comes back. The caller restores
    the accounts and the contract. *)

val cloud : t -> Cloud.t
val ledger : t -> Ledger.t
val contract : t -> Vm.address
val cloud_addr : t -> Vm.address

val batcher : t -> Settle_batch.t option
(** The batched-settlement manager, when optimistic settlement is on. *)

val enable_batching :
  ?state:string -> t -> config:Settle_batch.config -> (unit, string) result
(** Switch {!settle} to optimistic batched settlement: receipts join an
    open batch instead of settling eagerly, and the cloud's slashable
    deposit is posted unless already on the contract (so the call is
    idempotent across recovery). [state] is a {!Settle_batch.export}
    blob from a snapshot. The cloud address must hold [sb_deposit]. *)

type deferral = {
  sd_batch : string;          (** the open batch the receipt joined *)
  sd_index : int;             (** its leaf index *)
  sd_leaf : string;           (** encoded {!Slicer_contract.receipt_leaf} bytes *)
}

type outcome =
  | Settled of Vm.receipt     (** eager: the settlement transaction's receipt *)
  | Deferred of deferral      (** optimistic: committed later in a batch *)

type settlement = {
  se_claims : Slicer_contract.claim list;  (** encrypted results + per-claim VOs *)
  se_batch_witness : Bigint.t option;      (** the one shared VO on the batched path *)
  se_receipt : Vm.receipt;                 (** settlement receipt (eager) or the
                                               escrow receipt (deferred) *)
  se_outcome : outcome;
}

val settle :
  t ->
  client:string ->
  user:Vm.address ->
  request_id:string ->
  payment:int ->
  token_blobs:string list ->
  batched:bool ->
  (settlement, string) result
(** The full cloud+chain half of one search: post the request with the
    fee escrowed from [user], let the cloud retrieve the tokens from
    the escrow transaction's calldata
    ({!Slicer_contract.requested_tokens}) and search, then either
    submit results + witnesses for eager on-chain verification, or
    (with batching enabled) append the receipt to the open settlement
    batch. [client] is the registered client name committed into the
    receipt leaf. [Error] is returned when the request transaction
    itself reverts (bad escrow, duplicate id, no tokens …); a failed
    {e verification} is not an error — it surfaces as the receipt's
    ["refunded"] output. *)

val onchain_ac_digest : t -> string option
(** H(Ac) as the contract stores it: the freshness anchor. The value
    itself is the cloud's {!Cloud.current_ac}, which {!install} keeps
    equal to it. *)

val install : t -> owner:Vm.address -> Owner.shipment -> (Vm.receipt, string) result
(** Apply a Build/Insert shipment at the cloud and refresh the on-chain
    [Ac] (sender must be the contract owner). *)
