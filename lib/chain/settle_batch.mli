(** The cloud-side batch manager for optimistic settlement.

    Settled-Search receipts [(client, request_id, claim_hash,
    witness_digest)] accumulate in an open batch; one [commitBatch]
    transaction posts a Merkle root over the whole batch (flushed on a
    size bound or a wall-clock window), and undisputed batches settle
    wholesale with [finalize] after the dispute cutoff — amortizing
    Table-II settlement gas by the batch size. A dispute on a single
    proven-bad leaf slashes the cloud's deposit and refunds the batch
    (see {!Slicer_contract}).

    Not thread-safe: the owning service drives it under its own lock,
    and journals every add/flush/finalize/dispute in the WAL so the
    sequence replays deterministically on recovery. *)

val log_src : Logs.Src.t

type config = {
  sb_size : int;        (** commit after this many receipts (>= 1) *)
  sb_window_ms : float; (** ... or once the open batch is this old *)
  sb_deposit : int;     (** slashable stake the cloud posts up front *)
  sb_dispute_blocks : int;
      (** dispute window the service stamps into freshly deployed
          contracts; already-deployed contracts keep their own *)
}

val default_config : config
(** 64 receipts / 1 s window / 10,000,000 wei deposit / 4 blocks. *)

type status =
  | Pending of { batch : string; index : int }
      (** in the open batch, not yet committed on-chain *)
  | Committed of { batch : string; index : int; leaf : string; root : string;
                   proof : Merkle.proof }
      (** committed; disputable until the window passes *)
  | Final of { batch : string }    (** batch finalized, escrow paid to the cloud *)
  | Refunded of { batch : string } (** batch slashed, escrow refunded *)

type t

val create :
  config:config -> ledger:Ledger.t -> contract:Vm.address -> cloud:Vm.address ->
  current_ac:(unit -> Bigint.t) -> t
(** [current_ac] returns the accumulation value whose hash is on chain;
    a commit records it, so a later dispute can pass the batch's [Ac]
    as calldata. *)

val config : t -> config

val ensure_deposit : t -> Vm.receipt option
(** Post the slashable deposit unless one is already on the contract
    (recovery re-enables batching over restored chain state). *)

val add : t -> Slicer_contract.receipt_leaf -> escrow:Slicer_contract.escrow -> string * int
(** Append a receipt to the open batch, with its request's escrow
    preimage (kept until the batch is final or slashed: commit and
    dispute pass it as calldata); returns its [(batch, index)]
    coordinates. Never flushes — the caller checks
    {!should_flush} after journaling the event that caused the add. *)

val should_flush : t -> bool
(** The open batch has reached [sb_size]. *)

val window_expired : t -> bool
(** The open batch is non-empty and older than [sb_window_ms] — the
    service's tick journals an explicit flush event when this fires
    (wall-clock decisions cannot be replayed, their effects can). *)

val flush : t -> (string * Vm.receipt) option
(** Commit the open batch on-chain; [None] when it is empty. A
    reverted commit leaves the batch open for a retry. *)

val finalize_due : t -> (string * Vm.receipt) list
(** Finalize every committed batch whose dispute window has passed,
    oldest first. [finalize] takes the batch id alone: the members'
    slots stay ["batched"] on chain, and their escrows are paid. *)

val dispute :
  t -> disputer:Vm.address -> request:string -> claims_blob:string ->
  batch_witness:Bigint.t option -> (bool * Vm.receipt, string) result
(** Open a dispute on the committed leaf of [request]. [Ok (slashed,
    receipt)]: a rejected dispute (the leaf verifies) is not an error,
    it returns [(false, receipt)] with the revert reason inside.
    [Error _] when the request has no committed, still-open leaf. *)

val status : t -> request:string -> status option

val export : t -> string
(** Snapshot blob ([slicer-settle-batch-v2]: batch ids, states, leaf
    bytes, the escrow preimages and commit-time [Ac] of batches not yet
    final or slashed, and the open tail with its escrows). *)

val restore :
  config:config -> ledger:Ledger.t -> contract:Vm.address -> cloud:Vm.address ->
  current_ac:(unit -> Bigint.t) -> string -> t option
(** Rebuild from {!export} output over recovered chain state. *)
