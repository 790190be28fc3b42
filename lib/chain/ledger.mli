(** The blockchain: a proof-of-authority ledger over {!Vm} state.

    Validators take turns sealing blocks (clique-style round-robin);
    seals are HMAC tags under per-validator secrets held in a shared
    registry — a stand-in for ECDSA signatures, which the environment's
    crypto substrate does not include (documented substitution: the
    authentication structure and validation flow are identical). *)

type t

val create : validators:string list -> t
(** Fresh chain with a genesis block and named validators.
    @raise Invalid_argument when no validators are given. *)

val gas_limit : int
(** 30 million: every block's gas limit. {!seal_block} meters each
    transaction against what its block has left. *)

val state : t -> Vm.state
(** The world state (read side; mutate only through transactions). *)

val validator_names : t -> string list
(** The validator names passed to {!create}, in sealing order — what a
    state snapshot records so recovery rebuilds an identical sealer
    rotation. *)

val submit : t -> Vm.txn -> unit
(** Queues a transaction in the mempool. *)

val seal_block : t -> Block.t
(** Executes all pending transactions in order, seals a block with the
    next round-robin validator, and appends it. Returns the new block
    (possibly containing zero transactions). Each transaction may use
    only the gas its block has left: one that runs out of it consumes
    the rest, and one whose intrinsic gas is over it is refused with 0
    gas ({!Vm.execute}). So [gas_used], the receipts' sum, never passes
    [gas_limit]. *)

val submit_and_seal : t -> Vm.txn -> Vm.receipt
(** Convenience: submit one transaction, seal, return its receipt. *)

val head : t -> Block.t
val height : t -> int
val blocks : t -> Block.t list
(** Oldest first, including genesis. *)

val blocks_above : t -> height:int -> Block.t list
(** Blocks with number strictly greater than [height], oldest first.
    Costs O(returned blocks), not O(chain length). *)

val receipt_of : t -> string -> Vm.receipt option
(** Look up a receipt by transaction hash. *)

val validate : t -> (unit, string) result
(** Full-chain validation: parent links, block numbers, strictly
    increasing timestamps, Merkle roots, each header's [gas_used]
    against its receipts' sum and its [gas_limit], sealer rotation and
    seal tags. *)

val validate_forged : t -> block_index:int -> (Block.t -> Block.t) -> (unit, string) result
(** {!validate} over a copy of the chain whose [block_index]-th block
    (oldest first) is replaced by [forge] of it: how tests show that a
    forged body or header is caught. The ledger itself is untouched. *)

val tamper_check_demo : t -> block_index:int -> bool
(** Returns [true] iff corrupting a transaction in the given block is
    detected by {!validate} on a copied chain — used by tests and the
    quickstart example to show immutability. *)
