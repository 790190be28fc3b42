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
    (possibly containing zero transactions). *)

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
(** Full-chain validation: parent links, block numbers, Merkle roots,
    sealer rotation and seal tags. *)

val tamper_check_demo : t -> block_index:int -> bool
(** Returns [true] iff corrupting a transaction in the given block is
    detected by {!validate} on a copied chain — used by tests and the
    quickstart example to show immutability. *)
