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

val resume : validators:string list -> Block.header -> t
(** A chain that continues from [head], a sealed header, with the same
    validators: its next block is number [head.number + 1], links to
    [head]'s hash and is stamped after it. It keeps no older block, so
    {!validate} checks back to [head], whose sealer and seal must be its
    validator's. A state snapshot keeps its chain's head this way.
    @raise Invalid_argument when no validators are given. *)

val gas_limit : int
(** 30 million: every block's gas limit. {!seal_block} meters each
    transaction against what its block has left. *)

val state : t -> Vm.state
(** The world state (read side; mutate only through transactions). *)

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
(** Oldest first, from genesis or the head a {!resume}d chain started
    from (a header without its transactions). *)

val blocks_above : t -> height:int -> Block.t list
(** Blocks with number strictly greater than [height], oldest first.
    Costs O(returned blocks), not O(chain length). *)

val receipt_of : t -> string -> Vm.receipt option
(** Look up a receipt by transaction hash. *)

val transaction_of : t -> string -> Vm.txn option
(** The transaction behind {!receipt_of}: any transaction this ledger
    sealed, in the head block or an older one, by its hash. A
    {!resume}d chain knows only what it sealed itself. *)

val validate : t -> (unit, string) result
(** Full-chain validation: parent links, block numbers, strictly
    increasing timestamps, Merkle roots, each header's [gas_used]
    against its receipts' sum and its [gas_limit], sealer rotation and
    seal tags, back to genesis or to the head a {!resume}d chain started
    from, whose sealer and seal are checked too. *)

val validate_forged : t -> block_index:int -> (Block.t -> Block.t) -> (unit, string) result
(** {!validate} over a copy of the chain whose [block_index]-th block
    (oldest first) is replaced by [forge] of it: how tests show that a
    forged body or header is caught. The ledger itself is untouched. *)

val tamper_check_demo : t -> block_index:int -> bool
(** Returns [true] iff corrupting a transaction in the given block is
    detected by {!validate} on a copied chain — used by tests and the
    quickstart example to show immutability. *)
