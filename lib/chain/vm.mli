(** Account state, contracts and metered transaction execution — the
    simulated chain's execution engine.

    Contracts are OCaml closures registered under an address; their
    storage reads/writes and value transfers are gas-metered against
    {!Gas} and journaled, so a reverting call rolls back every state
    change exactly as the EVM would. *)

type address = string
(** 20-byte account identifier. *)

val address_of_name : string -> address
(** Deterministic address from a human-readable name (hash-derived). *)

val pp_address : Format.formatter -> address -> unit
(** Short hex rendering. *)

type state

type ctx = {
  state : state;
  meter : Gasmeter.t;
  sender : address; (** [msg.sender] *)
  self : address;   (** the executing contract's address *)
  value : int;      (** [msg.value], already credited to [self] *)
  height : int;     (** [block.number] of the sealing block (0 off-chain) *)
}

type method_impl = ctx -> string list -> (string list, string) result
(** A contract method: returns output words, or [Error reason] which
    reverts the call's state changes. *)

type contract_def = {
  cd_name : string;
  cd_code : string;     (** pseudo-bytecode; its length drives deploy gas *)
  cd_methods : (string * method_impl) list;
}

(** {1 State} *)

val create_state : unit -> state
val fund : state -> address -> int -> unit
val balance : state -> address -> int
val nonce : state -> address -> int
val contract_at : state -> address -> contract_def option

(** {1 Snapshot export / import}

    For the durable store: a snapshot carries the {e materialized}
    world state — [contract_def] closures cannot be serialized, so the
    restorer re-installs each contract's definition from code via
    {!install_contract}. The restore functions bypass the journal and
    gas metering and raise [Invalid_argument] inside a transaction. *)

val accounts : state -> (address * int * int) list
(** Every address with a balance or a nonce, as
    [(address, balance, nonce)], deterministically sorted. *)

val restore_account : state -> address -> balance:int -> nonce:int -> unit

val install_contract : state -> address -> contract_def -> unit
(** Place a contract definition at an address without running its
    constructor (the snapshotted storage {e is} the constructor's plus
    all later effects). *)

val storage_entries : state -> address -> (string * string) list
(** A contract's storage cells, deterministically sorted. *)

val restore_storage : state -> address -> (string * string) list -> unit

(** {1 Contract-side operations (metered, journaled)} *)

val sload : ctx -> string -> string option
(** Reads a cell: {!Gas.sload} per 32-byte word of the value found
    (one word when the cell is unset). *)

val sstore : ctx -> string -> string -> unit
(** Writes a cell: {!Gas.sstore_reset} for each word the old value
    occupied and {!Gas.sstore_set} for each word beyond it. *)

val emit : ctx -> string -> unit
(** Emits a log event (gas only; events are recorded in the receipt). *)

val send : ctx -> to_:address -> int -> (unit, string) result
(** Value transfer out of the executing contract. *)

val require : ctx -> bool -> string -> (unit, string) result
(** [require ctx cond reason] is [Error reason] when the condition
    fails — the Solidity idiom. *)

(** {1 Transactions} *)

type payload =
  | Transfer
  | Deploy of { def : contract_def; init_args : string list }
  | Call of { method_ : string; args : string list }

type txn = private {
  tx_sender : address;
  tx_to : address; (** for [Deploy], the created contract's address *)
  tx_value : int;
  tx_nonce : int;
  tx_payload : payload;
}

val make_transfer : state -> sender:address -> to_:address -> value:int -> txn
val make_deploy : state -> sender:address -> ?value:int -> contract_def -> string list -> txn
val make_call : state -> sender:address -> to_:address -> ?value:int -> string -> string list -> txn

val txn_bytes : txn -> string
(** Canonical serialization (closures are represented by the contract
    name and code, which is what an on-chain deployment carries). *)

val txn_hash : txn -> string

type receipt = {
  r_txn_hash : string;
  r_gas_used : int;
  r_events : string list;
  r_output : (string list, string) result;
}

val execute : ?height:int -> ?gas_limit:int -> state -> txn -> receipt
(** Applies the transaction: checks nonce and balance, charges intrinsic
    and execution gas, runs the payload, and rolls back on revert. A
    failed transaction still consumes its gas and bumps the nonce; one
    that runs out of gas consumes exactly [gas_limit].
    Never raises on gas: a transaction whose nonce is wrong, or whose
    intrinsic gas alone is over the gas limit, gets an [Error] receipt
    with 0 gas and leaves the state (nonce included) untouched.
    [height] is exposed to contracts as [ctx.height] ([block.number]);
    the ledger passes the sealing block's number. [gas_limit] (default
    30 million) is the gas the transaction may use; the ledger passes
    what its block has left. *)

val last_breakdown : state -> (string * int) list
(** The {!Gasmeter.breakdown} of the most recently executed
    transaction, largest label first; each {!execute} overwrites it.
    [[]] before the first transaction. *)
