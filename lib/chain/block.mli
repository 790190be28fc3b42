(** Blocks: header with parent link and transaction Merkle root, sealed
    by a proof-of-authority validator. *)

type header = {
  parent : string;    (** hash of the previous block's header *)
  number : int;
  timestamp : int;    (** logical clock — deterministic runs *)
  tx_root : string;   (** Merkle root over transaction bytes *)
  gas_used : int;     (** the receipts' gas, summed *)
  gas_limit : int;    (** the most gas the block's transactions may use *)
  sealer : Vm.address;
  seal : string;      (** validator authentication tag over the header *)
}

type t = { header : header; txns : Vm.txn list; receipts : Vm.receipt list }

val tx_root : Vm.txn list -> string

val receipts_gas : Vm.receipt list -> int
(** The receipts' gas, summed: what [gas_used] must read. *)

val header_preimage : header -> string
(** Header serialization {e without} the seal (what gets sealed). *)

val hash : t -> string
(** Hash of the full (sealed) header. *)

val make :
  parent:string ->
  number:int ->
  timestamp:int ->
  gas_limit:int ->
  sealer:Vm.address ->
  seal:(string -> string) ->
  Vm.txn list ->
  Vm.receipt list ->
  t
(** Assembles and seals a block: [gas_used] is {!receipts_gas} of
    [receipts]. [seal] maps the header preimage to the authentication
    tag. *)

val prove_inclusion : t -> int -> Merkle.proof
(** Merkle proof that the i-th transaction is in the block. *)

val verify_inclusion : t -> Vm.txn -> Merkle.proof -> bool
