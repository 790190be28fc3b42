(** End-to-end orchestration of the four parties (the workflow of the
    paper's Fig. 1): data owner, data user, cloud and blockchain.

    {!setup} builds the encrypted index and ADS, deploys the
    verification contract with the initial accumulation value, and wires
    the parties together. {!search} then runs the full fair-exchange
    round trip: token generation → on-chain request with escrowed
    payment → cloud search → on-chain verification → settlement →
    client-side decryption. *)

type t

type search_outcome = {
  so_ids : string list;        (** decrypted matching record IDs *)
  so_verified : bool;          (** did on-chain verification pass (cloud paid)? *)
  so_token_count : int;
  so_result_bytes : int;       (** total encrypted-result payload *)
  so_vo_bytes : int;           (** total verification-object payload *)
  so_gas_used : int;           (** gas of the settlement transaction *)
}

val setup :
  ?width:int ->
  ?tdp_bits:int ->
  ?acc_bits:int ->
  ?payment:int ->
  seed:string ->
  Slicer_types.record list ->
  t
(** Builds the whole system over the initial database. [seed] makes the
    run reproducible. [payment] is the per-search fee (default 1000
    wei). Defaults: [width] 16, [tdp_bits] 512, [acc_bits] 512. *)

val insert : t -> Slicer_types.record list -> unit
(** Forward-secure insertion: updates cloud index, prime list, on-chain
    [Ac], and the user's trapdoor state. *)

val search : t -> Slicer_types.query -> search_outcome
(** The full verifiable search round trip. *)

val outcome :
  User.t -> Slicer_contract.claim list -> verified:bool -> vo_bytes:int -> token_count:int ->
  receipt:Vm.receipt -> search_outcome
(** A search's outcome from its claims: the record IDs [user] decrypts
    from the results (an undecryptable result is dropped), the result
    bytes, and the receipt's gas. {!search} and [Net.Client.search]
    both fold their replies through it. *)

val vo_bytes : batch_witness:Bigint.t option -> Slicer_contract.claim list -> int
(** The verification-object bytes of one settlement: the shared
    witness when there is one, the claims' own witnesses otherwise. *)

val search_batched : t -> Slicer_types.query -> search_outcome
(** {!search} settled through the batched-witness contract path: one
    64-byte verification object for the whole query instead of one per
    token. *)

val search_between : t -> ?attr:string -> lo:int -> hi:int -> unit -> search_outcome
(** Interval query [lo < a < hi]: the composition of the two order
    searches the paper's range semantics induce, with results
    intersected client-side. Verification must pass for both halves. *)

val search_conj : t -> Slicer_types.query list -> search_outcome
(** Conjunctive query across (possibly different) attributes: one
    verified search per predicate, results intersected client-side.
    The empty conjunction is rejected. @raise Invalid_argument on []. *)

val log_src : Logs.src
(** The protocol's log source ("slicer.protocol"); enable with
    [Logs.Src.set_level]. *)

val search_offchain : t -> Slicer_types.query -> Slicer_contract.claim list * bool
(** Tokens → cloud → local Algorithm 5, skipping the ledger (for
    benches isolating protocol cost from chain bookkeeping). *)

val set_cloud_behavior : t -> Cloud.misbehavior -> unit
(** Configure the threat-model misbehaviours for the next searches. *)

val station : t -> Station.t
(** The cloud+chain settlement endpoint this system drives. The
    networked deployment ([Net.Service]) serves exactly this station
    over framed RPC, so in-process and over-the-wire searches settle
    through the same code path. *)

val payment : t -> int
(** The per-search fee locked in escrow. *)

(** Accessors used by benches, examples and tests. *)

val owner : t -> Owner.t
val cloud : t -> Cloud.t
val user : t -> User.t
val ledger : t -> Ledger.t
val owner_address : t -> Vm.address
val contract_address : t -> Vm.address
val user_address : t -> Vm.address
val cloud_address : t -> Vm.address
val user_balance : t -> int
val cloud_balance : t -> int
val onchain_ac_digest : t -> string option (* H(Ac), as the contract stores it *)
val rng : t -> Drbg.t
