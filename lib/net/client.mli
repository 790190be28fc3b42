(** The fault-tolerant data-user client.

    A client connects, registers with [Hello] and receives its
    provision (user keys, trapdoor state, funded chain address) — the
    owner → user channel of the paper's Fig. 1. After that, {!search}
    runs Algorithm 3 locally, ships the token set, and folds the
    returned claims + settlement receipt into the same
    {!Protocol.search_outcome} the in-process path produces, verifying
    the claims against the on-chain [Ac] client-side as well (a lying
    server cannot claim "paid" for tampered results).

    Fault tolerance: every RPC runs under a request timeout and is
    retried up to [max_attempts] times with jittered exponential
    backoff, transparently reconnecting first. Every effectful request
    — Search, Build, Insert — carries a client-minted request id that
    retries re-send verbatim, and the server applies each
    [(client, id)] at most once — so a retry after a lost reply (or a
    server restart) can never double-spend the escrowed fee, re-apply
    a shipment, or double-bump the generation. *)

type config = {
  connect_timeout : float;   (** seconds per TCP connect attempt *)
  request_timeout : float;   (** seconds awaiting each reply *)
  max_attempts : int;        (** total tries per RPC (>= 1) *)
  backoff_base : float;      (** first retry delay, seconds *)
  backoff_max : float;       (** delay ceiling *)
  jitter : float;            (** +/- fraction of the delay, in [0, 1] *)
  max_payload : int;
}

val default_config : config
(** 5 s connect / 30 s request timeouts, 5 attempts, 50 ms base delay
    doubling to a 2 s cap, 50% jitter. *)

val backoff_delay : config -> rand:float -> attempt:int -> float
(** The jittered exponential schedule (pure, for tests):
    [min backoff_max (backoff_base * 2^(attempt-1))] scaled by a factor
    uniform in [1 - jitter/2, 1 + jitter/2] derived from
    [rand] ∈ [0, 1). *)

type error =
  | Transport of string          (** could not reach the server at all *)
  | Refused of Wire.err_code * string  (** structured server refusal *)
  | Bad_reply of string          (** unparseable or mismatched response *)
  | Exhausted of { attempts : int; last : string }
      (** every retry failed; [last] is the final failure *)

val error_to_string : error -> string

type t

val connect :
  ?config:config -> ?name:string -> ?provision:bool -> Server.endpoint -> (t, error) result
(** Connect and provision. [name] (default derived from the PID) is the
    client's registered identity — reusing a name reattaches to the
    same funded chain address. [~provision:false] skips the [Hello]
    round trip (an owner bootstrapping an empty server has nothing to
    be provisioned from yet). *)

val name : t -> string
val width : t -> int
val payment : t -> int
val generation : t -> int
(** The database generation of the most recent provision/reply. *)

val user_address : t -> Vm.address

val refresh : t -> (unit, error) result
(** Re-runs [Hello], picking up the trapdoor state of any Insert
    shipments applied since provisioning. *)

val ping : t -> (float, error) result
(** Round-trip time in seconds. *)

val stats : t -> (string * string, error) result
(** The server's live {!Obs} registry snapshot as [(json, prometheus)].
    Works without provisioning ([~provision:false]) and before a
    Build — the admin path reads state only. *)

val traces : t -> (Trace.span list, error) result
(** Drain the server's completed trace spans ({!Wire.Traces}). Against
    a router, the reply also covers every shard. Admin path: works
    without provisioning and before a Build. *)

val search :
  ?batched:bool -> t -> Slicer_types.query -> (Protocol.search_outcome, error) result
(** One verified search round trip. [so_verified] requires the chain's
    ["paid"] settlement (or, deferred, the leaf and its inclusion
    proof), a successful client-side verification of every claim
    against the on-chain [Ac], and that the claims answer exactly the
    tokens sent: one claim per token, in the request's order, and for a
    routed reply exactly the claims its shard parts verify. A query
    that generates no token sends nothing: it is answered locally with
    {!Protocol.no_tokens}. *)

val sub_id : string -> int -> string
(** [sub_id request_id i] is the request id a router derives for shard
    [i]'s part of a routed search ([Cluster.Router.sub_id] is this
    function); the client recomputes a deferred part's leaf with it. *)

val build :
  t -> width:int -> payment:int -> acc:Rsa_acc.params -> tdp_public:Rsa_tdp.public ->
  user_keys:Keys.user_keys -> shipment:Owner.shipment -> trapdoor:Owner.trapdoor_state ->
  (int, error) result
(** Owner-side: bootstrap an empty server with the Build shipment.
    Returns the new generation. *)

val seeded_build :
  width:int -> payment:int -> seed:string -> Slicer_types.record list -> Wire.request
(** Owner-side, without a connection: the Build request of the owner
    [Protocol.setup ~width ~payment ~seed records] starts from, so the
    database it builds is that system's twin. A self-seeded server
    applies it through [Service.handle]. *)

val insert :
  t -> shipment:Owner.shipment -> trapdoor:Owner.trapdoor_state -> (int, error) result
(** Owner-side: apply a forward-secure Insert shipment. *)

(** {1 Batched settlement}

    With the server in optimistic-settlement mode, a search's Found
    reply defers on-chain verification; the client checks the receipt
    leaf and (once committed) its Merkle membership itself, keeps the
    claims bytes as dispute evidence, and can poll finality. *)

val last_request_id : t -> string option
(** The id of the most recent {!search} — what {!receipt} and
    {!dispute} key on. *)

val receipt : t -> request_id:string -> (Wire.receipt_status, error) result
(** Poll the settlement status of a deferred search. *)

val dispute :
  ?shard:int -> t -> request_id:string -> (bool * Vm.receipt, error) result
(** Challenge a committed leaf with the claims bytes this client kept
    from the original reply. [Ok (slashed, receipt)] — a rejected
    dispute (the leaf verifies on-chain) returns [(false, _)].
    [shard] picks which part of a routed reply to challenge (default:
    the first deferred part). *)

val rpc : t -> Wire.request -> (Wire.response, error) result
(** One raw request round trip under the full retry/backoff machinery,
    with the response returned untyped. [Refused] frames other than
    [Busy] surface as [Error (Refused _)]. A request larger than
    {!Frame.default_max_payload} is [Error (Refused (Bad_request, _))],
    naming its size and the limit, and nothing is sent; so is every
    typed helper's. This is the router's fan-out
    primitive: it builds its own sub-requests (derived request ids,
    split shipments) and must not re-enter the typed helpers above. *)

val close : t -> unit
