(** The transport-independent Slicer service: a {!Station} (cloud +
    chain) plus the provisioning state a multi-client deployment needs
    — user registry and faucet, the owner → user key channel, and the
    idempotency cache that makes every retried effectful request —
    Search, Build, Insert — apply exactly once. The cache is keyed by
    [(client, request_id)] and, for searches, consulted only after the
    client's registration is checked, so a reply can only ever be
    replayed to the client that originally settled it.

    {!handle} is a pure request → response dispatcher guarded by one
    lock, so any transport (the socket server, a loopback test, a
    pipe) can drive it concurrently. It never raises: failures come
    back as [Wire.Refused] frames. *)

val log_src : Logs.src

type t

val create :
  ?max_cached_replies:int -> ?faucet:int -> ?settle:Settle_batch.config ->
  ?instance:string -> ?shard:int * int -> unit -> t
(** An empty service awaiting a [Wire.Build] shipment from the data
    owner. [faucet] is the balance granted to each newly registered
    user (default 100,000,000 wei). [settle] switches settlement to
    the optimistic batched mode as soon as a database exists (see
    {!section-settlement}). [instance] (default [""]) names
    this process in Welcome frames; [shard = (i, n)] (default [(0, 1)])
    is the cluster slice this service owns — stamped into the contract
    at Build and echoed as [pv_shards] so clients know the topology. *)

val of_protocol :
  ?max_cached_replies:int -> ?faucet:int -> ?settle:Settle_batch.config ->
  ?instance:string -> ?shard:int * int -> Protocol.t -> t
(** Serve an in-process system (e.g. one the server built from
    [--records N] at startup): the service drives the {e same} station,
    so wire searches and [Protocol.search] settle identically. *)

val handle : t -> Wire.request -> Wire.response
(** Thread-safe dispatch of one request. *)

val built : t -> bool
val generation : t -> int
(** 0 before Build, then 1 + the number of Inserts applied. *)

val searches_settled : t -> int
(** Searches that actually reached the chain (cache hits excluded). *)

val station : t -> Station.t option
(** The underlying settlement endpoint (for tests: e.g. configuring
    cloud misbehaviour or inspecting balances). [None] before Build. *)

(** {1:settlement Batched settlement}

    With a [settle] config, a settled Search defers on-chain
    verification: its receipt leaf joins the open batch and the Found
    reply carries [sr_settle] coordinates instead of a payment
    receipt. Size-triggered commits happen inline in the search path
    (deterministic, replayed from the WAL's search events); the
    wall-clock window and dispute-cutoff decisions live in
    {!settle_tick}, which journals what it did. *)

val settle_tick : t -> bool * int
(** Drive the settlement timer once: commit the open batch if its
    window expired, finalize every batch whose dispute window passed.
    Returns [(flushed, finalized_count)]; journals + syncs only when
    something happened. The server's poll loop calls this between
    rounds; a no-batching service returns [(false, 0)]. *)

val settle_flush : t -> unit
(** Force-commit the open batch now (and finalize anything due) —
    measurement boundaries in benches and tests. *)

(** {1 Durability}

    With a {!Store} attached, every effectful event — client
    registration, Build, Insert, settled Search — is journaled under
    the service lock {e before} its reply leaves {!handle}, and
    group-commit fsynced after it; past [snapshot_bytes] of WAL the
    full state is snapshotted atomically and the log truncated. The
    service's dispatch is deterministic, so replaying the journaled
    request bytes over the newest snapshot reproduces the state —
    including the idempotency cache, which is how a retried
    [(client, request_id)] still replays its cached reply across a
    [kill -9]. *)

val attach_store : t -> Store.t -> unit
(** Start journaling into [store]. Immediately checkpoints the current
    in-memory state as the durable base (so a service built from
    [--records N] or an applied Build survives from this moment on). *)

val store : t -> Store.t option
(** The attached store, if any — e.g. to hand a freshly-recovered empty
    store to a self-seeded replacement service. *)

type recovery_stats = {
  rs_snapshot : bool;      (** a valid snapshot was loaded *)
  rs_replayed : int;       (** WAL events replayed on top of it *)
  rs_dropped_tail : bool;  (** torn/stale bytes were discarded *)
}

val recover :
  ?max_cached_replies:int -> ?faucet:int -> ?settle:Settle_batch.config ->
  ?instance:string -> ?shard:int * int -> Store.config ->
  (t * recovery_stats, string) result
(** Open (or create) the durable state at [cfg.dir], rebuild the
    service from the newest valid snapshot plus the contiguous WAL
    tail, check that the recovered contract records [shard] as its
    shard identity, verify the recovered prime multiset re-accumulates
    to both the cloud's and the on-chain [Ac], re-anchor on a fresh
    checkpoint and attach the store. [Error] — and no serving — when
    the snapshot does not decode (a layout other than
    [slicer-service-built-v4] is a codec mismatch), when replay fails,
    when the state dir holds another shard's contract (the error names
    both identities), or when the accumulator check fails. An empty
    state dir holds no contract and passes. *)
