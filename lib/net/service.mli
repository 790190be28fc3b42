(** The transport-independent Slicer service: a {!Station} (cloud +
    chain) plus the provisioning state a multi-client deployment needs
    — user registry and faucet, the owner → user key channel, and the
    idempotency cache that makes every retried effectful request —
    Search, Build, Insert, Dispute — apply exactly once. The cache is
    keyed by [(client, request_id)] (a Dispute's key adds a third piece)
    and, for searches and disputes, consulted only after the client's
    registration is checked, so a reply can only ever be replayed to
    the client that originally settled it. Every effect, live or
    replayed from the WAL, goes through one function that applies,
    journals and caches it.

    {!handle} is a pure request → response dispatcher guarded by one
    lock, so any transport (the socket server, a loopback test, a
    pipe) can drive it concurrently. Ping, Stats and Traces read only
    process-wide state and are answered without that lock. It never
    raises: failures come back as [Wire.Refused] frames. *)

val log_src : Logs.src

type t

val create :
  ?settle:Settle_batch.config -> ?instance:string -> ?shard:int * int -> unit -> t
(** An empty service awaiting a [Wire.Build] shipment from the data
    owner, the only way it gets a database (a self-seeded server
    applies its own owner's through {!handle}). Each newly registered
    user is granted 100,000,000 wei, and the idempotency cache keeps
    the last 8,192 replies. [settle] switches settlement to the
    optimistic batched mode as soon as a database exists (see
    {!section-settlement}). [instance] (default [""]) names this
    process in Welcome frames; [shard = (i, n)] (default [(0, 1)]) is
    the cluster slice this service owns. The Build stamps [shard] and
    [settle]'s dispute window (4 blocks without) into the contract, and
    records both as the identity a restart must name. *)

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

    A service from {!recover} journals every effect that took place —
    client registration, Build, Insert, settled Search, Dispute, and the
    timer's Flush and Finalize — under the service lock {e before} its
    reply leaves {!handle}, and group-commit fsyncs after it; past [snapshot_bytes] of WAL the full state is
    snapshotted atomically and the log truncated. The service's
    dispatch is deterministic, so replaying the journaled request bytes
    over the newest snapshot reproduces the state — including the
    idempotency cache, which is how a retried [(client, request_id)]
    still replays its cached reply across a [kill -9]. A Build's record
    and the snapshot also carry the identity the database was built
    as: its shard, and eager settlement or batches of a size, deposit
    and dispute window. A snapshot keeps the chain's sealed head, and
    the restored chain continues from it. *)

val store : t -> Store.t option
(** The store {!recover} attached, if any (to close at shutdown). *)

type recovery_stats = {
  rs_snapshot : bool;      (** the loaded snapshot held a built database *)
  rs_replayed : int;       (** WAL events replayed on top of it *)
  rs_dropped_tail : bool;  (** torn/stale bytes were discarded *)
}

val recover :
  ?settle:Settle_batch.config -> ?instance:string -> ?shard:int * int -> Store.config ->
  (t * recovery_stats, string) result
(** Open (or create) the durable state at [cfg.dir], rebuild the
    service from the newest valid snapshot plus the contiguous WAL
    tail, check that the database was built as this service is — as
    [shard], settling as [settle] says (a Build replayed from the WAL
    runs under the identity its record carries) — verify the recovered
    prime multiset re-accumulates to both the cloud's and the on-chain
    [Ac], re-anchor on a fresh checkpoint and attach the store. [Error]
    — and no serving — when the snapshot does not decode (a layout
    other than [slicer-service-built-v8] or [slicer-service-empty-v3]
    is a codec mismatch, so a state dir an older build wrote is never
    replayed), when
    replay fails, when the state dir holds another identity (the error
    names both, and the dir is left as it was), or when the accumulator
    check fails. An empty state dir holds no database and passes. When
    the WAL replay leaves a witness-tree leaf stale or cold (a replayed
    Insert), the background witness warm is scheduled after the
    checkpoint, as after a live Build or Insert, and
    [slicer_net_background_warms_total] advances once it is done. *)
