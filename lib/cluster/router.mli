(** The stateless cluster front end.

    A router owns no index, no accumulator and no chain — only pooled
    keep-alive {!Net.Client} connections to each shard. It splits
    Build/Insert shipments by {!Shard_key}, fans Search token sets to
    the owning shards in parallel, and merges the per-shard claims,
    accumulators and receipts into one reply whose [sr_parts] carry
    each shard's constant-size verification material.

    {b Idempotency end-to-end.} Every fan-out derives shard-level
    request ids deterministically from the client's id
    ([id ^ "/s" ^ shard]), so a retried request — whether the client
    retried against the router, or the router's own per-shard
    retry/backoff re-sent a sub-request — replays the shard's cached
    settlement instead of touching its escrow again. The router itself
    keeps no reply cache: the shards' caches {e are} the cache.

    {b Failure semantics.} A search is answered only when {e every}
    involved shard settled; any shard failure yields
    [Refused {code = Busy}] naming the failing shard, so clients back
    off and retry the whole request — shards that already settled
    replay from cache and the late shard settles once, never twice.
    There is no half-settled reply. *)

type config = {
  client : Net.Client.config;  (** per-sub-request retry/backoff budget *)
  pool : int;                  (** max idle pooled connections per shard *)
}

val default_config : config
(** 3 attempts per sub-request with the client's default backoff,
    32 pooled connections per shard. *)

type t

val create : ?config:config -> ?instance:string -> Topology.t -> t
(** [instance] (default ["router"]) is echoed as [pv_instance] in
    merged Welcome frames. No connection is opened until the first
    request needs it. *)

val handle : t -> Net.Wire.request -> Net.Wire.response
(** The dispatcher to plug into {!Net.Server.start}. Thread-safe;
    never raises. *)

val close : t -> unit
(** Drop every pooled connection. *)

val sub_id : string -> int -> string
(** {!Net.Client.sub_id}, the shard-level request id a router derives
    (exposed for tests asserting no-double-settlement). *)
