(** Durable state for a Slicer service: WAL + snapshots + recovery.

    The contract with the caller (the networked [Service]):

    - Every {e effectful} event — client registration, Build shipment,
      Insert delta, settled Search receipt — is {!append}ed and
      {!sync}ed {e before} its reply leaves the process. The caller's
      state machine must be deterministic: replaying the payloads in
      sequence order reproduces the state, including the idempotency
      cache.
    - Every {!Wal.size} bytes ≥ [snapshot_bytes], the caller serializes
      its full state and calls {!checkpoint}, which atomically
      publishes the snapshot ({!Snapfile}) and then truncates the WAL.
    - On startup, {!open_} returns a {!recovery}: the newest valid
      snapshot plus the contiguous WAL tail to replay on top of it.
      After rebuilding state, the caller {e must} call {!checkpoint}
      before appending — recovery always re-anchors on a fresh
      snapshot, so a crash during recovery replays the same inputs.

    Recovery discards, in order: a torn/corrupt WAL tail (truncated on
    open), WAL records at or below the snapshot's sequence (already
    materialized), and any records after a sequence gap (they belong
    to a newer, corrupt snapshot's epoch — replaying them over an
    older base would skip the middle). The result is always {e some
    prefix} of the events ever applied — never a reordering, never an
    exception. *)

type config = {
  dir : string;  (** state directory, created if missing *)
  fsync : bool;  (** [false] = bench mode: no durability barriers *)
  snapshot_bytes : int;  (** WAL size that makes {!should_snapshot} true *)
}

type event = Wal.event = { ev_seq : int; ev_tag : int; ev_payload : string }

type recovery = {
  rc_snapshot : (int * string) option;  (** newest valid [(seq, payload)] *)
  rc_events : event list;  (** contiguous tail strictly above the snapshot *)
  rc_dropped_tail : bool;  (** torn bytes or out-of-epoch records discarded *)
}

type t

exception Locked of string
(** Raised by {!open_} with the state directory when another process
    holds it open. *)

val open_ : config -> t * recovery
(** Takes an exclusive lock on [<dir>/LOCK] for the life of the store:
    two live stores in two processes on one directory would truncate
    each other's WAL tail at recovery. @raise Locked when another
    process holds the lock. *)

val append_sized : t -> tag:int -> Bytesutil.sized -> int
(** {!Wal.append_sized}: journal a streamed encoding without a copy of
    it in memory. *)

val append : t -> tag:int -> string -> int
val sync : t -> unit

val checkpoint : t -> string -> unit
(** Publish [payload] as a snapshot at the current last sequence and
    truncate the WAL. Crash-ordered: the snapshot is durable before a
    single WAL byte disappears. *)

val last_seq : t -> int
(** Highest sequence number materialized or appended; 0 when empty. *)

val wal_bytes : t -> int
val should_snapshot : t -> bool
val is_empty : t -> bool
(** True when the directory held neither snapshot nor events. *)

val close : t -> unit
