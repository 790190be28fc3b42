(** Append-only write-ahead log of effectful events.

    On-disk format — a flat sequence of records:

    {v
      [len : be32] [crc : be32] [seq : be64] [tag : u8] [payload : len-9 bytes]
    v}

    [len] counts the bytes after the two header words (so [len =
    9 + payload length]); [crc] is {!Crc32.string} over exactly those
    bytes. Sequence numbers are assigned by the log, start at 1 and
    increase by 1 per append — gaps only ever appear through snapshot
    truncation, never inside one log file.

    Durability is group-commit: {!append} only writes; {!sync} blocks
    until every byte appended before the call is fsynced. Concurrent
    syncers elect one leader whose single [fsync] covers everyone who
    was already written when it started — followers just wait, so N
    threads settling concurrently cost ~1 fsync, not N.

    {!open_} scans the existing file and {e truncates} the torn tail:
    the scan stops at the first record whose length field overruns the
    file, whose CRC disagrees, or whose seq breaks the +1 chain, and
    [ftruncate]s there. A crash mid-append therefore costs at most the
    record being appended — never a parse error, never a misparse. *)

type t

type event = { ev_seq : int; ev_tag : int; ev_payload : string }

val open_ : path:string -> fsync:bool -> t * event list * bool
(** Open (creating if absent) and scan. Returns the log positioned for
    appending, the valid records found, and whether a torn/corrupt
    tail was discarded. With [fsync:false], {!sync} is a no-op —
    bench/test mode only. *)

val append_sized : t -> tag:int -> Bytesutil.sized -> int
(** Append one record ([tag] in [0, 255]) and return its sequence
    number. Thread-safe; does {e not} sync. The payload is emitted
    twice under the log's mutex, once for the CRC and once through a
    64 KiB scratch the log owns, so no buffer of the whole record is
    ever made. @raise Invalid_argument when the emitted pieces do not
    add up to [size] (nothing is written then). *)

val append : t -> tag:int -> string -> int
(** {!append_sized} of a string. *)

val sync : t -> unit
(** Block until everything appended before this call is on disk. *)

val reset : t -> next_seq:int -> unit
(** Truncate the log to empty (post-snapshot) and continue numbering
    from [next_seq]. The caller must have made the state covering the
    discarded records durable first. *)

val set_next_seq : t -> int -> unit
(** Override the next sequence number (recovery: the snapshot may be
    newer than the log). Only valid on an empty or freshly-opened log. *)

val size : t -> int
(** Current log size in bytes. *)

val last_synced : t -> int
(** Bytes known durable (= {!size} after a {!sync}; 0 relevance with
    [fsync:false]). Exposed for tests. *)

val close : t -> unit
