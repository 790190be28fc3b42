(** The encrypted index [I]: a history-independent dictionary from
    16-byte positions [l] to 16-byte masked payloads [d]. The cloud
    stores and queries it; nothing about keyword grouping or insertion
    order is recoverable from it (positions are PRF outputs).

    Entries are stored inline in a contiguous open-addressing arena —
    32 bytes per entry, no per-entry boxing — and the slot hash reuses
    the label's own leading bytes, so lookups cost one probe chain over
    flat memory. *)

type t

val label_len : int
val payload_len : int

val record_len : int
(** 32: one entry as a packed [l ‖ d] record, the arena's slot layout.
    A shipment carries its entries in this form
    ({!Owner.keyword_group}). *)

val create : unit -> t

val put : t -> l:string -> d:string -> unit
(** Adds one entry outside any shipment: {!find_before_latest} sees it.
    @raise Invalid_argument if the position is already occupied — PRF
    collisions at 128 bits indicate a protocol bug, not bad luck — or
    if [l] or [d] is not exactly 16 bytes. *)

val install : t -> string list -> unit
(** [install t records] adds one shipment: each string is a run of
    packed [l ‖ d] records. The arena is resized at most once, for the
    total count, and each record is copied into its slot with one
    blit. Its slots are marked as the latest shipment's, replacing the
    marks of the previous [install]; a resize keeps every mark.
    Atomic: every record's position is checked before the first write
    or mark change, so a refused install leaves the index as it was.
    @raise Invalid_argument on a string that is not whole records, on a
    position the index already holds, or on a position the shipment
    holds twice. *)

val find : t -> string -> string option

val find_before_latest : t -> string -> string option
(** {!find} on the index as it was before the latest {!install}: a
    position that install added reads as absent. *)

val entry_count : t -> int

val size_bytes : t -> int
(** Exact stored label+payload bytes (32 per entry under the fixed
    16+16 layout) — the Fig. 4a metric. *)

val capacity_bytes : t -> int
(** Allocated arena footprint (slots plus occupancy vector), including
    the open-addressing slack. *)

val iter : (string -> string -> unit) -> t -> unit
(** [iter f t] applies [f l d] to every entry, in arena (i.e. hash)
    order — history-independent by construction. *)

val sorted_records : t -> string
(** Every entry as packed [l ‖ d] records, sorted by position (byte
    order): a canonical form, independent of the arena's capacity. *)
