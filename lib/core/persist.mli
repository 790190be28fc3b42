(** Wire codecs and file persistence for the artifacts that cross party
    boundaries: plaintext record batches (owner-side staging), Build and
    Insert shipments (owner → cloud), and the trapdoor state (owner →
    user). Everything round-trips through the same length-prefixed
    framing the protocol already uses, so malformed input is rejected
    rather than misparsed. *)

val records_to_bytes : Slicer_types.record list -> string
val records_of_bytes : string -> Slicer_types.record list option

val shipment_to_bytes : Owner.shipment -> string
(** Two pieces: [Ac], then the keyword groups ({!group_to_bytes}), so
    each index entry is encoded once. Written into one buffer of the
    exact size ({!shipment_sized}). *)

val shipment_sized : Owner.shipment -> Bytesutil.sized
(** The {!shipment_to_bytes} encoding, streamed from the groups'
    packed records inside a larger message: a Build or Insert request,
    which the WAL journals as it is emitted. *)

val shipment_of_bytes : string -> Owner.shipment option
(** [None] for anything but the two-piece form, including the older
    shipment forms that carried a flat entry list, and for any entry
    piece that is not exactly 16 bytes. *)

val shipment_of_view : string -> off:int -> len:int -> Owner.shipment option
(** {!shipment_of_bytes} of the bytes [\[off, off + len)] of a string,
    read in place: each group's entries are packed straight from the
    string into its 32-byte records, with no intermediate pieces. *)

val group_to_bytes : Owner.keyword_group -> string
(** One keyword group: its G1 key, its prime and its entries. *)

val entries_to_bytes : string -> string
(** Packed [l ‖ d] records in their wire form: the {!Bytesutil.concat}
    of [l1; d1; l2; d2; ...]. A group's entry piece and the service
    snapshot's entry section are both this form. *)

val entries_of_bytes : string -> string option
(** Inverse of {!entries_to_bytes}: [None] unless every piece is
    exactly 16 bytes and the pieces pair up. *)

val trapdoor_state_to_bytes : Owner.trapdoor_state -> string

val trapdoor_state_sized : Owner.trapdoor_state -> Bytesutil.sized
(** The {!trapdoor_state_to_bytes} encoding, streamed from the state's
    own strings: the last pieces of a Build or Insert request. *)

val trapdoor_state_of_bytes : string -> Owner.trapdoor_state option

(** {1 User ↔ cloud and chain messages}

    The artifacts the networked deployment ({!Station} behind
    [Net]) moves between mutually-distrustful endpoints: queries and
    search-token sets (user → cloud), result claims — encrypted records
    plus verification objects (cloud → user) — and settlement receipts
    (chain → everyone). *)

val query_to_bytes : Slicer_types.query -> string
val query_of_bytes : string -> Slicer_types.query option

val tokens_to_bytes : Slicer_types.search_token list -> string
val tokens_of_bytes : string -> Slicer_types.search_token list option

val claims_to_bytes : Slicer_contract.claim list -> string
val claims_of_bytes : string -> Slicer_contract.claim list option
(** Byte-identical to the chain-side [submitResult] payload
    ({!Slicer_contract.encode_claims}). *)

val receipt_to_bytes : Vm.receipt -> string
val receipt_of_bytes : string -> Vm.receipt option

val save : path:string -> string -> unit
(** Atomically and durably replaces the file at [path]: bytes are
    written to [path ^ ".tmp"], fsynced, renamed into place, and the
    parent directory fsynced. A crash at any point leaves the previous
    contents (or the previous absence) intact — never a torn file. *)

val load : path:string -> string option
(** Reads a whole file; [None] on {e any} read failure — missing file,
    permission error, or the file shrinking mid-read. *)
