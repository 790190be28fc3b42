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
    each index entry is encoded once. *)

val shipment_of_bytes : string -> Owner.shipment option
(** [None] for anything but the two-piece form, including the older
    shipment forms that carried a flat entry list. *)

val group_to_bytes : Owner.keyword_group -> string
(** One keyword group: its G1 key, its prime and its entries. *)

val trapdoor_state_to_bytes : Owner.trapdoor_state -> string
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
