(** Typed request/response messages of the Slicer service, with
    all-or-nothing byte codecs layered on {!Persist} and the core
    serializers. One {!Frame.msg} carries exactly one message; the
    frame tag distinguishes requests from responses so a stray reply
    can never be parsed as a command. *)

val request_tag : int
val response_tag : int

val proto_version : int
(** The one protocol revision this build speaks (8). A Hello naming any
    other revision is refused with [Refused Version_mismatch], so a
    peer built before revision 8 fails loudly at the handshake; its
    shipments or claims blobs would not decode. Revision 6 carries each
    claim's prime hint inside the claims blob, revision 7 its results
    as bare 16-byte cells ({!Slicer_contract.encode_claims}), and
    revision 8 a Build's witnesses as a third shipment piece
    ({!Persist.shipment_to_bytes}). *)

type request =
  | Hello of { client : string; proto : int }
      (** Register and provision: the owner → user authorization channel
          (keys, trapdoor state) plus a funded chain address. [proto] is
          the client's {!proto_version}. *)
  | Search of { client : string; request_id : string; batched : bool;
                tokens : Slicer_types.search_token list;
                trace : Trace.wire_ctx option }
      (** The user → cloud search message. [(client, request_id)] is the
          idempotency key: a retry with the same pair returns the cached
          settlement instead of touching escrow again. The pair is only
          honoured for the registered [client] that settled it — another
          client re-using the id gets its own fresh settlement. [trace]
          carries the sampled upstream trace context, if any; it is not
          part of the idempotency key. *)
  | Build of { client : string; request_id : string;
               width : int; payment : int; acc : Rsa_acc.params;
               tdp_n : Bigint.t; tdp_e : Bigint.t;
               user_k : string; user_k_r : string;
               shipment : Owner.shipment; trapdoor : Owner.trapdoor_state;
               trace : Trace.wire_ctx option }
      (** The owner → cloud bootstrap shipment: public parameters
          ([acc]'s modulus and generator; never its factors, which the
          owner keeps), user key material to provision with, and the
          Build artifacts, every prime's witness included.
          [(client, request_id)] is the idempotency key — a retry after a
          lost reply replays the original accept instead of refusing
          [Already_built]. *)
  | Insert of { client : string; request_id : string;
                shipment : Owner.shipment; trapdoor : Owner.trapdoor_state;
                trace : Trace.wire_ctx option }
      (** A forward-secure Insert shipment (owner → cloud).
          [(client, request_id)] is the idempotency key — a retry after a
          lost reply must {e not} re-append the shipment's primes or bump
          the generation a second time. *)
  | Receipt of { client : string; request_id : string }
      (** Poll the settlement status of a deferred receipt.
          Read-only: served from the batch manager's view, no chain
          transaction. *)
  | Dispute of { client : string; request_id : string; shard : int;
                 claims_blob : string; batch_witness : Bigint.t option }
      (** Challenge a committed batch leaf: the client
          replays the claims bytes it received ([claims_blob], a
          {!Slicer_contract.encode_claims} blob) and the shared VO if
          the search was batched, and the server relays an on-chain
          [dispute] with the Merkle inclusion proof. [shard] routes the
          challenge in a cluster (0 for a single server). *)
  | Ping
  | Stats
      (** Admin: a snapshot of the server's {!Obs} registry. Served even
          before a Build, and without a Hello — it reads state only. *)
  | Traces
      (** Admin: drain the process's completed trace spans
          ({!Trace.drain}); a router additionally drains every shard and
          merges, so one scrape sees the whole cluster. Like [Stats],
          served before a Build and without a Hello. *)

val request_trace : request -> Trace.wire_ctx option

val with_trace : Trace.wire_ctx option -> request -> request
(** Stamp a trace context onto a Search/Build/Insert (identity for
    other requests or a [None] context). *)

type provision = {
  pv_width : int;
  pv_payment : int;
  pv_generation : int;              (** bumped by every Insert *)
  pv_acc : Rsa_acc.params;
  pv_user_keys : Keys.user_keys;
  pv_trapdoor : Owner.trapdoor_state;
  pv_user_addr : Vm.address;
  pv_ac : Bigint.t;                 (** on-chain accumulation value *)
  pv_shards : int;                  (** cluster width; 1 for a single server *)
  pv_instance : string;             (** responder identity (shard id / router) *)
}

type settle_info = {
  si_batch : string;             (** the batch the receipt joined *)
  si_index : int;                (** its leaf index in the batch *)
  si_leaf : string;              (** encoded {!Slicer_contract.receipt_leaf} —
                                     the client recomputes and compares *)
  si_root : string option;       (** Merkle root, once committed on-chain *)
  si_proof : Merkle.proof option;(** inclusion proof, once committed *)
}
(** Settlement coordinates of a deferred (optimistically batched)
    receipt. Until the batch is committed only the coordinates are
    known; after commit the root and proof let the client verify
    membership with {!Merkle.verify}. *)

type receipt_status =
  | Rcp_unknown                        (** no such deferred receipt *)
  | Rcp_pending of settle_info         (** in the open batch *)
  | Rcp_committed of settle_info       (** root posted; window running.
                                           [si_root]/[si_proof] are [Some]. *)
  | Rcp_final of { batch : string }    (** finalized — cloud paid *)
  | Rcp_refunded of { batch : string } (** batch slashed — escrow refunded *)

type shard_part = {
  shp_shard : int;                      (** which shard produced this section *)
  shp_claims : Slicer_contract.claim list;
  shp_batch_witness : Bigint.t option;
  shp_ac : Bigint.t;                    (** that shard's on-chain [Ac_i] *)
  shp_receipt : Vm.receipt;             (** that shard's settlement receipt *)
  shp_settle : settle_info option;      (** that shard's deferred coordinates *)
}
(** One shard's section of a routed search reply. Algorithm-5
    verification stays per-shard and constant-size: each part's claims
    verify against its own [shp_ac], never against a global product. *)

type search_reply = {
  sr_request_id : string;
  sr_generation : int;
  sr_claims : Slicer_contract.claim list;
      (** merged claims, in the request's token order *)
  sr_batch_witness : Bigint.t option;
  sr_receipt : Vm.receipt;          (** the chain's settlement receipt
                                        (router replies: synthesized merge) *)
  sr_ac : Bigint.t;                 (** on-chain [Ac] to verify against *)
  sr_parts : shard_part list;
      (** empty for a single server; non-empty means the reply was
          merged by a router and each part must verify separately *)
  sr_settle : settle_info option;
      (** present when settlement was deferred into a batch (single
          server); routed replies carry per-part coordinates instead *)
}

type err_code =
  | Busy | Bad_request | Not_ready | Already_built | Unknown_user | Internal
  | Version_mismatch

val err_code_to_string : err_code -> string

type response =
  | Welcome of provision
  | Found of search_reply
  | Accepted of { generation : int }   (** Build/Insert acknowledged *)
  | Receipt_reply of receipt_status    (** answer to {!request-Receipt} *)
  | Disputed of { dp_slashed : bool; dp_receipt : Vm.receipt }
      (** answer to {!request-Dispute}: whether the leaf was proven bad
          (deposit slashed, batch refunded) plus the chain receipt — a
          rejected dispute carries the revert reason inside. *)
  | Pong
  | Stats_reply of { st_json : string; st_text : string }
      (** The same registry snapshot rendered twice: [st_json] for
          programs, [st_text] in Prometheus text exposition format. *)
  | Stats_live
      (** The serving process's own registry, rendered when the reply is
          framed ({!Server.frame}): straight from the registry's buffer
          ({!Obs.Export.exposition}), so a scrape leaves one string, its
          frame. Its bytes are a [Stats_reply]'s, and it decodes as one;
          {!response_sized} renders it into two strings first. *)
  | Traces_reply of { tr_spans : Trace.span list }
      (** Flat list of completed spans (whole trees only); the scraper
          reassembles them with {!Trace.Tree.assemble}. *)
  | Refused of { code : err_code; detail : string }
      (** Structured error frame — the server's graceful degradation
          path; it never answers bad input with silence or a crash. *)

val encode_request : request -> string

val request_sized : request -> Bytesutil.sized
(** The {!encode_request} bytes as a streamed encoding: what the
    service journals, with no copy of the request in memory. *)

val decode_request : string -> request option

val decode_request_at : string -> off:int -> len:int -> request option
(** {!decode_request} of the bytes [\[off, off + len)] of a string, read
    in place: the server decodes a request from its receive arena
    ({!Frame.Decoder.view}). Every piece the request keeps is copied out
    during the call, so the bytes may be overwritten once it returns. *)

val response_sized : response -> Bytesutil.sized
(** The {!encode_response} bytes as a streamed encoding: what a server
    frames in one pass ({!Frame.encode_sized}), with no copy of the
    payload or of a nested piece on the way. *)

val encode_response : response -> string
(** The payload in one string: what the service's reply cache keeps. *)

val stats_payload : Buffer.t -> json_len:int -> int * (Bytes.t -> int -> unit)
(** [stats_payload buf ~json_len] is the size of the [Stats_reply]
    payload whose JSON is the first [json_len] bytes of [buf] and whose
    text is the rest, and a writer of it for {!Frame.encode_with}. *)

val decode_response : string -> response option

val retryable : response -> bool
(** [true] only for [Refused {code = Busy; _}] — the one server error a
    client should retry (with backoff) rather than surface. *)
