let ( let* ) = Option.bind

let request_tag = 0x01
let response_tag = 0x02

(* The one protocol revision this build speaks, checked in Hello. Peers
   of any other revision are refused there with [Version_mismatch];
   nothing is negotiated down. Revision 8 adds a third shipment piece,
   a Build's witnesses, so a revision-7 owner's Build and Insert would
   not decode. *)
let proto_version = 8

type request =
  | Hello of { client : string; proto : int }
  | Search of { client : string; request_id : string; batched : bool;
                tokens : Slicer_types.search_token list;
                trace : Trace.wire_ctx option }
  | Build of { client : string; request_id : string;
               width : int; payment : int; acc : Rsa_acc.params;
               tdp_n : Bigint.t; tdp_e : Bigint.t;
               user_k : string; user_k_r : string;
               shipment : Owner.shipment; trapdoor : Owner.trapdoor_state;
               trace : Trace.wire_ctx option }
  | Insert of { client : string; request_id : string;
                shipment : Owner.shipment; trapdoor : Owner.trapdoor_state;
                trace : Trace.wire_ctx option }
  | Receipt of { client : string; request_id : string }
  | Dispute of { client : string; request_id : string; shard : int;
                 claims_blob : string; batch_witness : Bigint.t option }
  | Ping
  | Stats
  | Traces

type settle_info = {
  si_batch : string;
  si_index : int;
  si_leaf : string;
  si_root : string option;
  si_proof : Merkle.proof option;
}

type receipt_status =
  | Rcp_unknown
  | Rcp_pending of settle_info
  | Rcp_committed of settle_info
  | Rcp_final of { batch : string }
  | Rcp_refunded of { batch : string }

type provision = {
  pv_width : int;
  pv_payment : int;
  pv_generation : int;
  pv_acc : Rsa_acc.params;
  pv_user_keys : Keys.user_keys;
  pv_trapdoor : Owner.trapdoor_state;
  pv_user_addr : Vm.address;
  pv_ac : Bigint.t;
  pv_shards : int;
  pv_instance : string;
}

type shard_part = {
  shp_shard : int;
  shp_claims : Slicer_contract.claim list;
  shp_batch_witness : Bigint.t option;
  shp_ac : Bigint.t;
  shp_receipt : Vm.receipt;
  shp_settle : settle_info option;
}

type search_reply = {
  sr_request_id : string;
  sr_generation : int;
  sr_claims : Slicer_contract.claim list;
  sr_batch_witness : Bigint.t option;
  sr_receipt : Vm.receipt;
  sr_ac : Bigint.t;
  sr_parts : shard_part list;
  sr_settle : settle_info option;
}

type err_code =
  | Busy | Bad_request | Not_ready | Already_built | Unknown_user | Internal
  | Version_mismatch

let err_code_to_string = function
  | Busy -> "busy"
  | Bad_request -> "bad_request"
  | Not_ready -> "not_ready"
  | Already_built -> "already_built"
  | Unknown_user -> "unknown_user"
  | Internal -> "internal"
  | Version_mismatch -> "version_mismatch"

let err_code_of_string = function
  | "busy" -> Some Busy
  | "bad_request" -> Some Bad_request
  | "not_ready" -> Some Not_ready
  | "already_built" -> Some Already_built
  | "unknown_user" -> Some Unknown_user
  | "internal" -> Some Internal
  | "version_mismatch" -> Some Version_mismatch
  | _ -> None

type response =
  | Welcome of provision
  | Found of search_reply
  | Accepted of { generation : int }
  | Receipt_reply of receipt_status
  | Disputed of { dp_slashed : bool; dp_receipt : Vm.receipt }
  | Pong
  | Stats_reply of { st_json : string; st_text : string }
  | Stats_live
  | Traces_reply of { tr_spans : Trace.span list }
  | Refused of { code : err_code; detail : string }

(* Small helpers: streamed pieces, non-negative ints and
   option-of-bigint pieces. *)

let strings = List.map Bytesutil.sized_string

let message pieces = Bytesutil.sized_concat (strings pieces)

let nat_of_string s =
  let* n = int_of_string_opt s in
  if n < 0 then None else Some n

let bool_tag b = if b then "1" else "0"

let bool_of_tag = function "1" -> Some true | "0" -> Some false | _ -> None

let opt_bigint_to_bytes = function
  | None -> Bytesutil.concat [ "0" ]
  | Some w -> Bytesutil.concat [ "1"; Bigint.to_bytes_be w ]

let opt_bigint_of_bytes s =
  let* pieces = Bytesutil.split s in
  match pieces with
  | [ "0" ] -> Some None
  | [ "1"; w ] -> Some (Some (Bigint.of_bytes_be w))
  | _ -> None

(* --- trace context ----------------------------------------------------- *)

(* The optional trailing piece of a Search/Build/Insert. With
   [trace = None] nothing is appended, so the bytes of an untraced
   request, journaled ones included, do not depend on tracing. *)

let trace_to_bytes (w : Trace.wire_ctx) =
  Bytesutil.concat [ Trace.id_to_string w.Trace.w_trace; string_of_int w.Trace.w_parent ]

let trace_of_bytes s =
  let* pieces = Bytesutil.split s in
  match pieces with
  | [ id; parent ] ->
    let* w_trace = Trace.id_of_string id in
    let* w_parent = nat_of_string parent in
    if w_trace = 0L then None else Some { Trace.w_trace; w_parent }
  | _ -> None

let request_trace = function
  | Search { trace; _ } | Build { trace; _ } | Insert { trace; _ } -> trace
  | Hello _ | Receipt _ | Dispute _ | Ping | Stats | Traces -> None

let with_trace trace req =
  match trace with
  | None -> req
  | Some _ ->
    (match req with
     | Search r -> Search { r with trace }
     | Build r -> Build { r with trace }
     | Insert r -> Insert { r with trace }
     | (Hello _ | Receipt _ | Dispute _ | Ping | Stats | Traces) as r -> r)

(* --- spans (Traces replies) -------------------------------------------- *)

let tags_to_bytes tags =
  Bytesutil.concat (List.concat_map (fun (k, v) -> [ k; v ]) tags)

let tags_of_bytes blob =
  let* pieces = Bytesutil.split blob in
  let rec pair acc = function
    | [] -> Some (List.rev acc)
    | k :: v :: rest -> pair ((k, v) :: acc) rest
    | [ _ ] -> None
  in
  pair [] pieces

let span_sized (sp : Trace.span) =
  message
    [ Trace.id_to_string sp.Trace.sp_trace;
      string_of_int sp.Trace.sp_id;
      string_of_int sp.Trace.sp_parent;
      sp.Trace.sp_name;
      sp.Trace.sp_instance;
      string_of_int sp.Trace.sp_start_ns;
      string_of_int sp.Trace.sp_end_ns;
      tags_to_bytes sp.Trace.sp_tags ]

let span_of_bytes s =
  let* pieces = Bytesutil.split s in
  match pieces with
  | [ trace; id; parent; name; instance; start_ns; end_ns; tags_blob ] ->
    let* sp_trace = Trace.id_of_string trace in
    let* sp_id = nat_of_string id in
    let* sp_parent = nat_of_string parent in
    let* sp_start_ns = int_of_string_opt start_ns in
    let* sp_end_ns = int_of_string_opt end_ns in
    let* sp_tags = tags_of_bytes tags_blob in
    if sp_trace = 0L || sp_id = 0 then None
    else
      Some
        { Trace.sp_trace; sp_id; sp_parent; sp_name = name; sp_instance = instance;
          sp_start_ns; sp_end_ns; sp_tags }
  | _ -> None

let spans_of_bytes blob =
  let* pieces = Bytesutil.split blob in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | p :: rest ->
      let* sp = span_of_bytes p in
      go (sp :: acc) rest
  in
  go [] pieces

(* --- settlement info ----------------------------------------------------- *)

(* The optional Found piece carrying a deferred receipt's coordinates:
   the open batch it joined and its leaf index, plus — once the batch
   is committed on-chain — the Merkle root and inclusion proof the
   client checks membership against. *)

let settle_to_bytes si =
  let base = [ si.si_batch; string_of_int si.si_index; si.si_leaf ] in
  match (si.si_root, si.si_proof) with
  | Some root, Some proof -> Bytesutil.concat (base @ [ root; Merkle.proof_to_bytes proof ])
  | _ -> Bytesutil.concat base

let settle_of_bytes s =
  let* pieces = Bytesutil.split s in
  match pieces with
  | [ si_batch; index; si_leaf ] ->
    let* si_index = nat_of_string index in
    Some { si_batch; si_index; si_leaf; si_root = None; si_proof = None }
  | [ si_batch; index; si_leaf; root; proof_blob ] ->
    let* si_index = nat_of_string index in
    let* proof = Merkle.proof_of_bytes proof_blob in
    Some { si_batch; si_index; si_leaf; si_root = Some root; si_proof = Some proof }
  | _ -> None

let status_pieces = function
  | Rcp_unknown -> [ "unknown" ]
  | Rcp_pending si -> [ "pending"; settle_to_bytes si ]
  | Rcp_committed si -> [ "committed"; settle_to_bytes si ]
  | Rcp_final { batch } -> [ "final"; batch ]
  | Rcp_refunded { batch } -> [ "refunded"; batch ]

let status_of_pieces = function
  | [ "unknown" ] -> Some Rcp_unknown
  | [ "pending"; si ] -> Option.map (fun si -> Rcp_pending si) (settle_of_bytes si)
  | [ "committed"; si ] ->
    let* si = settle_of_bytes si in
    if si.si_root = None || si.si_proof = None then None else Some (Rcp_committed si)
  | [ "final"; batch ] -> Some (Rcp_final { batch })
  | [ "refunded"; batch ] -> Some (Rcp_refunded { batch })
  | _ -> None

(* --- requests --------------------------------------------------------- *)

(* [trace] appends the optional trailing context piece. *)
let trace_pieces = function None -> [] | Some w -> [ trace_to_bytes w ]

(* Build and Insert stream their shipment and trapdoor state from the
   owner's own strings: neither the encoder's buffer nor the journal's
   record holds an intermediate copy of either. *)
let request_sized req =
  let with_shipment before shipment trapdoor trace =
    Bytesutil.sized_concat
      (strings before
       @ [ Persist.shipment_sized shipment; Persist.trapdoor_state_sized trapdoor ]
       @ strings (trace_pieces trace))
  in
  match req with
  | Hello { client; proto } -> message [ "hello"; client; string_of_int proto ]
  | Search { client; request_id; batched; tokens; trace } ->
    message
      ([ "search"; client; request_id; bool_tag batched; Persist.tokens_to_bytes tokens ]
       @ trace_pieces trace)
  | Build { client; request_id; width; payment; acc; tdp_n; tdp_e; user_k; user_k_r;
            shipment; trapdoor; trace } ->
    with_shipment
      [ "build"; client; request_id; string_of_int width; string_of_int payment;
        Bigint.to_bytes_be acc.Rsa_acc.modulus; Bigint.to_bytes_be acc.Rsa_acc.generator;
        Bigint.to_bytes_be tdp_n; Bigint.to_bytes_be tdp_e;
        user_k; user_k_r ]
      shipment trapdoor trace
  | Insert { client; request_id; shipment; trapdoor; trace } ->
    with_shipment [ "insert"; client; request_id ] shipment trapdoor trace
  | Receipt { client; request_id } -> message [ "receipt"; client; request_id ]
  | Dispute { client; request_id; shard; claims_blob; batch_witness } ->
    message
      [ "dispute"; client; request_id; string_of_int shard; claims_blob;
        opt_bigint_to_bytes batch_witness ]
  | Ping -> message [ "ping" ]
  | Stats -> message [ "stats" ]
  | Traces -> message [ "traces" ]

let encode_request req = Bytesutil.sized_to_string (request_sized req)

(* A modulus no accumulator can use (even, or below 3) does not decode. *)
let acc_params_of_bytes modulus generator =
  match
    Rsa_acc.params_of_parts ~modulus:(Bigint.of_bytes_be modulus)
      ~generator:(Bigint.of_bytes_be generator)
  with
  | params -> Some params
  | exception Invalid_argument _ -> None

let decode_search ~trace client request_id batched tokens_blob =
  let* batched = bool_of_tag batched in
  let* tokens = Persist.tokens_of_bytes tokens_blob in
  Some (Search { client; request_id; batched; tokens; trace })

let decode_build ~trace client request_id width payment modulus generator tdp_n tdp_e
    user_k user_k_r shipment trapdoor =
  let* width = nat_of_string width in
  let* payment = nat_of_string payment in
  let* acc = acc_params_of_bytes modulus generator in
  let* shipment = shipment () in
  let* trapdoor = trapdoor () in
  Some
    (Build
       { client; request_id; width; payment; acc;
         tdp_n = Bigint.of_bytes_be tdp_n; tdp_e = Bigint.of_bytes_be tdp_e;
         user_k; user_k_r; shipment; trapdoor; trace })

let decode_insert ~trace client request_id shipment trapdoor =
  let* shipment = shipment () in
  let* trapdoor = trapdoor () in
  Some (Insert { client; request_id; shipment; trapdoor; trace })

(* The shipment piece of a Build or Insert and the trapdoor state after
   it are not copied out of [s]: they are left as empty placeholders among
   the pieces and decoded in place from their views
   ({!Persist.shipment_of_view}, {!Persist.trapdoor_state_of_view}).
   What the request keeps is copied out as it is decoded, so the request
   shares no byte with [s]. *)
let shipment_index = function "build" -> 11 | "insert" -> 3 | _ -> -1

let decode_request_at s ~off ~len =
  let* views = Bytesutil.views s ~off ~len in
  let piece (off, len) = String.sub s off len in
  let at = match views with tag :: _ -> shipment_index (piece tag) | [] -> -1 in
  let in_place i = at >= 0 && (i = at || i = at + 1) in
  let pieces = List.mapi (fun i v -> if in_place i then "" else piece v) views in
  let shipment () =
    let off, len = List.nth views at in
    Persist.shipment_of_view s ~off ~len
  in
  let trapdoor () =
    let off, len = List.nth views (at + 1) in
    Persist.trapdoor_state_of_view s ~off ~len
  in
  match pieces with
  | [ "hello"; client; proto ] ->
    let* proto = nat_of_string proto in
    Some (Hello { client; proto })
  | [ "search"; client; request_id; batched; tokens_blob ] ->
    decode_search ~trace:None client request_id batched tokens_blob
  | [ "search"; client; request_id; batched; tokens_blob; trace_blob ] ->
    let* trace = trace_of_bytes trace_blob in
    decode_search ~trace:(Some trace) client request_id batched tokens_blob
  | [ "build"; client; request_id; width; payment; modulus; generator; tdp_n; tdp_e;
      user_k; user_k_r; _; _ ] ->
    decode_build ~trace:None client request_id width payment modulus generator tdp_n tdp_e
      user_k user_k_r shipment trapdoor
  | [ "build"; client; request_id; width; payment; modulus; generator; tdp_n; tdp_e;
      user_k; user_k_r; _; _; trace_blob ] ->
    let* trace = trace_of_bytes trace_blob in
    decode_build ~trace:(Some trace) client request_id width payment modulus generator
      tdp_n tdp_e user_k user_k_r shipment trapdoor
  | [ "insert"; client; request_id; _; _ ] ->
    decode_insert ~trace:None client request_id shipment trapdoor
  | [ "insert"; client; request_id; _; _; trace_blob ] ->
    let* trace = trace_of_bytes trace_blob in
    decode_insert ~trace:(Some trace) client request_id shipment trapdoor
  | [ "receipt"; client; request_id ] -> Some (Receipt { client; request_id })
  | [ "dispute"; client; request_id; shard; claims_blob; witness_blob ] ->
    let* shard = int_of_string_opt shard in
    let* batch_witness = opt_bigint_of_bytes witness_blob in
    Some (Dispute { client; request_id; shard; claims_blob; batch_witness })
  | [ "ping" ] -> Some Ping
  | [ "stats" ] -> Some Stats
  | [ "traces" ] -> Some Traces
  | _ -> None

let decode_request s = decode_request_at s ~off:0 ~len:(String.length s)

(* --- responses -------------------------------------------------------- *)

(* One shard's section of a routed search reply: its claims verify
   against its own [shp_ac] (the shard's on-chain accumulation value),
   and its receipt is the settlement on that shard's chain. *)
let part_sized p =
  let base =
    Bytesutil.sized_string (string_of_int p.shp_shard)
    :: Slicer_contract.claims_sized p.shp_claims
    :: strings
         [ opt_bigint_to_bytes p.shp_batch_witness;
           Bigint.to_bytes_be p.shp_ac;
           Persist.receipt_to_bytes p.shp_receipt ]
  in
  match p.shp_settle with
  | None -> Bytesutil.sized_concat base
  | Some si -> Bytesutil.sized_concat (base @ [ Bytesutil.sized_string (settle_to_bytes si) ])

let part_of_bytes s =
  let* pieces = Bytesutil.split s in
  let decode shard claims_blob witness_blob ac receipt_blob shp_settle =
    let* shp_shard = nat_of_string shard in
    let* shp_claims = Slicer_contract.decode_claims claims_blob in
    let* shp_batch_witness = opt_bigint_of_bytes witness_blob in
    let* shp_receipt = Persist.receipt_of_bytes receipt_blob in
    Some
      { shp_shard; shp_claims; shp_batch_witness; shp_ac = Bigint.of_bytes_be ac; shp_receipt;
        shp_settle }
  in
  match pieces with
  | [ shard; claims_blob; witness_blob; ac; receipt_blob ] ->
    decode shard claims_blob witness_blob ac receipt_blob None
  | [ shard; claims_blob; witness_blob; ac; receipt_blob; settle_blob ] ->
    let* si = settle_of_bytes settle_blob in
    decode shard claims_blob witness_blob ac receipt_blob (Some si)
  | _ -> None

let parts_of_bytes blob =
  let* pieces = Bytesutil.split blob in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | p :: rest ->
      let* part = part_of_bytes p in
      go (part :: acc) rest
  in
  go [] pieces

(* Like a request, a response is a streamed encoding: a server frames
   it in one pass ({!Frame.encode_sized}), so neither the payload nor a
   nested piece (a Welcome's trapdoor state, a routed Found's parts) is
   copied into an intermediate string first. *)
let response_sized = function
  | Welcome p ->
    Bytesutil.sized_concat
      (strings
         [ "welcome"; string_of_int p.pv_width; string_of_int p.pv_payment;
           string_of_int p.pv_generation;
           Bigint.to_bytes_be p.pv_acc.Rsa_acc.modulus;
           Bigint.to_bytes_be p.pv_acc.Rsa_acc.generator;
           Bigint.to_bytes_be p.pv_user_keys.Keys.u_tdp_public.Rsa_tdp.pn;
           Bigint.to_bytes_be p.pv_user_keys.Keys.u_tdp_public.Rsa_tdp.e;
           p.pv_user_keys.Keys.u_k; p.pv_user_keys.Keys.u_k_r ]
       @ [ Persist.trapdoor_state_sized p.pv_trapdoor ]
       @ strings
           [ p.pv_user_addr; Bigint.to_bytes_be p.pv_ac; string_of_int p.pv_shards;
             p.pv_instance ])
  | Found r ->
    let base =
      strings [ "found"; r.sr_request_id; string_of_int r.sr_generation ]
      @ Slicer_contract.claims_sized r.sr_claims
        :: strings
             [ opt_bigint_to_bytes r.sr_batch_witness;
               Persist.receipt_to_bytes r.sr_receipt;
               Bigint.to_bytes_be r.sr_ac ]
    in
    let parts = Bytesutil.sized_concat (List.map part_sized r.sr_parts) in
    (match (r.sr_parts, r.sr_settle) with
     | [], None -> Bytesutil.sized_concat base
     | _, None -> Bytesutil.sized_concat (base @ [ parts ])
     | _, Some si ->
       (* Piece 8 forces piece 7 to exist, so an empty parts blob is
          unambiguous here (a 7-piece Found still requires parts). *)
       Bytesutil.sized_concat (base @ [ parts; Bytesutil.sized_string (settle_to_bytes si) ]))
  | Accepted { generation } -> message [ "accepted"; string_of_int generation ]
  | Receipt_reply status -> message ("receipt" :: status_pieces status)
  | Disputed { dp_slashed; dp_receipt } ->
    message [ "disputed"; bool_tag dp_slashed; Persist.receipt_to_bytes dp_receipt ]
  | Pong -> message [ "pong" ]
  | Stats_reply { st_json; st_text } -> message [ "stats"; st_json; st_text ]
  | Stats_live -> message [ "stats"; Obs.Export.to_json (); Obs.Export.to_prometheus () ]
  | Traces_reply { tr_spans } ->
    Bytesutil.sized_concat
      [ Bytesutil.sized_string "traces"; Bytesutil.sized_concat (List.map span_sized tr_spans) ]
  | Refused { code; detail } -> message [ "refused"; err_code_to_string code; detail ]

let encode_response resp = Bytesutil.sized_to_string (response_sized resp)

(* [message ["stats"; json; text]] with the JSON and the text read from
   [buf], where they lie back to back. *)
let stats_payload buf ~json_len =
  let text_len = Buffer.length buf - json_len in
  let len = 4 + 5 + 4 + json_len + 4 + text_len in
  let write b at =
    Bytes.set_int32_be b at 5l;
    Bytes.blit_string "stats" 0 b (at + 4) 5;
    Bytes.set_int32_be b (at + 9) (Int32.of_int json_len);
    Buffer.blit buf 0 b (at + 13) json_len;
    Bytes.set_int32_be b (at + 13 + json_len) (Int32.of_int text_len);
    Buffer.blit buf json_len b (at + 17 + json_len) text_len
  in
  (len, write)

let decode_welcome pieces =
  match pieces with
  | [ width; payment; generation; modulus; generator; tdp_n; tdp_e;
      u_k; u_k_r; trapdoor_blob; pv_user_addr; ac; shards; pv_instance ] ->
    let* pv_width = nat_of_string width in
    let* pv_payment = nat_of_string payment in
    let* pv_generation = nat_of_string generation in
    let* pv_shards = nat_of_string shards in
    let* pv_trapdoor = Persist.trapdoor_state_of_bytes trapdoor_blob in
    let* u_tdp_public =
      match
        Rsa_tdp.public_of_parts ~n:(Bigint.of_bytes_be tdp_n) ~e:(Bigint.of_bytes_be tdp_e)
      with
      | pk -> Some pk
      | exception Invalid_argument _ -> None
    in
    let* pv_acc = acc_params_of_bytes modulus generator in
    Some
      (Welcome
         { pv_width; pv_payment; pv_generation; pv_acc;
           pv_user_keys = { Keys.u_k; u_k_r; u_tdp_public };
           pv_trapdoor; pv_user_addr; pv_ac = Bigint.of_bytes_be ac;
           pv_shards; pv_instance })
  | _ -> None

let decode_found ?settle ~parts pieces =
  match pieces with
  | [ sr_request_id; generation; claims_blob; witness_blob; receipt_blob; ac ] ->
    let* sr_generation = nat_of_string generation in
    let* sr_claims = Slicer_contract.decode_claims claims_blob in
    let* sr_batch_witness = opt_bigint_of_bytes witness_blob in
    let* sr_receipt = Persist.receipt_of_bytes receipt_blob in
    Some
      (Found
         { sr_request_id; sr_generation; sr_claims; sr_batch_witness; sr_receipt;
           sr_ac = Bigint.of_bytes_be ac; sr_parts = parts; sr_settle = settle })
  | _ -> None

let decode_response s =
  let* pieces = Bytesutil.split s in
  match pieces with
  | "welcome" :: rest -> decode_welcome rest
  | [ "found"; sr_request_id; generation; claims_blob; witness_blob; receipt_blob; ac ] ->
    decode_found ~parts:[]
      [ sr_request_id; generation; claims_blob; witness_blob; receipt_blob; ac ]
  | [ "found"; sr_request_id; generation; claims_blob; witness_blob; receipt_blob; ac;
      parts_blob ] ->
    let* parts = parts_of_bytes parts_blob in
    let* () = if parts = [] then None else Some () in
    decode_found ~parts
      [ sr_request_id; generation; claims_blob; witness_blob; receipt_blob; ac ]
  | [ "found"; sr_request_id; generation; claims_blob; witness_blob; receipt_blob; ac;
      parts_blob; settle_blob ] ->
    let* parts = parts_of_bytes parts_blob in
    let* settle = settle_of_bytes settle_blob in
    decode_found ~settle ~parts
      [ sr_request_id; generation; claims_blob; witness_blob; receipt_blob; ac ]
  | "receipt" :: status_pieces ->
    let* status = status_of_pieces status_pieces in
    Some (Receipt_reply status)
  | [ "disputed"; slashed; receipt_blob ] ->
    let* dp_slashed = bool_of_tag slashed in
    let* dp_receipt = Persist.receipt_of_bytes receipt_blob in
    Some (Disputed { dp_slashed; dp_receipt })
  | [ "accepted"; generation ] ->
    let* generation = nat_of_string generation in
    Some (Accepted { generation })
  | [ "pong" ] -> Some Pong
  | [ "stats"; st_json; st_text ] -> Some (Stats_reply { st_json; st_text })
  | [ "traces"; spans_blob ] ->
    let* tr_spans = spans_of_bytes spans_blob in
    Some (Traces_reply { tr_spans })
  | [ "refused"; code; detail ] ->
    let* code = err_code_of_string code in
    Some (Refused { code; detail })
  | _ -> None

let retryable = function Refused { code = Busy; _ } -> true | _ -> false
