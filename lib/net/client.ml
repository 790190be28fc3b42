let log_src = Logs.Src.create "slicer.net.client" ~doc:"Slicer network client"

module Log = (val Logs.src_log log_src : Logs.LOG)

let c_retries = Obs.counter ~help:"RPC attempts beyond the first" "slicer_net_client_retries_total"

let c_connects =
  Obs.counter ~help:"TCP/Unix-socket connects (first and re-)" "slicer_net_client_connects_total"

let c_reconnects =
  Obs.counter ~help:"connects after a previous socket died" "slicer_net_client_reconnects_total"

let h_backoff =
  Obs.histogram ~help:"time slept in retry backoff" "slicer_net_client_backoff_seconds"

type config = {
  connect_timeout : float;
  request_timeout : float;
  max_attempts : int;
  backoff_base : float;
  backoff_max : float;
  jitter : float;
  max_payload : int;
}

let default_config =
  { connect_timeout = 5.;
    request_timeout = 30.;
    max_attempts = 5;
    backoff_base = 0.05;
    backoff_max = 2.;
    jitter = 0.5;
    max_payload = Frame.default_max_payload }

let backoff_delay cfg ~rand ~attempt =
  let attempt = max 1 attempt in
  let base = cfg.backoff_base *. (2. ** float_of_int (attempt - 1)) in
  let capped = Float.min cfg.backoff_max base in
  let spread = 1. -. (cfg.jitter /. 2.) +. (cfg.jitter *. rand) in
  capped *. spread

type error =
  | Transport of string
  | Refused of Wire.err_code * string
  | Bad_reply of string
  | Exhausted of { attempts : int; last : string }

let error_to_string = function
  | Transport s -> "transport: " ^ s
  | Refused (c, d) -> Printf.sprintf "refused (%s): %s" (Wire.err_code_to_string c) d
  | Bad_reply s -> "bad reply: " ^ s
  | Exhausted { attempts; last } ->
    Printf.sprintf "gave up after %d attempts; last failure: %s" attempts last

type provisioned = {
  p_user : User.t;
  p_width : int;
  p_payment : int;
  p_acc : Rsa_acc.params;
  p_addr : Vm.address;
}

type t = {
  cfg : config;
  endpoint : Server.endpoint;
  cname : string;
  rng : Drbg.t;
  mutable sock : Unix.file_descr option;
  mutable prov : provisioned option;
  mutable gen : int;
  mutable counter : int;
  mutable ever_connected : bool;
  (* Dispute evidence for recent deferred settlements: request id →
     per-shard (shard, claims bytes, batch witness). A dispute replays
     exactly the claims the cloud served, so the client keeps them for
     as long as the batch may still be open to challenge. Bounded FIFO
     like the server's reply cache. *)
  recent : (string, (int * string * Bigint.t option) list) Hashtbl.t;
  recent_order : string Queue.t;
  max_recent : int;
  mutable last_request : string option;
}

let name t = t.cname

let provisioned_exn t =
  match t.prov with Some p -> p | None -> invalid_arg "Net.Client: not provisioned"

let width t = (provisioned_exn t).p_width
let payment t = (provisioned_exn t).p_payment
let user_address t = (provisioned_exn t).p_addr
let generation t = t.gen

let close_sock t =
  match t.sock with
  | Some fd ->
    t.sock <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

let close = close_sock

let sockaddr_of_endpoint = function
  | Server.Tcp (host, port) -> Unix.ADDR_INET (Server.resolve_host host, port)
  | Server.Unix_socket path -> Unix.ADDR_UNIX path

(* Non-blocking connect with a deadline, then back to blocking mode
   (frame reads implement their own timeouts with poll). The socket
   domain follows the resolved address, so IPv6 endpoints work. *)
let connect_fd cfg endpoint =
  let addr = sockaddr_of_endpoint endpoint in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  try
    Unix.set_nonblock fd;
    (match Unix.connect fd addr with
     | () -> ()
     | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
       (match
          Poll.wait_fd fd ~read:false ~write:true
            ~timeout_ms:(Poll.ms_of_span cfg.connect_timeout)
        with
        | r when r > 0 ->
          (match Unix.getsockopt_error fd with
           | None -> ()
           | Some err -> raise (Unix.Unix_error (err, "connect", "")))
        | _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))));
    Unix.clear_nonblock fd;
    Ok fd
  with
  | Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Unix.error_message e)

let ensure_sock t =
  match t.sock with
  | Some fd -> Ok fd
  | None ->
    (match connect_fd t.cfg t.endpoint with
     | Ok fd ->
       Obs.Counter.incr c_connects;
       if t.ever_connected then Obs.Counter.incr c_reconnects;
       t.ever_connected <- true;
       t.sock <- Some fd;
       Ok fd
     | Error e -> Error e)

(* One attempt: send the framed request, await the response. Any
   transport or framing failure invalidates the socket (the next
   attempt reconnects). *)
let exchange t frame =
  match ensure_sock t with
  | Error e -> Error (`Retry ("connect: " ^ e))
  | Ok fd ->
    (match Frame.write_frame fd frame with
     | () ->
       (match Frame.read ~max_payload:t.cfg.max_payload ~timeout:t.cfg.request_timeout fd with
        | Ok { Frame.tag; payload } when tag = Wire.response_tag ->
          (match Wire.decode_response payload with
           | Some resp -> Ok resp
           | None ->
             close_sock t;
             Error (`Fatal (Bad_reply "undecodable response payload")))
        | Ok _ ->
          close_sock t;
          Error (`Retry "response with unexpected frame tag")
        | Error e ->
          close_sock t;
          Error (`Retry (Frame.error_to_string e)))
     | exception Unix.Unix_error (e, _, _) ->
       close_sock t;
       Error (`Retry ("send: " ^ Unix.error_message e)))

(* Bounded retry with jittered exponential backoff. The request is
   framed once, in one pass from its pieces, and every attempt sends
   the same bytes — in particular the request id, which every
   effectful request (Search, Build, Insert) carries — so re-sends are
   idempotent server-side. A request too large for one frame is refused
   here, unsent, as the server would refuse its frame. *)
let rpc t req =
  let payload = Wire.request_sized req in
  if payload.Bytesutil.size > Frame.default_max_payload then
    Error
      (Refused
         ( Wire.Bad_request,
           Printf.sprintf "a %d-byte request exceeds the %d-byte frame limit"
             payload.Bytesutil.size Frame.default_max_payload ))
  else
  let frame = Frame.encode_sized ~tag:Wire.request_tag payload in
  let rec attempt n last =
    if n > t.cfg.max_attempts then
      Error (Exhausted { attempts = t.cfg.max_attempts; last })
    else begin
      (if n > 1 then begin
         let rand = float_of_int (Drbg.uniform_int t.rng 1_000_000) /. 1_000_000. in
         let delay = backoff_delay t.cfg ~rand ~attempt:(n - 1) in
         Log.debug (fun m -> m "%s: attempt %d after %.0f ms (%s)" t.cname n (delay *. 1000.) last);
         Obs.Counter.incr c_retries;
         Obs.Histogram.record_s h_backoff delay;
         Unix.sleepf delay
       end);
      match exchange t frame with
      | Ok resp when Wire.retryable resp ->
        let detail = match resp with Wire.Refused { detail; _ } -> detail | _ -> "busy" in
        attempt (n + 1) ("server busy: " ^ detail)
      | Ok (Wire.Refused { code; detail }) -> Error (Refused (code, detail))
      | Ok resp -> Ok resp
      | Error (`Retry reason) -> attempt (n + 1) reason
      | Error (`Fatal e) -> Error e
    end
  in
  attempt 1 "first attempt"

let apply_provision t (p : Wire.provision) =
  t.prov <-
    Some
      { p_user = User.create ~keys:p.Wire.pv_user_keys ~width:p.Wire.pv_width p.Wire.pv_trapdoor;
        p_width = p.Wire.pv_width;
        p_payment = p.Wire.pv_payment;
        p_acc = p.Wire.pv_acc;
        p_addr = p.Wire.pv_user_addr };
  t.gen <- p.Wire.pv_generation

let hello t =
  match rpc t (Wire.Hello { client = t.cname; proto = Wire.proto_version }) with
  | Ok (Wire.Welcome p) ->
    apply_provision t p;
    Ok ()
  | Ok _ -> Error (Bad_reply "expected a welcome")
  | Error e -> Error e

(* Stamp the calling thread's trace context (if any) onto an outgoing
   effectful request. *)
let stamp req = Wire.with_trace (Trace.current ()) req

let connect ?(config = default_config) ?name ?(provision = true) endpoint =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cname =
    match name with Some n -> n | None -> Printf.sprintf "client-%d" (Unix.getpid ())
  in
  let t =
    { cfg = config;
      endpoint;
      cname;
      rng = Drbg.create ~seed:("slicer-net-client:" ^ cname);
      sock = None;
      prov = None;
      gen = 0;
      counter = 0;
      ever_connected = false;
      recent = Hashtbl.create 64;
      recent_order = Queue.create ();
      max_recent = 256;
      last_request = None }
  in
  if not provision then Ok t
  else
    match hello t with
    | Ok () -> Ok t
    | Error e ->
      close_sock t;
      Error e

let refresh t = hello t

let ping t =
  let t0 = Obs.Clock.now () in
  match rpc t Wire.Ping with
  | Ok Wire.Pong -> Ok (Obs.Clock.now () -. t0)
  | Ok _ -> Error (Bad_reply "expected a pong")
  | Error e -> Error e

let stats t =
  match rpc t Wire.Stats with
  | Ok (Wire.Stats_reply { st_json; st_text }) -> Ok (st_json, st_text)
  | Ok _ -> Error (Bad_reply "expected a stats reply")
  | Error e -> Error e

let traces t =
  match rpc t Wire.Traces with
  | Ok (Wire.Traces_reply { tr_spans }) -> Ok tr_spans
  | Ok _ -> Error (Bad_reply "expected a traces reply")
  | Error e -> Error e

let fresh_request_id t =
  t.counter <- t.counter + 1;
  Printf.sprintf "%s#%d" t.cname t.counter

let remember t key entry =
  if not (Hashtbl.mem t.recent key) then begin
    if Queue.length t.recent_order >= t.max_recent then
      Hashtbl.remove t.recent (Queue.pop t.recent_order);
    Queue.push key t.recent_order;
    Hashtbl.replace t.recent key entry
  end

(* Client-side check of a deferred receipt: recompute the leaf the
   cloud must have committed — the leaf binds this client's name, the
   composite on-chain request id, and digests of exactly the claims and
   VO received — and, once the batch is committed, check the Merkle
   inclusion proof against the posted root. A cloud that batches
   different bytes than it served is caught here, before any dispute. *)
let settle_ok ~client ~onchain_id ~claims ~witness (si : Wire.settle_info) =
  let leaf =
    Slicer_contract.encode_leaf
      (Slicer_contract.receipt_leaf ~client ~request:onchain_id ~claims ~batch_witness:witness)
  in
  String.equal leaf si.Wire.si_leaf
  && (match (si.Wire.si_root, si.Wire.si_proof) with
      | Some root, Some proof -> Merkle.verify ~root ~leaf proof
      | _ -> true)

(* The appended "/s<i>" starts with a character no decimal digit
   contains, so distinct (id, shard) pairs can never alias; and a retry
   (client- or router-initiated) re-sends the identical sub-id, which is
   what lets the shard's idempotency cache absorb it. *)
let sub_id request_id shard = Printf.sprintf "%s/s%d" request_id shard

(* A direct reply is one part: shard 0, whose on-chain request id is
   [client ‖ request_id]. A routed reply carries one part per involved
   shard, each settled under that shard's sub-id. *)
let parts_of_reply t ~request_id (r : Wire.search_reply) =
  match r.Wire.sr_parts with
  | [] ->
    [ ( Bytesutil.concat [ t.cname; request_id ],
        { Wire.shp_shard = 0;
          shp_claims = r.Wire.sr_claims;
          shp_batch_witness = r.Wire.sr_batch_witness;
          shp_ac = r.Wire.sr_ac;
          shp_receipt = r.Wire.sr_receipt;
          shp_settle = r.Wire.sr_settle } ) ]
  | parts ->
    List.map
      (fun (p : Wire.shard_part) ->
        (Bytesutil.concat [ t.cname; sub_id request_id p.Wire.shp_shard ], p))
      parts

(* The claims the user decrypts must be the ones it verifies, and must
   answer exactly the tokens it sent: one claim per token, in the
   request's order. A direct reply is its own one part; a routed
   reply's parts must hold its merged claims, each once. *)
let answers_request ~tokens (r : Wire.search_reply) =
  List.equal String.equal
    (List.map (fun (c : Slicer_contract.claim) -> c.Slicer_contract.token_bytes) r.Wire.sr_claims)
    (List.map Slicer_types.token_bytes tokens)
  &&
  match r.Wire.sr_parts with
  | [] -> true
  | parts ->
    (* Compared as multisets of their canonical encodings. *)
    let bag claims =
      List.sort String.compare
        (List.map (fun c -> Slicer_contract.encode_claims [ c ]) claims)
    in
    bag r.Wire.sr_claims
    = bag (List.concat_map (fun (p : Wire.shard_part) -> p.Wire.shp_claims) parts)

let outcome_of_reply t prov ~request_id ~tokens (r : Wire.search_reply) =
  let claims = r.Wire.sr_claims in
  let paid =
    match r.Wire.sr_receipt.Vm.r_output with Ok [ "paid" ] -> true | Ok _ | Error _ -> false
  in
  let parts = parts_of_reply t ~request_id r in
  (* Client-side Algorithm 5 against the on-chain Ac: the user need not
     trust the server's word for the settlement. Each part verifies
     against its own shard's Ac_i — per-shard and constant-size, exactly
     as a direct client of that shard would check it. *)
  let locally_ok =
    List.for_all
      (fun (_, (p : Wire.shard_part)) ->
        match p.Wire.shp_batch_witness with
        | Some witness ->
          Verifier.verify_claims_batched prov.p_acc ~ac:p.Wire.shp_ac p.Wire.shp_claims ~witness
        | None -> Verifier.verify_claims prov.p_acc ~ac:p.Wire.shp_ac p.Wire.shp_claims)
      parts
  in
  (* Deferred settlements: check leaf/membership and squirrel away the
     dispute evidence. [deferred] is false on the eager path, where the
     chain already verified. *)
  let settle_parts =
    List.filter_map
      (fun (onchain_id, (p : Wire.shard_part)) ->
        Option.map (fun si -> (onchain_id, p, si)) p.Wire.shp_settle)
      parts
  in
  let deferred = settle_parts <> [] in
  if deferred then
    remember t request_id
      (List.map
         (fun (_, (p : Wire.shard_part), _) ->
           ( p.Wire.shp_shard,
             Slicer_contract.encode_claims p.Wire.shp_claims,
             p.Wire.shp_batch_witness ))
         settle_parts);
  let membership_ok =
    List.for_all
      (fun (onchain_id, (p : Wire.shard_part), si) ->
        settle_ok ~client:t.cname ~onchain_id ~claims:p.Wire.shp_claims
          ~witness:p.Wire.shp_batch_witness si)
      settle_parts
  in
  let vo_bytes =
    List.fold_left
      (fun n (_, (p : Wire.shard_part)) ->
        n + Protocol.vo_bytes ~batch_witness:p.Wire.shp_batch_witness p.Wire.shp_claims)
      0 parts
  in
  t.gen <- r.Wire.sr_generation;
  (* Eager: the chain's word ([paid]) plus our own Algorithm 5.
     Deferred: no chain verdict yet — our Algorithm 5 plus the leaf /
     Merkle membership check stand in until finality. Either way only
     over claims that answer this request. *)
  Protocol.outcome prov.p_user claims
    ~verified:
      (answers_request ~tokens r && (if deferred then membership_ok else paid) && locally_ok)
    ~vo_bytes ~token_count:(List.length tokens) ~receipt:r.Wire.sr_receipt

let search ?(batched = false) t query =
  let prov = provisioned_exn t in
  match User.gen_tokens ~rng:t.rng prov.p_user query with
  | [] -> Ok Protocol.no_tokens
  | tokens ->
    let request_id = fresh_request_id t in
    t.last_request <- Some request_id;
    (match
       rpc t
         (stamp (Wire.Search { client = t.cname; request_id; batched; tokens; trace = None }))
     with
     | Ok (Wire.Found r) when r.Wire.sr_request_id = request_id ->
       Ok (outcome_of_reply t prov ~request_id ~tokens r)
     | Ok (Wire.Found r) ->
       Error
         (Bad_reply (Printf.sprintf "reply for %S, expected %S" r.Wire.sr_request_id request_id))
     | Ok _ -> Error (Bad_reply "expected a search result")
     | Error e -> Error e)

let build_request ~client ~request_id ~width ~payment ~acc ~tdp_public ~user_keys ~shipment
    ~trapdoor =
  Wire.Build
    { client; request_id; width; payment; acc;
      tdp_n = tdp_public.Rsa_tdp.pn; tdp_e = tdp_public.Rsa_tdp.e;
      user_k = user_keys.Keys.u_k; user_k_r = user_keys.Keys.u_k_r;
      shipment; trapdoor; trace = None }

let build t ~width ~payment ~acc ~tdp_public ~user_keys ~shipment ~trapdoor =
  let request_id = fresh_request_id t in
  match
    rpc t
      (stamp
         (build_request ~client:t.cname ~request_id ~width ~payment ~acc ~tdp_public ~user_keys
            ~shipment ~trapdoor))
  with
  | Ok (Wire.Accepted { generation }) ->
    t.gen <- generation;
    Ok generation
  | Ok _ -> Error (Bad_reply "expected an accept")
  | Error e -> Error e

let seeded_build ~width ~payment ~seed records =
  let owner, shipment, _ =
    Protocol.seeded_owner ~width ~tdp_bits:512 ~acc_bits:512 ~seed records
  in
  let keys = Owner.keys owner in
  build_request ~client:"owner" ~request_id:"build" ~width ~payment
    ~acc:(Owner.acc_params owner) ~tdp_public:keys.Keys.tdp_public
    ~user_keys:(Keys.for_user keys) ~shipment ~trapdoor:(Owner.export_trapdoor_state owner)

let insert t ~shipment ~trapdoor =
  let request_id = fresh_request_id t in
  match
    rpc t
      (stamp (Wire.Insert { client = t.cname; request_id; shipment; trapdoor; trace = None }))
  with
  | Ok (Wire.Accepted { generation }) ->
    t.gen <- generation;
    Ok generation
  | Ok _ -> Error (Bad_reply "expected an accept")
  | Error e -> Error e

(* --- batched settlement: finality polling and disputes ------------------- *)

let last_request_id t = t.last_request

let receipt t ~request_id =
  match rpc t (Wire.Receipt { client = t.cname; request_id }) with
  | Ok (Wire.Receipt_reply st) -> Ok st
  | Ok _ -> Error (Bad_reply "expected a receipt reply")
  | Error e -> Error e

let dispute ?shard t ~request_id =
  match Hashtbl.find_opt t.recent request_id with
  | None -> Error (Bad_reply (Printf.sprintf "no deferred evidence kept for %S" request_id))
  | Some entries ->
    let entry =
      match shard with
      | None -> List.nth_opt entries 0
      | Some s -> List.find_opt (fun (i, _, _) -> i = s) entries
    in
    (match entry with
     | None -> Error (Bad_reply "no deferred evidence for that shard")
     | Some (shard, claims_blob, batch_witness) ->
       (match
          rpc t (Wire.Dispute { client = t.cname; request_id; shard; claims_blob;
                                batch_witness })
        with
        | Ok (Wire.Disputed { dp_slashed; dp_receipt }) -> Ok (dp_slashed, dp_receipt)
        | Ok _ -> Error (Bad_reply "expected a dispute verdict")
        | Error e -> Error e))
