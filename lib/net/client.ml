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
let requests_sent t = t.counter

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

(* One attempt: send the request, await the response. Any transport or
   framing failure invalidates the socket (the next attempt
   reconnects). *)
let exchange t payload =
  match ensure_sock t with
  | Error e -> Error (`Retry ("connect: " ^ e))
  | Ok fd ->
    (match Frame.write fd ~tag:Wire.request_tag payload with
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

(* Bounded retry with jittered exponential backoff. The request bytes
   are identical across attempts — in particular the request id, which
   every effectful request (Search, Build, Insert) carries — so
   re-sends are idempotent server-side. *)
let rpc t req =
  let payload = Wire.encode_request req in
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
      match exchange t payload with
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

let outcome_of_reply t prov ~request_id ~token_count (r : Wire.search_reply) =
  let claims = r.Wire.sr_claims in
  let paid =
    match r.Wire.sr_receipt.Vm.r_output with Ok [ "paid" ] -> true | Ok _ | Error _ -> false
  in
  (* Client-side Algorithm 5 against the on-chain Ac: the user need not
     trust the server's word for the settlement. A routed reply carries
     one part per involved shard; each part verifies against that
     shard's own Ac_i — per-shard and constant-size, exactly as a
     direct client of that shard would check it. *)
  let verify ~ac ~witness claims =
    match witness with
    | Some witness -> Verifier.verify_claims_batched prov.p_acc ~ac claims ~witness
    | None -> Verifier.verify_claims prov.p_acc ~ac claims
  in
  let locally_ok =
    match r.Wire.sr_parts with
    | [] -> verify ~ac:r.Wire.sr_ac ~witness:r.Wire.sr_batch_witness claims
    | parts ->
      List.for_all
        (fun (p : Wire.shard_part) ->
          verify ~ac:p.Wire.shp_ac ~witness:p.Wire.shp_batch_witness p.Wire.shp_claims)
        parts
  in
  (* Deferred settlements: check leaf/membership and squirrel away the
     dispute evidence. [deferred] is false on the eager path, where the
     chain already verified. *)
  let deferred, membership_ok =
    match (r.Wire.sr_settle, r.Wire.sr_parts) with
    | Some si, _ ->
      remember t request_id [ (0, Slicer_contract.encode_claims claims, r.Wire.sr_batch_witness) ];
      ( true,
        settle_ok ~client:t.cname
          ~onchain_id:(Bytesutil.concat [ t.cname; request_id ])
          ~claims ~witness:r.Wire.sr_batch_witness si )
    | None, parts ->
      let settle_parts =
        List.filter_map
          (fun (p : Wire.shard_part) ->
            Option.map (fun si -> (p, si)) p.Wire.shp_settle)
          parts
      in
      if settle_parts = [] then (false, true)
      else begin
        remember t request_id
          (List.map
             (fun ((p : Wire.shard_part), _) ->
               ( p.Wire.shp_shard,
                 Slicer_contract.encode_claims p.Wire.shp_claims,
                 p.Wire.shp_batch_witness ))
             settle_parts);
        ( true,
          List.for_all
            (fun ((p : Wire.shard_part), si) ->
              settle_ok ~client:t.cname
                ~onchain_id:
                  (Bytesutil.concat [ t.cname; sub_id request_id p.Wire.shp_shard ])
                ~claims:p.Wire.shp_claims ~witness:p.Wire.shp_batch_witness si)
            settle_parts )
      end
  in
  let vo_bytes =
    match r.Wire.sr_parts with
    | [] -> Protocol.vo_bytes ~batch_witness:r.Wire.sr_batch_witness claims
    | parts ->
      List.fold_left
        (fun n (p : Wire.shard_part) ->
          n + Protocol.vo_bytes ~batch_witness:p.Wire.shp_batch_witness p.Wire.shp_claims)
        0 parts
  in
  t.gen <- r.Wire.sr_generation;
  (* Eager: the chain's word ([paid]) plus our own Algorithm 5.
     Deferred: no chain verdict yet — our Algorithm 5 plus the leaf /
     Merkle membership check stand in until finality. *)
  Protocol.outcome prov.p_user claims
    ~verified:((if deferred then membership_ok else paid) && locally_ok)
    ~vo_bytes ~token_count ~receipt:r.Wire.sr_receipt

let search ?(batched = false) t query =
  let prov = provisioned_exn t in
  let tokens = User.gen_tokens ~rng:t.rng prov.p_user query in
  let request_id = fresh_request_id t in
  t.last_request <- Some request_id;
  match
    rpc t
      (stamp (Wire.Search { client = t.cname; request_id; batched; tokens; trace = None }))
  with
  | Ok (Wire.Found r) when r.Wire.sr_request_id = request_id ->
    Ok (outcome_of_reply t prov ~request_id ~token_count:(List.length tokens) r)
  | Ok (Wire.Found r) ->
    Error (Bad_reply (Printf.sprintf "reply for %S, expected %S" r.Wire.sr_request_id request_id))
  | Ok _ -> Error (Bad_reply "expected a search result")
  | Error e -> Error e

let build t ~width ~payment ~acc ~tdp_public ~user_keys ~shipment ~trapdoor =
  let request_id = fresh_request_id t in
  match
    rpc t
      (stamp
         (Wire.Build
            { client = t.cname; request_id; width; payment; acc;
              tdp_n = tdp_public.Rsa_tdp.pn; tdp_e = tdp_public.Rsa_tdp.e;
              user_k = user_keys.Keys.u_k; user_k_r = user_keys.Keys.u_k_r;
              shipment; trapdoor; trace = None }))
  with
  | Ok (Wire.Accepted { generation }) ->
    t.gen <- generation;
    Ok generation
  | Ok _ -> Error (Bad_reply "expected an accept")
  | Error e -> Error e

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

(* --- high-connection-count mode ------------------------------------------ *)

(* A swarm holds hundreds or thousands of cheap unprovisioned
   connections open against one server — the tail guard's way of
   proving the event loop's p99 stays flat at 1k+ sockets. Everything
   is non-blocking and poll-driven (a swarm's fds live far past
   FD_SETSIZE), with one [Frame.Decoder] per socket for the replies. *)
module Swarm = struct
  let g_swarm = Obs.gauge ~help:"swarm sockets currently open" "slicer_net_swarm_connections"

  type sconn = {
    s_fd : Unix.file_descr;
    s_dec : Frame.Decoder.t;
    mutable s_awaiting : bool;   (* a ping is in flight *)
    mutable s_next_ping : float; (* monotonic due time *)
    mutable s_replies : int;
  }

  type t = { mutable sw_conns : sconn list }

  (* Keep-alive pacing: well inside the server's default 30 s idle
     sweep. *)
  let ping_interval = 10.

  let ping_frame = lazy (Frame.encode ~tag:Wire.request_tag (Wire.encode_request Wire.Ping))

  (* At most this many pings awaiting replies at once, so a big swarm's
     keep-alive never trips the server's admission control. *)
  let ping_burst = 32

  let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

  let write_frame fd s =
    let len = String.length s in
    let rec go off =
      if off < len then
        match Unix.write_substring fd s off (len - off) with
        | n -> go (off + n)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ignore (Poll.wait_fd fd ~read:false ~write:true ~timeout_ms:1000);
          go off
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0

  (* Drain whatever the socket has; any complete response frame settles
     the in-flight ping. Returns [false] when the peer is gone or the
     stream broke. *)
  let pump_reads c =
    let rec parse () =
      match Frame.Decoder.next c.s_dec with
      | Ok (Some _) ->
        c.s_replies <- c.s_replies + 1;
        c.s_awaiting <- false;
        c.s_next_ping <- Obs.Clock.now () +. ping_interval;
        parse ()
      | Ok None -> true
      | Error _ -> false
    in
    let rec go () =
      let buf, off = Frame.Decoder.space c.s_dec 512 in
      let room = Frame.Decoder.room c.s_dec in
      match Unix.read c.s_fd buf off room with
      | 0 -> false
      | n ->
        Frame.Decoder.commit c.s_dec n;
        if parse () then if n = room then go () else true else false
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
      | exception Unix.Unix_error _ -> false
    in
    go ()

  let drop t dead =
    if dead <> [] then begin
      List.iter (fun c -> close_fd c.s_fd) dead;
      Obs.Gauge.add g_swarm (-List.length dead);
      t.sw_conns <- List.filter (fun c -> not (List.memq c dead)) t.sw_conns
    end

  (* Fire due keep-alive pings (bounded burst) and collect replies. *)
  let tick ?(timeout_ms = 0) t =
    let nw = Obs.Clock.now () in
    let awaiting = List.length (List.filter (fun c -> c.s_awaiting) t.sw_conns) in
    let budget = ref (Stdlib.max 0 (ping_burst - awaiting)) in
    let dead = ref [] in
    List.iter
      (fun c ->
        if (not c.s_awaiting) && nw >= c.s_next_ping && !budget > 0 then begin
          decr budget;
          match write_frame c.s_fd (Lazy.force ping_frame) with
          | () -> c.s_awaiting <- true
          | exception Unix.Unix_error _ -> dead := c :: !dead
        end)
      t.sw_conns;
    drop t !dead;
    let conns = Array.of_list t.sw_conns in
    if Array.length conns > 0 then begin
      let pset = Poll.create () in
      Array.iter (fun c -> Poll.add pset c.s_fd ~read:true ~write:false) conns;
      match Poll.wait pset ~timeout_ms with
      | n when n > 0 ->
        let dead = ref [] in
        Array.iteri
          (fun i c ->
            let r = Poll.revents pset i in
            if (Poll.is_readable r || Poll.is_error r) && not (pump_reads c) then
              dead := c :: !dead)
          conns;
        drop t !dead
      | _ -> ()
    end

  let live t = List.length t.sw_conns
  let confirmed t = List.length (List.filter (fun c -> c.s_replies > 0) t.sw_conns)

  let close t =
    List.iter (fun c -> close_fd c.s_fd) t.sw_conns;
    Obs.Gauge.add g_swarm (-List.length t.sw_conns);
    t.sw_conns <- []

  let open_ ?(timeout = 60.) ~n endpoint =
    let addr = sockaddr_of_endpoint endpoint in
    let t = { sw_conns = [] } in
    let deadline = Obs.Clock.now () +. timeout in
    let add fd =
      Obs.Gauge.add g_swarm 1;
      t.sw_conns <-
        { s_fd = fd;
          s_dec = Frame.Decoder.create ();
          s_awaiting = false;
          s_next_ping = 0.; (* ping immediately: prove the socket end to end *)
          s_replies = 0 }
        :: t.sw_conns
    in
    (* Batched non-blocking connects: a whole batch is in flight at
       once, so a thousand sockets establish in a few round trips. *)
    while live t < n && Obs.Clock.now () < deadline do
      let batch = Stdlib.min 64 (n - live t) in
      let pending =
        List.init batch (fun _ ->
            let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
            Unix.set_nonblock fd;
            match Unix.connect fd addr with
            | () -> `Ready fd
            | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
              `Wait fd
            | exception Unix.Unix_error _ ->
              close_fd fd;
              `Failed)
      in
      List.iter
        (function
          | `Ready fd -> add fd
          | `Failed -> () (* retried by the outer loop until the deadline *)
          | `Wait fd ->
            (match Poll.wait_fd fd ~read:false ~write:true ~timeout_ms:5000 with
             | r when r > 0 ->
               (match Unix.getsockopt_error fd with
                | None -> add fd
                | Some _ -> close_fd fd)
             | _ -> close_fd fd))
        pending
    done;
    (* Settle the opening pings: every connection must prove the server
       answers it before the swarm counts as up. *)
    let rec settle () =
      if confirmed t < live t && Obs.Clock.now () < deadline then begin
        tick ~timeout_ms:50 t;
        settle ()
      end
    in
    settle ();
    drop t (List.filter (fun c -> c.s_replies = 0) t.sw_conns);
    t
end
