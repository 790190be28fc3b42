let log_src = Logs.Src.create "slicer.cluster.router" ~doc:"Slicer cluster router"

module Log = (val Logs.src_log log_src : Logs.LOG)

let c_requests = Obs.counter ~help:"requests routed" "slicer_router_requests_total"

let c_fanouts =
  Obs.counter ~help:"sub-requests fanned out to shards" "slicer_router_fanout_total"

let c_shard_errors =
  Obs.counter ~help:"sub-requests that failed (transport or refusal)"
    "slicer_router_shard_errors_total"

let h_fan =
  Obs.histogram ~help:"wall time of one full fan-out (all shards)"
    "slicer_router_fan_seconds"

type config = {
  client : Net.Client.config;
  pool : int;
}

let default_config =
  { client = { Net.Client.default_config with Net.Client.max_attempts = 3 }; pool = 32 }

type pool = {
  p_lock : Mutex.t;
  p_conns : Net.Client.t Stack.t;
}

type t = {
  cfg : config;
  topo : Topology.t;
  instance : string;
  pools : pool array;
  (* Serializes owner traffic (Build/Insert): an Insert reads every
     shard's live Ac_i before splitting, so two interleaved shipments
     could otherwise compute stale accumulators. Searches never take
     this. *)
  owner_lock : Mutex.t;
}

let create ?(config = default_config) ?(instance = "router") topo =
  { cfg = config;
    topo;
    instance;
    pools =
      Array.init (Topology.shards topo) (fun _ ->
          { p_lock = Mutex.create (); p_conns = Stack.create () });
    owner_lock = Mutex.create () }


let sub_id = Net.Client.sub_id

(* --- connection pooling ------------------------------------------------- *)

let borrow t i =
  let p = t.pools.(i) in
  Mutex.lock p.p_lock;
  let c = if Stack.is_empty p.p_conns then None else Some (Stack.pop p.p_conns) in
  Mutex.unlock p.p_lock;
  match c with
  | Some c -> Ok c
  | None ->
    Net.Client.connect ~config:t.cfg.client
      ~name:(Printf.sprintf "%s->s%d" t.instance i)
      ~provision:false (Topology.endpoint t.topo i)

let give_back t i c =
  let p = t.pools.(i) in
  Mutex.lock p.p_lock;
  let keep = Stack.length p.p_conns < t.cfg.pool in
  if keep then Stack.push c p.p_conns;
  Mutex.unlock p.p_lock;
  if not keep then Net.Client.close c

let close t =
  Array.iter
    (fun p ->
      Mutex.lock p.p_lock;
      while not (Stack.is_empty p.p_conns) do
        Net.Client.close (Stack.pop p.p_conns)
      done;
      Mutex.unlock p.p_lock)
    t.pools

(* One sub-request on a pooled connection. The client layer already
   retries transport failures with backoff; a connection that still
   errored is dropped, not pooled (its socket state is unknown). *)
let call t i req =
  Obs.Counter.incr c_fanouts;
  match borrow t i with
  | Error e -> Error e
  | Ok c ->
    let r = Net.Client.rpc c req in
    (match r with
     | Ok _ -> give_back t i c
     | Error _ -> Net.Client.close c);
    r

(* One sub-request under its own [router.shard] span: the span carries
   the shard number, and its id becomes the remote parent stamped onto
   the wire — so the shard's tree hangs exactly under the fan-out arm
   that caused it. No-ops entirely when the request is untraced. *)
let shard_call t i req =
  let tags = [ ("shard", string_of_int i) ] in
  Trace.child ~tags "router.shard" (fun () ->
      call t i (Net.Wire.with_trace (Trace.current ()) req))

(* Parallel fan-out: one thread per target shard (cheap systhreads —
   each blocks on its own socket, so N shards' work overlaps and the
   request's latency is max, not sum, of the shard latencies). Results
   come back in the order of [targets]. The trace context is captured
   once and resumed on each fan thread; every thread is joined before
   the capture's root can close, as {!Trace.resume} requires. *)
let fan t targets =
  let t0 = Obs.Clock.now_ns () in
  Fun.protect
    ~finally:(fun () -> Obs.Histogram.record_s h_fan (Obs.Clock.elapsed_s t0))
    (fun () ->
      match targets with
      | [ (i, req) ] -> [ (i, shard_call t i req) ]
      | _ ->
        let carrier = Trace.capture () in
        let arr = Array.of_list targets in
        let results = Array.make (Array.length arr) None in
        let threads =
          Array.mapi
            (fun k (i, req) ->
              Thread.create
                (fun () ->
                  let r =
                    try Trace.resume carrier (fun () -> shard_call t i req)
                    with exn ->
                      Error (Net.Client.Transport (Printexc.to_string exn))
                  in
                  results.(k) <- Some (i, r))
                ())
            arr
        in
        Array.iter Thread.join threads;
        Array.to_list
          (Array.map (function Some r -> r | None -> assert false) results))

let refused code detail = Net.Wire.Refused { code; detail }

(* Collapse a fan-out into Ok (per-shard responses) or the first
   failure, mapped to a refusal that names the shard. Transport-level
   failures come back [Busy] — the one code clients retry — because
   the shard may be seconds from recovering; structured shard refusals
   keep their code so e.g. [Unknown_user] still tells the client to
   re-hello. *)
let all_ok t results =
  ignore t;
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (i, Ok resp) :: rest ->
      (match resp with
       | Net.Wire.Refused { code; detail } ->
         Obs.Counter.incr c_shard_errors;
         Error (refused code (Printf.sprintf "shard %d: %s" i detail))
       | resp -> go ((i, resp) :: acc) rest)
    | (i, Error e) :: rest ->
      ignore rest;
      Obs.Counter.incr c_shard_errors;
      let detail =
        Printf.sprintf "shard %d unavailable: %s" i (Net.Client.error_to_string e)
      in
      Log.warn (fun m -> m "%s" detail);
      (match e with
       | Net.Client.Refused (code, _) -> Error (refused code detail)
       | _ -> Error (refused Net.Wire.Busy detail))
  in
  go [] results

(* --- Hello: provision from every shard ---------------------------------- *)

(* Fan a Hello to all shards and return their provisions (shard order).
   Used both to answer a client's Hello and as the Ac_i probe before an
   Insert split. *)
let fan_welcomes t ~client =
  let n = Topology.shards t.topo in
  let req = Net.Wire.Hello { client; proto = Net.Wire.proto_version } in
  match all_ok t (fan t (List.init n (fun i -> (i, req)))) with
  | Error resp -> Error resp
  | Ok resps ->
    let rec provisions acc = function
      | [] -> Ok (List.rev acc)
      | (_, Net.Wire.Welcome p) :: rest -> provisions (p :: acc) rest
      | (i, _) :: _ ->
        Error (refused Net.Wire.Internal (Printf.sprintf "shard %d: expected a welcome" i))
    in
    provisions [] resps

let do_hello t ~client =
  match fan_welcomes t ~client with
  | Error resp -> resp
  | Ok [] -> refused Net.Wire.Internal "empty topology"
  | Ok (p0 :: rest as all) ->
    (* The shards must agree on the public parameters and generation,
       or the cluster is mid-shipment / mis-deployed; refuse loudly
       rather than provision a client that would fail verification. *)
    let consistent (p : Net.Wire.provision) =
      p.Net.Wire.pv_width = p0.Net.Wire.pv_width
      && p.Net.Wire.pv_payment = p0.Net.Wire.pv_payment
      && p.Net.Wire.pv_generation = p0.Net.Wire.pv_generation
    in
    if not (List.for_all consistent rest) then
      refused Net.Wire.Internal
        (Printf.sprintf "shards out of sync (generations %s)"
           (String.concat ","
              (List.map (fun p -> string_of_int p.Net.Wire.pv_generation) all)))
    else
      Net.Wire.Welcome
        { p0 with
          Net.Wire.pv_shards = Topology.shards t.topo;
          pv_instance = t.instance }

(* --- Search: split tokens, merge claims --------------------------------- *)

let merge_receipts parts =
  let paid =
    List.for_all
      (fun (p : Net.Wire.shard_part) ->
        match p.Net.Wire.shp_receipt.Vm.r_output with
        | Ok [ "paid" ] -> true
        | Ok _ | Error _ -> false)
      parts
  in
  { Vm.r_txn_hash =
      Sha256.digest
        (Bytesutil.concat
           (List.map (fun (p : Net.Wire.shard_part) -> p.Net.Wire.shp_receipt.Vm.r_txn_hash) parts));
    r_gas_used =
      List.fold_left
        (fun n (p : Net.Wire.shard_part) -> n + p.Net.Wire.shp_receipt.Vm.r_gas_used)
        0 parts;
    r_events = [];
    r_output = Ok [ (if paid then "paid" else "refunded") ] }

let do_search t ~client ~request_id ~batched ~tokens =
  let n = Topology.shards t.topo in
  (* Partition tokens by owning shard, remembering each token's
     position so the merged claim list restores the request's order —
     byte-for-byte what a lone server would answer for these tokens. *)
  let buckets = Array.make n [] in
  List.iteri
    (fun pos tok ->
      let s = Shard_key.of_token ~shards:n tok in
      buckets.(s) <- (pos, tok) :: buckets.(s))
    tokens;
  let involved = List.filter (fun i -> buckets.(i) <> []) (List.init n Fun.id) in
  let targets =
    List.map
      (fun i ->
        let toks = List.rev_map snd buckets.(i) in
        ( i,
          Net.Wire.Search
            { client; request_id = sub_id request_id i; batched; tokens = toks;
              trace = None } ))
      involved
  in
  match all_ok t (fan t targets) with
  | Error resp -> resp
  | Ok resps ->
    let rec founds acc = function
      | [] -> Ok (List.rev acc)
      | (i, Net.Wire.Found r) :: rest -> founds ((i, r) :: acc) rest
      | (i, _) :: _ ->
        Error
          (refused Net.Wire.Internal (Printf.sprintf "shard %d: expected a search result" i))
    in
    (match founds [] resps with
     | Error resp -> resp
     | Ok found ->
       Trace.child "router.merge" @@ fun () ->
       let merged = Array.make (List.length tokens) None in
       let arity_ok =
         List.for_all
           (fun (i, (r : Net.Wire.search_reply)) ->
             let positions = List.rev_map fst buckets.(i) in
             let claims = r.Net.Wire.sr_claims in
             List.length positions = List.length claims
             && begin
               List.iter2 (fun pos c -> merged.(pos) <- Some c) positions claims;
               true
             end)
           found
       in
       if (not arity_ok) || Array.exists Option.is_none merged then
         refused Net.Wire.Internal "shard claim count does not match its token count"
       else begin
         let parts =
           List.map
             (fun (i, (r : Net.Wire.search_reply)) ->
               { Net.Wire.shp_shard = i;
                 shp_claims = r.Net.Wire.sr_claims;
                 shp_batch_witness = r.Net.Wire.sr_batch_witness;
                 shp_ac = r.Net.Wire.sr_ac;
                 shp_receipt = r.Net.Wire.sr_receipt;
                 shp_settle = r.Net.Wire.sr_settle })
             found
         in
         let generation =
           List.fold_left
             (fun g (_, (r : Net.Wire.search_reply)) -> max g r.Net.Wire.sr_generation)
             0 found
         in
         Net.Wire.Found
           { Net.Wire.sr_request_id = request_id;
             sr_generation = generation;
             sr_claims =
               Array.to_list merged |> List.map (function Some c -> c | None -> assert false);
             sr_batch_witness = None;
             sr_receipt = merge_receipts parts;
             sr_ac = (List.hd parts).Net.Wire.shp_ac;
             sr_parts = parts;
             (* Per-shard settlement coordinates live in the parts: a
                merged reply has no single (batch, leaf) identity. *)
             sr_settle = None }
       end)

(* --- Build / Insert: split shipments ------------------------------------ *)

let accepted_max resps =
  let rec go g = function
    | [] -> Ok g
    | (_, Net.Wire.Accepted { generation }) :: rest -> go (max g generation) rest
    | (i, _) :: _ ->
      Error (refused Net.Wire.Internal (Printf.sprintf "shard %d: expected an accept" i))
  in
  go 0 resps

let do_build t ~client ~request_id ~width ~payment ~acc ~tdp_n ~tdp_e ~user_k ~user_k_r
    ~shipment ~trapdoor =
  let n = Topology.shards t.topo in
  let base = Array.make n acc.Rsa_acc.generator in
  let subs = Split.shipment ~params:acc ~base_acs:base shipment in
  let targets =
    List.init n (fun i ->
        ( i,
          Net.Wire.Build
            { client; request_id = sub_id request_id i; width; payment; acc; tdp_n; tdp_e;
              user_k; user_k_r; shipment = subs.(i); trapdoor; trace = None } ))
  in
  match all_ok t (fan t targets) with
  | Error resp -> resp
  | Ok resps ->
    (match accepted_max resps with
     | Error resp -> resp
     | Ok generation ->
       Log.info (fun m ->
           m "build split across %d shards (%d entries)" n
             (Owner.shipment_entry_count shipment));
       Net.Wire.Accepted { generation })

let do_insert t ~client ~request_id ~shipment ~trapdoor =
  (* Each shard's new Ac_i folds onto its *live* accumulation value, so
     probe every shard first. A retried Insert recomputes these splits
     from possibly-moved Ac_i values, but shards that already applied
     the original replay their cached accept without looking at the
     payload — convergence comes from the idempotency key, not from the
     bytes being identical. *)
  match fan_welcomes t ~client:(t.instance ^ ":ac-probe") with
  | Error resp -> resp
  | Ok provisions ->
    let params =
      match provisions with
      | p :: _ -> p.Net.Wire.pv_acc
      | [] -> assert false
    in
    let base = Array.of_list (List.map (fun p -> p.Net.Wire.pv_ac) provisions) in
    let subs = Split.shipment ~params ~base_acs:base shipment in
    let targets =
      List.init (Array.length base) (fun i ->
          ( i,
            Net.Wire.Insert
              { client; request_id = sub_id request_id i; shipment = subs.(i); trapdoor;
                trace = None } ))
    in
    (match all_ok t (fan t targets) with
     | Error resp -> resp
     | Ok resps ->
       (match accepted_max resps with
        | Error resp -> resp
        | Ok generation -> Net.Wire.Accepted { generation }))

(* --- Receipt / Dispute: settlement finality across shards ---------------- *)

(* A routed search settles independently on every involved shard, so
   its finality is the *least* settled sub-receipt: pending < committed
   < refunded < final. The poll fans to all shards (the router does not
   remember which shards a past search touched) and merges to the
   minimum; shards that never saw the sub-request answer Rcp_unknown
   and are skipped — all-unknown merges to unknown. *)
let status_rank = function
  | Net.Wire.Rcp_pending _ -> 0
  | Net.Wire.Rcp_committed _ -> 1
  | Net.Wire.Rcp_refunded _ -> 2
  | Net.Wire.Rcp_final _ -> 3
  | Net.Wire.Rcp_unknown -> 4

let do_receipt t ~client ~request_id =
  let n = Topology.shards t.topo in
  let targets =
    List.init n (fun i ->
        (i, Net.Wire.Receipt { client; request_id = sub_id request_id i }))
  in
  match all_ok t (fan t targets) with
  | Error resp -> resp
  | Ok resps ->
    let rec statuses acc = function
      | [] -> Ok (List.rev acc)
      | (_, Net.Wire.Receipt_reply st) :: rest -> statuses (st :: acc) rest
      | (i, _) :: _ ->
        Error
          (refused Net.Wire.Internal (Printf.sprintf "shard %d: expected a receipt" i))
    in
    (match statuses [] resps with
     | Error resp -> resp
     | Ok sts ->
       let known = List.filter (fun st -> st <> Net.Wire.Rcp_unknown) sts in
       let least =
         List.fold_left
           (fun best st -> if status_rank st < status_rank best then st else best)
           Net.Wire.Rcp_unknown known
       in
       Net.Wire.Receipt_reply least)

(* A dispute names the shard whose part carried the bad claims (the
   client learned it from [shp_shard]); route it there alone, with the
   request id rewritten to that shard's sub-id. *)
let do_dispute t ~client ~request_id ~shard ~claims_blob ~batch_witness =
  let n = Topology.shards t.topo in
  if shard < 0 || shard >= n then
    refused Net.Wire.Bad_request
      (Printf.sprintf "shard %d out of range (cluster has %d)" shard n)
  else
    let req =
      Net.Wire.Dispute
        { client; request_id = sub_id request_id shard; shard = 0; claims_blob;
          batch_witness }
    in
    (match all_ok t (fan t [ (shard, req) ]) with
     | Error resp -> resp
     | Ok [ (_, (Net.Wire.Disputed _ as resp)) ] -> resp
     | Ok _ ->
       refused Net.Wire.Internal
         (Printf.sprintf "shard %d: expected a dispute verdict" shard))

(* --- Stats: shard-aware aggregate ---------------------------------------- *)

(* Read-only, so unlike searches it degrades partially: a dead shard
   contributes an error marker instead of failing the whole scrape. *)
let do_stats t =
  let n = Topology.shards t.topo in
  let results = fan t (List.init n (fun i -> (i, Net.Wire.Stats))) in
  let shard_texts, shard_jsons =
    List.split
      (List.map
         (fun (i, r) ->
           match r with
           | Ok (Net.Wire.Stats_reply { st_json; st_text }) -> (st_text, st_json)
           | Ok _ | Error _ ->
             Obs.Counter.incr c_shard_errors;
             ( Printf.sprintf "# shard %d: scrape failed\n" i,
               Printf.sprintf "{\"error\":\"shard %d unreachable\"}" i ))
         results)
  in
  Obs.sample_memory ();
  let own_json = Obs.Export.to_json () and own_text = Obs.Export.to_prometheus () in
  Net.Wire.Stats_reply
    { st_json =
        Printf.sprintf "{\"router\":%s,\"shards\":[%s]}" own_json
          (String.concat "," shard_jsons);
      st_text = String.concat "" (own_text :: shard_texts) }

(* --- Traces: cluster-wide drain ------------------------------------------ *)

(* Like Stats, read-only and partially degrading: a dead shard loses
   its spans from this scrape, it does not fail it. The reply holds the
   router's own spans plus every shard's — one scrape, whole cluster. *)
let do_traces t =
  let n = Topology.shards t.topo in
  let results = fan t (List.init n (fun i -> (i, Net.Wire.Traces))) in
  let shard_spans =
    List.concat_map
      (fun (i, r) ->
        match r with
        | Ok (Net.Wire.Traces_reply { tr_spans }) -> tr_spans
        | Ok _ | Error _ ->
          Obs.Counter.incr c_shard_errors;
          Log.warn (fun m -> m "shard %d: trace drain failed" i);
          [])
      results
  in
  Net.Wire.Traces_reply { tr_spans = Trace.drain () @ shard_spans }

let dispatch t req =
  match req with
  | Net.Wire.Ping -> Net.Wire.Pong
  | Net.Wire.Stats -> do_stats t
  | Net.Wire.Traces -> do_traces t
  | Net.Wire.Hello { proto; _ } when proto <> Net.Wire.proto_version ->
    refused Net.Wire.Version_mismatch
      (Printf.sprintf "client speaks protocol revision %d, this router speaks %d" proto
         Net.Wire.proto_version)
  | Net.Wire.Hello { client; _ } -> do_hello t ~client
  | Net.Wire.Search { tokens = []; _ } ->
    (* As a shard refuses it: no shard owns a token of it. *)
    refused Net.Wire.Bad_request "a search needs at least one token"
  | Net.Wire.Search { client; request_id; batched; tokens; _ } ->
    do_search t ~client ~request_id ~batched ~tokens
  | Net.Wire.Receipt { client; request_id } -> do_receipt t ~client ~request_id
  | Net.Wire.Dispute { client; request_id; shard; claims_blob; batch_witness } ->
    do_dispute t ~client ~request_id ~shard ~claims_blob ~batch_witness
  | Net.Wire.Build
      { client; request_id; width; payment; acc; tdp_n; tdp_e; user_k; user_k_r;
        shipment; trapdoor; trace = _ } ->
    Mutex.lock t.owner_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.owner_lock)
      (fun () ->
        do_build t ~client ~request_id ~width ~payment ~acc ~tdp_n ~tdp_e ~user_k
          ~user_k_r ~shipment ~trapdoor)
  | Net.Wire.Insert { client; request_id; shipment; trapdoor; _ } ->
    Mutex.lock t.owner_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.owner_lock)
      (fun () -> do_insert t ~client ~request_id ~shipment ~trapdoor)

(* Span taxonomy name for the routed requests worth tracing. *)
let traced_as = function
  | Net.Wire.Search _ -> Some "router.search"
  | Net.Wire.Build _ -> Some "router.build"
  | Net.Wire.Insert _ -> Some "router.insert"
  | Net.Wire.Dispute _ -> Some "router.dispute"
  | Net.Wire.Hello _ | Net.Wire.Ping | Net.Wire.Stats | Net.Wire.Traces
  | Net.Wire.Receipt _ -> None

let handle t req =
  Obs.Counter.incr c_requests;
  try
    match traced_as req with
    | None -> dispatch t req
    | Some name ->
      (* The router is where a client-unsampled request gets its
         sampling decision; a trace id minted here follows the request
         through every shard and back. *)
      Trace.root ?remote:(Net.Wire.request_trace req) name (fun () -> dispatch t req)
  with exn ->
    Log.err (fun m -> m "router dispatch raised: %s" (Printexc.to_string exn));
    refused Net.Wire.Internal (Printexc.to_string exn)
