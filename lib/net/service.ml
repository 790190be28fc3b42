let log_src = Logs.Src.create "slicer.net.service" ~doc:"Slicer network service"

module Log = (val Logs.src_log log_src : Logs.LOG)

let c_requests = Obs.counter ~help:"requests dispatched" "slicer_net_requests_total"

let c_settled =
  Obs.counter ~help:"searches settled on chain" "slicer_net_searches_settled_total"

let c_replays =
  Obs.counter ~help:"idempotency-cache hits (replayed replies)"
    "slicer_net_idempotent_replays_total"

let c_warms =
  Obs.counter ~help:"background witness warm passes completed"
    "slicer_net_background_warms_total"

(* State present once the owner's Build shipment has been applied. *)
type built = {
  b_station : Station.t;
  b_acc : Rsa_acc.params;
  b_user_keys : Keys.user_keys;
  b_width : int;
  b_payment : int;
  b_owner_addr : Vm.address;
  mutable b_trapdoor : Owner.trapdoor_state;
  mutable b_generation : int;
}

type t = {
  lock : Mutex.t;
  mutable state : built option;
  users : (string, Vm.address) Hashtbl.t;
  (* Idempotency cache: (client, request id) -> the reply already
     settled/applied for it, covering Search, Build and Insert — every
     request whose effect must happen at most once. Keyed by the pair so
     one client cannot replay another's settlement; bounded FIFO so a
     hostile client cannot grow it without limit. *)
  replies : (string, Wire.response) Hashtbl.t;
  reply_order : string Queue.t;
  mutable settled : int;
  (* Durable state, attached by [recover]: every effectful event is
     journaled under [lock] — so WAL order is mutation order — and
     group-commit synced before the reply leaves [handle]. [None] (a
     [create]d service) keeps everything in memory. *)
  mutable store : Store.t option;
  (* Batched optimistic settlement: [Some cfg] switches settlement to
     deferred receipts batched under one Merkle commitment per
     [sb_size] receipts (or [sb_window_ms] of wall clock). Enabled on
     the station as soon as a database exists. *)
  settle : Settle_batch.config option;
  (* Cluster identity: [instance] names this process in Welcome frames
     and metric exposition; [shard = (i, n)] is stamped into the
     contract at deploy time so a shard's chain records which slice of
     the keyword space its Ac_i covers. (0, 1) = a lone server. *)
  instance : string;
  shard : int * int;
  (* Background warmer: after a Build/Insert shipment lands, witness
     precomputation runs on a self-reaping thread off the request path,
     so the first post-shipment Search pays a warm lookup instead of
     cold witness exponentiation. *)
  warm_lock : Mutex.t;
  mutable warm_running : bool;
  mutable warm_again : bool;
}

(* The idempotency cache's bound, in replies, and the balance each
   newly registered user (and a short cloud) is granted. *)
let max_cached_replies = 8192
let faucet = 100_000_000

let create ?settle ?(instance = "") ?(shard = (0, 1)) () =
  { lock = Mutex.create ();
    state = None;
    users = Hashtbl.create 64;
    replies = Hashtbl.create 256;
    reply_order = Queue.create ();
    settled = 0;
    store = None;
    settle;
    instance;
    shard;
    warm_lock = Mutex.create ();
    warm_running = false;
    warm_again = false }

(* Turn batching on for a freshly built (or recovered) station. The
   cloud's address must hold the slashable deposit, so faucet it first
   when short — conditionally, so a recovery that restored the balance
   from the snapshot does not drift it. [ensure_deposit] (inside
   [Station.enable_batching]) is itself idempotent against recovered
   chain state, making the whole call safe to repeat. *)
let maybe_enable_batching ?state t (b : built) =
  match t.settle with
  | None -> ()
  | Some cfg ->
    if Station.batcher b.b_station = None then begin
      let vmst = Ledger.state (Station.ledger b.b_station) in
      let cloud_addr = Station.cloud_addr b.b_station in
      if Vm.balance vmst cloud_addr < cfg.Settle_batch.sb_deposit then
        Vm.fund vmst cloud_addr (cfg.Settle_batch.sb_deposit + faucet);
      match Station.enable_batching ?state b.b_station ~config:cfg with
      | Ok () ->
        Log.info (fun m ->
            m "batched settlement on: size %d, window %.0f ms, deposit %d"
              cfg.Settle_batch.sb_size cfg.Settle_batch.sb_window_ms
              cfg.Settle_batch.sb_deposit)
      | Error e -> Log.err (fun m -> m "enabling batched settlement failed: %s" e)
    end

let built t = t.state <> None

let generation t = match t.state with None -> 0 | Some b -> b.b_generation

let searches_settled t = t.settled

let station t = Option.map (fun b -> b.b_station) t.state

let store t = t.store

let refused code detail = Wire.Refused { code; detail }

(* Collision-free composite key: [concat] length-prefixes each piece,
   so no (client, id) pair can alias another. *)
let reply_key ~client ~request_id = Bytesutil.concat [ client; request_id ]

let cache_reply t key reply =
  if not (Hashtbl.mem t.replies key) then begin
    if Queue.length t.reply_order >= max_cached_replies then begin
      let oldest = Queue.pop t.reply_order in
      Hashtbl.remove t.replies oldest
    end;
    Queue.push key t.reply_order;
    Hashtbl.replace t.replies key reply
  end

let cached_reply t ~client ~request_id =
  Hashtbl.find_opt t.replies (reply_key ~client ~request_id)

(* WAL event taxonomy. Payloads are the raw [Wire] request bytes
   (except Register, which carries just the client name, and Build,
   whose request bytes follow the shard identity it was applied as):
   the service is deterministic, so replaying the requests that took
   effect — in lock order — reproduces the state, idempotency cache
   included. *)
let tag_register = 1
let tag_build = 2
let tag_insert = 3
let tag_search = 4
(* Tag 5 is retired: it was reserved for a Delete that has no Wire message. *)
(* Wall-clock settlement events. Size-triggered flushes and the
   finalizes that follow deterministic points are *not* journaled —
   they replay as a consequence of the search events themselves. Only
   the timer's decisions need a record: [tag_flush] = the window
   expired and the open batch was committed; [tag_finalize] = the tick
   finalized every due batch. Their payloads are empty — the effect is
   fully determined by the state at that point in the WAL. Disputes
   are journaled as their request bytes under [tag_dispute]. *)
let tag_flush = 6
let tag_finalize = 7
let tag_dispute = 8

(* Journal one effectful event. Only called on the fresh-effect paths
   — never on a cache replay, or recovery would apply the effect
   twice — and always under [t.lock], so WAL order is effect order.
   During [recover]'s replay the store is not yet attached, hence no
   re-journaling. *)
let journal_sized t ~tag sized =
  match t.store with
  | None -> ()
  | Some store -> ignore (Store.append_sized store ~tag sized)

let journal t ~tag payload = journal_sized t ~tag (Bytesutil.sized_string payload)

(* A request is encoded only when there is a store to write it to, and
   then streamed into the log: a Build's shipment is never copied. *)
let journal_request t ~tag req = journal_sized t ~tag (Wire.request_sized req)

(* A Build's record: the shard identity it was applied as, in two
   pieces, then the request bytes. Its replay deploys the contract under
   that identity, so [verify_recovered] refuses a restart as another
   shard whether the Build sits in the WAL or in a snapshot. *)
let journal_build t ~shard:(i, n) req =
  journal_sized t ~tag:tag_build
    (Bytesutil.sized_concat
       [ Bytesutil.sized_string (string_of_int i); Bytesutil.sized_string (string_of_int n);
         Wire.request_sized req ])

let build_of_record payload =
  match Bytesutil.split payload with
  | Some [ i; n; bytes ] ->
    (match (int_of_string_opt i, int_of_string_opt n, Wire.decode_request bytes) with
     | Some i, Some n, Some (Wire.Build _ as req) -> Some ((i, n), req)
     | _ -> None)
  | _ -> None

let user_address t b client =
  match Hashtbl.find_opt t.users client with
  | Some addr -> addr
  | None ->
    let addr = Vm.address_of_name ("slicer-net:user:" ^ client) in
    Vm.fund (Ledger.state (Station.ledger b.b_station)) addr faucet;
    Hashtbl.replace t.users client addr;
    journal t ~tag:tag_register client;
    Log.info (fun m -> m "registered user %S (%a)" client Vm.pp_address addr);
    addr

let provision t b client =
  let addr = user_address t b client in
  (* The chain holds H(Ac); the value is the cloud's, which every
     install keeps equal to the one whose hash is on chain. *)
  let ac = Cloud.current_ac (Station.cloud b.b_station) in
  Wire.Welcome
    { Wire.pv_width = b.b_width;
      pv_payment = b.b_payment;
      pv_generation = b.b_generation;
      pv_acc = b.b_acc;
      pv_user_keys = b.b_user_keys;
      pv_trapdoor = b.b_trapdoor;
      pv_user_addr = addr;
      pv_ac = ac;
      pv_shards = snd t.shard;
      pv_instance = t.instance }

let do_search t b ~req ~client ~request_id ~batched tokens =
  (* Registration first: the cache must be unreachable to un-helloed
     peers, or a stranger could replay someone else's settled reply. *)
  match Hashtbl.find_opt t.users client with
  | None -> refused Wire.Unknown_user (Printf.sprintf "client %S must hello first" client)
  | Some user ->
    (match cached_reply t ~client ~request_id with
     | Some cached ->
       (* Idempotent re-send: the retry observes the original settlement;
          escrow is not touched a second time. Only the client that
          settled can hit this — the key includes its name. *)
       Log.debug (fun m -> m "replaying cached settlement for %S/%S" client request_id);
       Obs.Counter.incr c_replays;
       Trace.tag "cached" "true";
       cached
     | None ->
       (match
          (* The on-chain request id is the same composite key: the
             contract refuses duplicate ids globally, so namespacing by
             client keeps one client's ids from colliding with (or
             squatting on) another's. *)
          Station.settle b.b_station ~client ~user
            ~request_id:(reply_key ~client ~request_id) ~payment:b.b_payment
            ~token_blobs:(List.map Slicer_types.token_bytes tokens) ~batched
        with
        | Error e -> refused Wire.Bad_request ("request rejected on chain: " ^ e)
        | Ok { Station.se_claims; se_batch_witness; se_receipt; se_outcome } ->
          t.settled <- t.settled + 1;
          Obs.Counter.incr c_settled;
          Trace.tag "tokens" (string_of_int (List.length tokens));
          Trace.tag "gas" (string_of_int se_receipt.Vm.r_gas_used);
          (* Deterministic settlement housekeeping, *before* the reply
             is built: a size-triggered commit (and any finalize its
             blocks make due) is a pure function of the search sequence,
             so it is not journaled — replaying the searches replays
             the flush. Doing it here also lets the reply carry the
             inclusion proof when this very search filled the batch. *)
          (match Station.batcher b.b_station with
           | Some sb ->
             if Settle_batch.should_flush sb then ignore (Settle_batch.flush sb);
             ignore (Settle_batch.finalize_due sb)
           | None -> ());
          let settle_info =
            match se_outcome with
            | Station.Settled _ -> None
            | Station.Deferred d ->
              let base =
                { Wire.si_batch = d.Station.sd_batch;
                  si_index = d.Station.sd_index;
                  si_leaf = d.Station.sd_leaf;
                  si_root = None;
                  si_proof = None }
              in
              (match Station.batcher b.b_station with
               | Some sb ->
                 (match
                    Settle_batch.status sb ~request:(reply_key ~client ~request_id)
                  with
                  | Some (Settle_batch.Committed { root; proof; _ }) ->
                    Some { base with Wire.si_root = Some root; si_proof = Some proof }
                  | _ -> Some base)
               | None -> Some base)
          in
          let ac = Cloud.current_ac (Station.cloud b.b_station) in
          let reply =
            Wire.Found
              { Wire.sr_request_id = request_id;
                sr_generation = b.b_generation;
                sr_claims = se_claims;
                sr_batch_witness = se_batch_witness;
                sr_receipt = se_receipt;
                sr_ac = ac;
                sr_parts = [];
                sr_settle = settle_info }
          in
          journal_request t ~tag:tag_search req;
          cache_reply t (reply_key ~client ~request_id) reply;
          reply))

(* [shard] is the identity the contract is deployed under: the
   service's own, or on replay the one the Build's record carries. *)
let do_build t ~shard req =
  match req with
  | Wire.Build { client; request_id; width; payment; acc; tdp_n; tdp_e; user_k; user_k_r;
                 shipment; trapdoor; trace = _ } ->
    (match cached_reply t ~client ~request_id with
     | Some cached ->
       (* The build was applied but the response frame was lost: the
          retry must see the original accept, not Already_built. *)
       Log.debug (fun m -> m "replaying cached build accept for %S/%S" client request_id);
       Obs.Counter.incr c_replays;
       cached
     | None ->
     match t.state with
     | Some _ -> refused Wire.Already_built "the service already holds a database"
     | None ->
       let tdp_public = Rsa_tdp.public_of_parts ~n:tdp_n ~e:tdp_e in
       let owner_addr = Vm.address_of_name "slicer-net:owner" in
       let dispute_window =
         match t.settle with
         | Some cfg -> cfg.Settle_batch.sb_dispute_blocks
         | None -> Settle_batch.default_config.Settle_batch.sb_dispute_blocks
       in
       (match
          Station.deploy ~acc_params:acc ~tdp_public ~owner:owner_addr
            ~cloud_addr:(Vm.address_of_name "slicer-net:cloud") ~shard ~dispute_window shipment
        with
        | Error e -> refused Wire.Internal ("contract deployment failed: " ^ e)
        | Ok (station, receipt) ->
          let b =
            { b_station = station;
              b_acc = acc;
              b_user_keys = { Keys.u_k = user_k; u_k_r = user_k_r; u_tdp_public = tdp_public };
              b_width = width;
              b_payment = payment;
              b_owner_addr = owner_addr;
              b_trapdoor = trapdoor;
              b_generation = 1 }
          in
          t.state <- Some b;
          maybe_enable_batching t b;
          Log.info (fun m ->
              m "built from wire shipment: %d index entries, deploy gas %d"
                (Owner.shipment_entry_count shipment) receipt.Vm.r_gas_used);
          let reply = Wire.Accepted { generation = 1 } in
          journal_build t ~shard req;
          cache_reply t (reply_key ~client ~request_id) reply;
          reply))
  | _ -> assert false

let receipt_status_of sb ~request =
  match Settle_batch.status sb ~request with
  | None -> Wire.Rcp_unknown
  | Some (Settle_batch.Pending { batch; index }) ->
    Wire.Rcp_pending
      { Wire.si_batch = batch; si_index = index; si_leaf = ""; si_root = None;
        si_proof = None }
  | Some (Settle_batch.Committed { batch; index; leaf; root; proof }) ->
    Wire.Rcp_committed
      { Wire.si_batch = batch; si_index = index; si_leaf = leaf; si_root = Some root;
        si_proof = Some proof }
  | Some (Settle_batch.Final { batch }) -> Wire.Rcp_final { batch }
  | Some (Settle_batch.Refunded { batch }) -> Wire.Rcp_refunded { batch }

let do_dispute t b ~req ~client ~request_id ~claims_blob ~batch_witness =
  match Station.batcher b.b_station with
  | None -> refused Wire.Bad_request "batched settlement is not enabled"
  | Some sb ->
    (* The disputer is the client's own funded address: a won dispute
       pays the slashed deposit there as the challenge bounty. *)
    let disputer = user_address t b client in
    (match
       Settle_batch.dispute sb ~disputer ~request:(reply_key ~client ~request_id)
         ~claims_blob ~batch_witness
     with
     | Error e -> refused Wire.Bad_request e
     | Ok (dp_slashed, dp_receipt) ->
       (* Journaled like a search: the chain transaction happened, so
          recovery must replay it. A refused dispute above is never
          journaled — replay cannot hit the determinism check. *)
       journal_request t ~tag:tag_dispute req;
       Wire.Disputed { dp_slashed; dp_receipt })

let handle_locked t req =
  match (req, t.state) with
  | (Wire.Ping, _) -> Wire.Pong
  | (Wire.Stats, _) ->
    (* Read-only, served even pre-Build: the registry snapshot covers
       the whole process, not just this service's database. *)
    Obs.sample_memory ();
    Wire.Stats_reply
      { st_json = Obs.Export.to_json (); st_text = Obs.Export.to_prometheus () }
  | (Wire.Traces, _) ->
    (* Admin drain, like Stats: whole completed span trees only, so a
       scraper never sees a half-built trace. *)
    Wire.Traces_reply { tr_spans = Trace.drain () }
  | (Wire.Hello { proto; _ }, _) when proto <> Wire.proto_version ->
    (* Loud handshake failure for a peer of another revision: it would
       mis-frame replies, and its Build/Insert shipments would not
       decode. *)
    refused Wire.Version_mismatch
      (Printf.sprintf "client speaks protocol revision %d, this server speaks %d" proto
         Wire.proto_version)
  | (Wire.Build _, _) -> do_build t ~shard:t.shard req
  | (_, None) -> refused Wire.Not_ready "no database: awaiting the owner's Build shipment"
  | (Wire.Hello { client; _ }, Some b) -> provision t b client
  | ((Wire.Search { client; request_id; batched; tokens; _ } as req), Some b) ->
    do_search t b ~req ~client ~request_id ~batched tokens
  | (Wire.Receipt { client; request_id }, Some b) ->
    (* Read-only finality poll — served from the batch manager's view,
       no transaction, nothing journaled. *)
    (match Station.batcher b.b_station with
     | None -> Wire.Receipt_reply Wire.Rcp_unknown
     | Some sb ->
       Wire.Receipt_reply (receipt_status_of sb ~request:(reply_key ~client ~request_id)))
  | ((Wire.Dispute { client; request_id; shard = _; claims_blob; batch_witness } as req),
     Some b) ->
    do_dispute t b ~req ~client ~request_id ~claims_blob ~batch_witness
  | ((Wire.Insert { client; request_id; shipment; trapdoor; _ } as req), Some b) ->
    (match cached_reply t ~client ~request_id with
     | Some cached ->
       (* Applied already, response frame lost: replaying the accept is
          mandatory — re-running [install] would append the shipment's
          primes a second time and double-bump the generation, silently
          desynchronizing the cloud from the on-chain [Ac]. *)
       Log.debug (fun m -> m "replaying cached insert accept for %S/%S" client request_id);
       Obs.Counter.incr c_replays;
       cached
     | None ->
       (match Station.install b.b_station ~owner:b.b_owner_addr shipment with
        | Error e -> refused Wire.Internal ("on-chain Ac update failed: " ^ e)
        | Ok receipt ->
          b.b_trapdoor <- trapdoor;
          b.b_generation <- b.b_generation + 1;
          Log.info (fun m ->
              m "insert shipment applied: %d entries, generation %d, gas %d"
                (Owner.shipment_entry_count shipment) b.b_generation receipt.Vm.r_gas_used);
          let reply = Wire.Accepted { generation = b.b_generation } in
          journal_request t ~tag:tag_insert req;
          cache_reply t (reply_key ~client ~request_id) reply;
          reply))

(* --- durable state: snapshot codec, recovery, barriers ----------------- *)

let ( let* ) = Option.bind

(* One layout is decoded: older built snapshots (v1 without the
   witness and settle pieces, v2 without the settle piece, v3 with the
   contract's multi-word cells and the v1 settle export, v4 with cached
   Found replies whose claims carry no hints) are refused as a codec
   mismatch. *)
let snap_magic_built = "slicer-service-built-v5"
let snap_magic_empty = "slicer-service-empty-v1"

(* The snapshot is the *materialized* behavioral state, not chain
   history: [Vm.contract_def] holds closures and blocks hold txn
   payloads, neither serializable. Everything observable through the
   wire protocol is covered — provisioning parameters, the merged
   cloud view (index entries, prime multiset, Ac), chain accounts and
   the contract's storage cells, registered users, and the idempotency
   cache in FIFO order. Restoring re-installs the contract definition
   from code at its old address without running the constructor. *)
let encode_snapshot t =
  match t.state with
  | None -> Bytesutil.concat [ snap_magic_empty ]
  | Some b ->
    let st = b.b_station in
    let cloud = Station.cloud st in
    let ledger = Station.ledger st in
    let vmst = Ledger.state ledger in
    let contract = Station.contract st in
    let users =
      Hashtbl.fold (fun name _ acc -> name :: acc) t.users [] |> List.sort compare
    in
    let replies =
      Queue.fold (fun acc key -> key :: acc) [] t.reply_order
      |> List.rev
      |> List.concat_map (fun key ->
             match Hashtbl.find_opt t.replies key with
             | Some resp -> [ key; Wire.encode_response resp ]
             | None -> [])
    in
    Bytesutil.concat
      [ snap_magic_built;
        string_of_int b.b_width;
        string_of_int b.b_payment;
        string_of_int b.b_generation;
        string_of_int t.settled;
        Bigint.to_bytes_be b.b_acc.Rsa_acc.modulus;
        Bigint.to_bytes_be b.b_acc.Rsa_acc.generator;
        Bigint.to_bytes_be b.b_user_keys.Keys.u_tdp_public.Rsa_tdp.pn;
        Bigint.to_bytes_be b.b_user_keys.Keys.u_tdp_public.Rsa_tdp.e;
        b.b_user_keys.Keys.u_k;
        b.b_user_keys.Keys.u_k_r;
        b.b_owner_addr;
        contract;
        Station.cloud_addr st;
        Bytesutil.concat (Ledger.validator_names ledger);
        Persist.trapdoor_state_to_bytes b.b_trapdoor;
        Persist.entries_to_bytes (Cloud.sorted_records cloud);
        Bytesutil.concat (List.map Bigint.to_bytes_be (Cloud.primes cloud));
        Bigint.to_bytes_be (Cloud.current_ac cloud);
        Bytesutil.concat
          (List.concat_map
             (fun (a, bal, n) -> [ a; string_of_int bal; string_of_int n ])
             (Vm.accounts vmst));
        Bytesutil.concat
          (List.concat_map (fun (k, v) -> [ k; v ]) (Vm.storage_entries vmst contract));
        Bytesutil.concat users;
        Bytesutil.concat replies;
        (* Warm witness state: leaf witnesses + generation stamps. The
           products rebuild from [primes] above; grafting this back
           means a restarted server serves witnesses without a single
           recomputation. *)
        Cloud.export_witness_index cloud;
        (* Pending settlement batches (open tail + committed-not-final),
           so a SIGKILL between commit and finalize recovers the batch
           and settles it exactly once. Empty when batching is off. *)
        (match Station.batcher st with
         | Some sb -> Settle_batch.export sb
         | None -> "") ]

let rec pairs_of = function
  | [] -> Some []
  | a :: b :: rest ->
    let* tail = pairs_of rest in
    Some ((a, b) :: tail)
  | [ _ ] -> None

let rec account_triples = function
  | [] -> Some []
  | a :: bal :: n :: rest ->
    let* bal = int_of_string_opt bal in
    let* n = int_of_string_opt n in
    let* tail = account_triples rest in
    Some ((a, bal, n) :: tail)
  | _ -> None

let decode_snapshot ?settle ?instance ?shard bytes =
  let* pieces = Bytesutil.split bytes in
  match pieces with
  | [ m ] when String.equal m snap_magic_empty ->
    Some (create ?settle ?instance ?shard ())
  | [ m; width; payment; generation; settled; modulus; gen; pn; e; u_k; u_k_r; owner_addr;
      contract; cloud_addr; validators; trapdoor; entries; primes; ac; accounts; storage;
      users; replies; windex_blob; settle_blob ]
    when String.equal m snap_magic_built ->
    let* width = int_of_string_opt width in
    let* payment = int_of_string_opt payment in
    let* generation = int_of_string_opt generation in
    let* settled = int_of_string_opt settled in
    let* validators = Bytesutil.split validators in
    let* () = if validators = [] then None else Some () in
    let* trapdoor = Persist.trapdoor_state_of_bytes trapdoor in
    let* records = Persist.entries_of_bytes entries in
    let* prime_flat = Bytesutil.split primes in
    let* account_flat = Bytesutil.split accounts in
    let* accounts = account_triples account_flat in
    let* storage_flat = Bytesutil.split storage in
    let* storage = pairs_of storage_flat in
    let* user_names = Bytesutil.split users in
    let* reply_flat = Bytesutil.split replies in
    let* reply_pairs = pairs_of reply_flat in
    let* replies =
      List.fold_left
        (fun acc (key, blob) ->
          let* acc = acc in
          let* resp = Wire.decode_response blob in
          Some ((key, resp) :: acc))
        (Some []) reply_pairs
      |> Option.map List.rev
    in
    let acc_params =
      Rsa_acc.params_of_parts ~modulus:(Bigint.of_bytes_be modulus)
        ~generator:(Bigint.of_bytes_be gen)
    in
    let tdp_public =
      Rsa_tdp.public_of_parts ~n:(Bigint.of_bytes_be pn) ~e:(Bigint.of_bytes_be e)
    in
    let cloud = Cloud.create ~acc_params ~tdp_public () in
    Cloud.install cloud ~records:[ records ]
      ~primes:(List.map Bigint.of_bytes_be prime_flat)
      ~ac:(Bigint.of_bytes_be ac);
    (* Graft the snapshotted warm witnesses onto the rebuilt index. *)
    ignore (Cloud.restore_witness_index cloud windex_blob);
    let ledger = Ledger.create ~validators in
    let vmst = Ledger.state ledger in
    List.iter
      (fun (a, balance, nonce) -> Vm.restore_account vmst a ~balance ~nonce)
      accounts;
    Slicer_contract.restore ledger ~contract ~modulus:acc_params.Rsa_acc.modulus;
    Vm.restore_storage vmst contract storage;
    let t = create ?settle ?instance ?shard () in
    let b =
      { b_station = Station.create ~cloud ~ledger ~contract ~cloud_addr;
        b_acc = acc_params;
        b_user_keys = { Keys.u_k; u_k_r; u_tdp_public = tdp_public };
        b_width = width;
        b_payment = payment;
        b_owner_addr = owner_addr;
        b_trapdoor = trapdoor;
        b_generation = generation }
    in
    t.state <- Some b;
    (* Re-arm batching over the restored chain state: pending batches
       come back from the settle blob; the deposit is already in the
       contract's storage, so [ensure_deposit] is a no-op. *)
    (match settle_blob with
     | "" -> maybe_enable_batching t b
     | blob -> maybe_enable_batching ~state:blob t b);
    t.settled <- settled;
    List.iter
      (fun name ->
        Hashtbl.replace t.users name (Vm.address_of_name ("slicer-net:user:" ^ name)))
      user_names;
    List.iter (fun (key, resp) -> cache_reply t key resp) replies;
    Some t
  | _ -> None

let apply_event t (ev : Store.event) =
  if ev.Store.ev_tag = tag_register then
    match t.state with
    | Some b ->
      ignore (user_address t b ev.Store.ev_payload);
      Ok ()
    | None -> Error (Printf.sprintf "event %d: register before build" ev.Store.ev_seq)
  else if ev.Store.ev_tag = tag_flush || ev.Store.ev_tag = tag_finalize then
    (* Timer decisions, re-applied: the wall clock that fired is gone,
       but the effect is a pure function of the state at this point in
       the WAL — the same open batch commits, the same due batches
       finalize. *)
    match Option.bind t.state (fun b -> Station.batcher b.b_station) with
    | None ->
      Error
        (Printf.sprintf "event %d (tag %d): settlement event without batching"
           ev.Store.ev_seq ev.Store.ev_tag)
    | Some sb ->
      if ev.Store.ev_tag = tag_flush then ignore (Settle_batch.flush sb)
      else ignore (Settle_batch.finalize_due sb);
      Ok ()
  else
    let replayed =
      if ev.Store.ev_tag = tag_build then
        Option.map (fun (shard, req) -> do_build t ~shard req) (build_of_record ev.Store.ev_payload)
      else Option.map (handle_locked t) (Wire.decode_request ev.Store.ev_payload)
    in
    match replayed with
    | None ->
      Error (Printf.sprintf "event %d (tag %d): undecodable request" ev.Store.ev_seq ev.Store.ev_tag)
    | Some (Wire.Refused { code; detail }) ->
      (* A journaled event took effect once; a deterministic replay
         cannot refuse it. If it does, the state diverged — refuse to
         serve rather than serve wrong answers. *)
      Error
        (Printf.sprintf "event %d (tag %d) refused on replay (%s): %s" ev.Store.ev_seq
           ev.Store.ev_tag (Wire.err_code_to_string code) detail)
    | Some _ -> Ok ()

(* The acceptance invariant: the recovered contract must record the
   shard identity this server was started as, and the recovered prime
   multiset must re-accumulate to the cloud's Ac, whose hash must be the
   on-chain H(Ac). Anything else means the state dir holds another
   slice's index, or the index, the ADS and the chain no longer tell the
   same story; serving would break verifiability silently. *)
let verify_recovered t =
  let shard_name (i, n) = Printf.sprintf "shard %d of %d" i n in
  match t.state with
  | None -> Ok ()
  | Some b ->
    let cloud = Station.cloud b.b_station in
    (match
       ( Slicer_contract.stored_shard (Station.ledger b.b_station)
           ~contract:(Station.contract b.b_station),
         Station.onchain_ac_digest b.b_station )
     with
     | None, _ -> Error "recovered chain holds no shard identity"
     | Some stored, _ when stored <> t.shard ->
       Error
         (Printf.sprintf "recovered shard mismatch: the state dir holds %s, this server is %s"
            (shard_name stored) (shard_name t.shard))
     | Some _, None -> Error "recovered chain holds no Ac"
     | Some _, Some chain_ac ->
       let computed = Rsa_acc.accumulate b.b_acc (Cloud.primes cloud) in
       if
         Bigint.equal computed (Cloud.current_ac cloud)
         && String.equal (Slicer_contract.ac_digest computed) chain_ac
       then Ok ()
       else
         Error
           "recovered accumulator mismatch: primes, cloud Ac and on-chain Ac disagree")

type recovery_stats = {
  rs_snapshot : bool;
  rs_replayed : int;
  rs_dropped_tail : bool;
}

let recover ?settle ?instance ?shard cfg =
  Obs.span "store.recover" (fun () ->
      match Store.open_ cfg with
      | exception Store.Locked dir ->
        Error
          (Printf.sprintf "state dir %s is in use by another live process (%s is locked)" dir
             (Filename.concat dir "LOCK"))
      | store, rc ->
        let fail msg =
          Store.close store;
          Error msg
        in
        let base =
          match rc.Store.rc_snapshot with
          | None -> Some (create ?settle ?instance ?shard ())
          | Some (_seq, payload) ->
            decode_snapshot ?settle ?instance ?shard payload
        in
        match base with
        | None -> fail "snapshot failed to decode (codec mismatch)"
        | Some t ->
          let rec replay = function
            | [] -> Ok ()
            | ev :: rest -> (
              match apply_event t ev with Ok () -> replay rest | Error _ as e -> e)
          in
          (match replay rc.Store.rc_events with
           | Error e -> fail ("WAL replay failed: " ^ e)
           | Ok () ->
             (match verify_recovered t with
              | Error e -> fail e
              | Ok () ->
                (* Re-anchor: the recovered state becomes the durable
                   base, and the WAL only ever extends it. *)
                t.store <- Some store;
                Store.checkpoint store (encode_snapshot t);
                Log.info (fun m ->
                    m "recovered: snapshot=%b, %d events replayed, dropped_tail=%b, generation %d"
                      (rc.Store.rc_snapshot <> None)
                      (List.length rc.Store.rc_events) rc.Store.rc_dropped_tail (generation t));
                Ok
                  ( t,
                    { rs_snapshot = rc.Store.rc_snapshot <> None;
                      rs_replayed = List.length rc.Store.rc_events;
                      rs_dropped_tail = rc.Store.rc_dropped_tail } ))))

let effectful = function
  | Wire.Search _ | Wire.Build _ | Wire.Insert _ | Wire.Hello _ | Wire.Dispute _ -> true
  | Wire.Ping | Wire.Stats | Wire.Traces | Wire.Receipt _ -> false

(* The durability barrier, outside [t.lock] so concurrent settlements
   group-commit on one fsync. Also where the snapshot cadence lives:
   past [snapshot_bytes] of WAL, re-serialize under the lock and
   truncate. *)
let maybe_persist t req =
  match t.store with
  | None -> ()
  | Some store ->
    if effectful req then begin
      Store.sync store;
      if Store.should_snapshot store then begin
        Mutex.lock t.lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.lock)
          (fun () ->
            if Store.should_snapshot store then
              Store.checkpoint store (encode_snapshot t))
      end
    end

(* After a Build/Insert shipment is accepted, precompute every element's
   accumulator witness on a background thread so the next Search hits the
   warm index instead of paying cold exponentiations inline. One warmer
   runs at a time; shipments landing mid-warm set [warm_again] and the
   same thread loops, so bursts coalesce into at most one trailing pass.
   The witness tree takes its own lock, so the warm runs off the
   service lock. *)
let rec warm_pass t =
  let cloud =
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () -> Option.map (fun b -> Station.cloud b.b_station) t.state)
  in
  (match cloud with
   | None -> ()
   | Some cloud ->
     (try
        Obs.span "service.background_warm" (fun () ->
            Cloud.precompute_witnesses cloud);
        Obs.Counter.incr c_warms
      with exn ->
        Log.warn (fun m ->
            m "background warm failed: %s" (Printexc.to_string exn))));
  let again =
    Mutex.lock t.warm_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.warm_lock)
      (fun () ->
        if t.warm_again then begin
          t.warm_again <- false;
          true
        end
        else begin
          t.warm_running <- false;
          false
        end)
  in
  if again then warm_pass t

let schedule_warm t =
  Mutex.lock t.warm_lock;
  let spawn =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.warm_lock)
      (fun () ->
        if t.warm_running then begin
          t.warm_again <- true;
          false
        end
        else begin
          t.warm_running <- true;
          true
        end)
  in
  if spawn then ignore (Thread.create warm_pass t)

(* Span taxonomy name for the requests worth tracing; admin and
   handshake frames stay untraced. *)
let traced_as = function
  | Wire.Search _ -> Some "service.search"
  | Wire.Build _ -> Some "service.build"
  | Wire.Insert _ -> Some "service.insert"
  | Wire.Dispute _ -> Some "service.dispute"
  | Wire.Hello _ | Wire.Ping | Wire.Stats | Wire.Traces | Wire.Receipt _ -> None

let handle_inner t req =
  Obs.Counter.incr c_requests;
  (* The wait for the service lock is its own span, so a traced
     request shows how long it queued behind another's handler. *)
  Obs.span "service.lock_wait" (fun () -> Mutex.lock t.lock);
  let resp =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        try handle_locked t req
        with exn ->
          Log.err (fun m -> m "handler raised: %s" (Printexc.to_string exn));
          refused Wire.Internal (Printexc.to_string exn))
  in
  (* The reply must not leave before its journal record is durable. A
     failed barrier refuses instead of replying: the effect is applied
     in memory but not on disk, and the client's retry replays the
     cached reply through a (hopefully healed) barrier. *)
  match maybe_persist t req with
  | () ->
    (match req, resp with
     | (Wire.Build _ | Wire.Insert _), Wire.Accepted _ -> schedule_warm t
     | _ -> ());
    resp
  | exception exn ->
    Log.err (fun m -> m "durability barrier failed: %s" (Printexc.to_string exn));
    refused Wire.Internal ("durability barrier failed: " ^ Printexc.to_string exn)

let handle t req =
  match traced_as req with
  | None -> handle_inner t req
  | Some name ->
    (* Joins the upstream trace when the request carries one (the
       router's fan-out), otherwise makes its own sampling decision —
       so a directly-addressed server is traceable too. *)
    Trace.root ?remote:(Wire.request_trace req) name (fun () ->
        if snd t.shard > 1 then Trace.tag "shard" (string_of_int (fst t.shard));
        handle_inner t req)


(* --- settlement timer ---------------------------------------------------

   The server's main loop calls [settle_tick] between poll rounds; the
   bench calls [settle_flush] at measurement boundaries, which is a tick
   with the window treated as expired. Both journal their effects —
   these are the wall-clock decisions a WAL replay cannot re-derive
   (§8), unlike the size-triggered flush inside [do_search]. *)

let settle_step t ~expired =
  Mutex.lock t.lock;
  let flushed, finalized =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        match Option.bind t.state (fun b -> Station.batcher b.b_station) with
        | None -> (false, 0)
        | Some sb ->
          let flushed =
            expired sb
            &&
            match Settle_batch.flush sb with
            | None -> false
            | Some _ ->
              journal t ~tag:tag_flush "";
              true
          in
          let finalized = Settle_batch.finalize_due sb in
          if finalized <> [] then journal t ~tag:tag_finalize "";
          (flushed, List.length finalized))
  in
  if flushed || finalized > 0 then Option.iter Store.sync t.store;
  (flushed, finalized)

let settle_tick t = settle_step t ~expired:Settle_batch.window_expired
let settle_flush t = ignore (settle_step t ~expired:(fun _ -> true))
