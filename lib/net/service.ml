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

(* How a database settles: eagerly, or in batches of [size] receipts
   behind a [deposit] in wei, each disputable for [window] blocks. The
   batch window in wall-clock ms is not part of it: its decisions are
   journaled as Flush records. *)
type settlement = Eager | Batched of { size : int; deposit : int; window : int }

(* What a database was built as, and so what a server restarting on its
   state dir must be: its cluster slice and its settlement. *)
type identity = { shard : int * int; settlement : settlement }

(* State present once the owner's Build shipment has been applied. *)
type built = {
  b_station : Station.t;
  b_identity : identity;
  b_acc : Rsa_acc.params;
  b_user_keys : Keys.user_keys;
  b_width : int;
  b_payment : int;
  mutable b_trapdoor : Owner.trapdoor_state;
  mutable b_generation : int;
}

type t = {
  lock : Mutex.t;
  mutable state : built option;
  users : (string, Vm.address) Hashtbl.t;
  (* Idempotency cache: (client, request id) -> the reply already
     settled/applied for it, covering Search, Build, Insert and Dispute
     — every request whose effect must happen at most once. Keyed by
     the pair so one client cannot replay another's settlement; bounded
     FIFO so a hostile client cannot grow it without limit. *)
  replies : (string, Wire.response) Hashtbl.t;
  reply_order : string Queue.t;
  mutable settled : int;
  (* Durable state, attached by [recover]: [apply] journals every
     record that took effect under [lock] — so WAL order is mutation
     order — and it is group-commit synced before the reply leaves
     [handle]. [None] (a [create]d service) keeps everything in
     memory. *)
  mutable store : Store.t option;
  (* Batched optimistic settlement: [Some cfg] switches settlement to
     deferred receipts batched under one Merkle commitment per
     [sb_size] receipts (or [sb_window_ms] of wall clock). A Build
     records it in its identity, and the database settles so from
     then on. *)
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

(* Every wire-built database has the same owner and cloud addresses. *)
let owner_addr = Vm.address_of_name "slicer-net:owner"
let cloud_addr = Vm.address_of_name "slicer-net:cloud"

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

let identity t =
  { shard = t.shard;
    settlement =
      (match t.settle with
       | None -> Eager
       | Some c ->
         Batched
           { size = c.Settle_batch.sb_size; deposit = c.Settle_batch.sb_deposit;
             window = c.Settle_batch.sb_dispute_blocks }) }

let identity_name { shard = (i, n); settlement } =
  Printf.sprintf "shard %d of %d %s" i n
    (match settlement with
     | Eager -> "settling eagerly"
     | Batched { size; deposit; window } ->
       Printf.sprintf "settling in batches of %d (%d-block window, %d-wei deposit)" size window
         deposit)

(* The identity's codec, shared by the Build record and the snapshot:
   the shard index and count, then "" for eager settlement or the batch
   size, deposit and window. *)
let identity_pieces { shard = (i, n); settlement } =
  [ string_of_int i;
    string_of_int n;
    (match settlement with
     | Eager -> ""
     | Batched { size; deposit; window } ->
       Bytesutil.concat (List.map string_of_int [ size; deposit; window ])) ]

let identity_of_pieces = function
  | [ i; n; settlement ] ->
    let settlement =
      if settlement = "" then Some Eager
      else
        match Option.map (List.map int_of_string_opt) (Bytesutil.split settlement) with
        | Some [ Some size; Some deposit; Some window ] -> Some (Batched { size; deposit; window })
        | _ -> None
    in
    (match (int_of_string_opt i, int_of_string_opt n, settlement) with
     | Some i, Some n, Some settlement -> Some { shard = (i, n); settlement }
     | _ -> None)
  | _ -> None

(* Turn batching on for a freshly built (or recovered) station, as its
   identity says, with this server's wall-clock window. The cloud's
   address must hold the slashable deposit, so faucet it first when
   short — conditionally, so a recovery that restored the balance from
   the snapshot does not drift it. [ensure_deposit] (inside
   [Station.enable_batching]) is itself idempotent against recovered
   chain state, making the whole call safe to repeat. *)
let maybe_enable_batching ?state t (b : built) =
  match b.b_identity.settlement with
  | Eager -> ()
  | Batched { size; deposit; window } ->
    let cfg =
      { (Option.value t.settle ~default:Settle_batch.default_config) with
        Settle_batch.sb_size = size; sb_deposit = deposit; sb_dispute_blocks = window }
    in
    if Station.batcher b.b_station = None then begin
      let vmst = Ledger.state (Station.ledger b.b_station) in
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

(* --- the effects: one record each, one function applies them ------------

   Every change to the service's state is one of these records. The
   live handlers and the settlement timer build a record and [apply]
   it; recovery decodes the WAL's records and applies them the same
   way. The service is deterministic, so replaying the records that
   took effect, in lock order, reproduces the state, reply cache
   included. *)
type record =
  | Register of string  (* a client's first Hello: fund and register it *)
  | Build of identity * Wire.request
      (* the owner's Build, and the identity it was applied as *)
  | Insert of Wire.request
  | Search of Wire.request
  | Dispute of Wire.request
  | Flush     (* the batch window expired: commit the open batch *)
  | Finalize  (* the timer finalized every due batch *)

(* The WAL codec. Payloads are the raw [Wire] request bytes, except a
   Register's (the client name), a Build's (the pieces of the identity
   it was applied as, then the request bytes) and the timers' (empty:
   their effect is a function of the state at that point in the WAL).
   Tag 5 is retired: it was reserved for a Delete that has no Wire
   message. *)
let tag_of = function
  | Register _ -> 1
  | Build _ -> 2
  | Insert _ -> 3
  | Search _ -> 4
  | Flush -> 6
  | Finalize -> 7
  | Dispute _ -> 8

let record_sized = function
  | Register client -> Bytesutil.sized_string client
  | Build (identity, req) ->
    Bytesutil.sized_concat
      (List.map Bytesutil.sized_string (identity_pieces identity) @ [ Wire.request_sized req ])
  | Insert req | Search req | Dispute req -> Wire.request_sized req
  | Flush | Finalize -> Bytesutil.sized_string ""

let record_of_event (ev : Store.event) =
  let payload = ev.Store.ev_payload in
  match ev.Store.ev_tag with
  | 1 -> Some (Register payload)
  | 2 ->
    (match Bytesutil.split payload with
     | Some [ i; n; settlement; bytes ] ->
       (match (identity_of_pieces [ i; n; settlement ], Wire.decode_request bytes) with
        | Some identity, Some (Wire.Build _ as req) -> Some (Build (identity, req))
        | _ -> None)
     | _ -> None)
  | 6 -> Some Flush
  | 7 -> Some Finalize
  | tag ->
    (match (tag, Wire.decode_request payload) with
     | 3, Some (Wire.Insert _ as req) -> Some (Insert req)
     | 4, Some (Wire.Search _ as req) -> Some (Search req)
     | 8, Some (Wire.Dispute _ as req) -> Some (Dispute req)
     | _ -> None)

(* A request effect's key in the reply cache: its (client, request id).
   A Dispute names the search it challenges, so its key gains a third
   piece: no Search reply can answer it, nor it a Search. *)
let key_of = function
  | Build (_, Wire.Build { client; request_id; _ })
  | Insert (Wire.Insert { client; request_id; _ })
  | Search (Wire.Search { client; request_id; _ }) ->
    Some (reply_key ~client ~request_id)
  | Dispute (Wire.Dispute { client; request_id; _ }) ->
    Some (Bytesutil.concat [ client; request_id; "dispute" ])
  | Register _ | Build _ | Insert _ | Search _ | Dispute _ | Flush | Finalize -> None

(* The client a request effect acts for, which must have sent Hello. *)
let requester = function
  | Search (Wire.Search { client; _ }) | Dispute (Wire.Dispute { client; _ }) -> Some client
  | _ -> None

(* What applying a record did. A request effect is [Answered] when it
   took place and [Declined] when it was refused; a Register or a timer
   [Moved] that many users or batches. A refusal and a move of 0
   changed nothing, so they are neither journaled nor cached. *)
type outcome =
  | Answered of Wire.response
  | Declined of Wire.err_code * string
  | Moved of int

let answer = function
  | Answered reply -> reply
  | Declined (code, detail) -> refused code detail
  | Moved _ -> invalid_arg "Service.answer: a Register or timer record has no reply"

let journal t record =
  match t.store with
  | None -> ()
  | Some store -> ignore (Store.append_sized store ~tag:(tag_of record) (record_sized record))

let provision t b client =
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
      pv_user_addr = Hashtbl.find t.users client;
      pv_ac = ac;
      pv_shards = snd t.shard;
      pv_instance = t.instance }

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

(* [identity] is what the database is built as: the service's own, or
   on replay the one the Build's record carries. Its shard and dispute
   window go into the contract. *)
let run_build t ~identity ~width ~payment ~acc ~tdp_n ~tdp_e ~user_k ~user_k_r ~trapdoor
    shipment =
  match Rsa_tdp.public_of_parts ~n:tdp_n ~e:tdp_e with
  | exception Invalid_argument e -> Declined (Wire.Bad_request, e)
  | tdp_public ->
  let dispute_window =
    match identity.settlement with
    | Batched { window; _ } -> window
    | Eager -> Settle_batch.default_config.Settle_batch.sb_dispute_blocks
  in
  match
    Station.deploy ~acc_params:acc ~tdp_public ~owner:owner_addr ~cloud_addr
      ~shard:identity.shard ~dispute_window shipment
  with
  | Error e -> Declined (Wire.Internal, "contract deployment failed: " ^ e)
  | Ok (station, receipt) ->
    let b =
      { b_station = station;
        b_identity = identity;
        b_acc = acc;
        b_user_keys = { Keys.u_k = user_k; u_k_r = user_k_r; u_tdp_public = tdp_public };
        b_width = width;
        b_payment = payment;
        b_trapdoor = trapdoor;
        b_generation = 1 }
    in
    t.state <- Some b;
    maybe_enable_batching t b;
    Log.info (fun m ->
        m "built from wire shipment: %d index entries, deploy gas %d"
          (Owner.shipment_entry_count shipment) receipt.Vm.r_gas_used);
    Answered (Wire.Accepted { generation = 1 })

(* [request] is the search's reply key, which is also its on-chain
   request id: the contract refuses duplicate ids globally, so
   namespacing by client keeps one client's ids from colliding with (or
   squatting on) another's. *)
let run_search t b ~request ~client ~request_id ~batched tokens =
  match
    Station.settle b.b_station ~client ~user:(Hashtbl.find t.users client) ~request_id:request
      ~payment:b.b_payment ~token_blobs:(List.map Slicer_types.token_bytes tokens) ~batched
  with
  | Error e -> Declined (Wire.Bad_request, "request rejected on chain: " ^ e)
  | Ok { Station.se_claims; se_batch_witness; se_receipt; se_outcome } ->
    t.settled <- t.settled + 1;
    Obs.Counter.incr c_settled;
    Trace.tag "tokens" (string_of_int (List.length tokens));
    Trace.tag "gas" (string_of_int se_receipt.Vm.r_gas_used);
    (* Deterministic settlement housekeeping, *before* the reply is
       built: a size-triggered commit (and any finalize its blocks make
       due) is a pure function of the search sequence, so it is not
       journaled — replaying the searches replays the flush. Doing it
       here also lets the reply carry the inclusion proof when this very
       search filled the batch. *)
    let batcher = Station.batcher b.b_station in
    Option.iter
      (fun sb ->
        if Settle_batch.should_flush sb then ignore (Settle_batch.flush sb);
        ignore (Settle_batch.finalize_due sb))
      batcher;
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
        (match Option.bind batcher (fun sb -> Settle_batch.status sb ~request) with
         | Some (Settle_batch.Committed { root; proof; _ }) ->
           Some { base with Wire.si_root = Some root; si_proof = Some proof }
         | _ -> Some base)
    in
    Answered
      (Wire.Found
         { Wire.sr_request_id = request_id;
           sr_generation = b.b_generation;
           sr_claims = se_claims;
           sr_batch_witness = se_batch_witness;
           sr_receipt = se_receipt;
           sr_ac = Cloud.current_ac (Station.cloud b.b_station);
           sr_parts = [];
           sr_settle = settle_info })

(* A shipment carries no witness or one per group. The cloud grafts
   them unchecked, as it takes [sh_ac]; the contract checks every claim
   it pays. *)
let witnesses_fit (sh : Owner.shipment) =
  sh.Owner.sh_witnesses = []
  || List.compare_lengths sh.Owner.sh_witnesses sh.Owner.sh_groups = 0

let witness_misfit = "a shipment carries no witness or one per group"

(* Runs one record's effect against the state, journaling and caching
   nothing: that is [apply]'s part. *)
let run t ~key record =
  let batcher b = Station.batcher b.b_station in
  match (record, t.state) with
  | Build (_, Wire.Build { shipment; _ }), None when not (witnesses_fit shipment) ->
    Declined (Wire.Bad_request, witness_misfit)
  | ( Build (identity, Wire.Build { width; payment; acc; tdp_n; tdp_e; user_k; user_k_r;
                                    shipment; trapdoor; _ }),
      None ) ->
    run_build t ~identity ~width ~payment ~acc ~tdp_n ~tdp_e ~user_k ~user_k_r ~trapdoor
      shipment
  | Build _, Some _ -> Declined (Wire.Already_built, "the service already holds a database")
  | _, None -> Declined (Wire.Not_ready, "no database: awaiting the owner's Build shipment")
  | Register client, Some b ->
    if Hashtbl.mem t.users client then Moved 0
    else begin
      let addr = Vm.address_of_name ("slicer-net:user:" ^ client) in
      Vm.fund (Ledger.state (Station.ledger b.b_station)) addr faucet;
      Hashtbl.replace t.users client addr;
      Log.info (fun m -> m "registered user %S (%a)" client Vm.pp_address addr);
      Moved 1
    end
  | Insert (Wire.Insert { shipment; _ }), Some _ when not (witnesses_fit shipment) ->
    Declined (Wire.Bad_request, witness_misfit)
  | Insert (Wire.Insert { shipment; trapdoor; _ }), Some b ->
    (match Station.install b.b_station ~owner:owner_addr shipment with
     | Error e -> Declined (Wire.Internal, "on-chain Ac update failed: " ^ e)
     | Ok receipt ->
       b.b_trapdoor <- trapdoor;
       b.b_generation <- b.b_generation + 1;
       Log.info (fun m ->
           m "insert shipment applied: %d entries, generation %d, gas %d"
             (Owner.shipment_entry_count shipment) b.b_generation receipt.Vm.r_gas_used);
       Answered (Wire.Accepted { generation = b.b_generation }))
  | Search (Wire.Search { tokens = []; _ }), Some _ ->
    (* Refused before any escrow: the user's own keyword state already
       answers a query with no token, and the contract would revert. *)
    Declined (Wire.Bad_request, "a search needs at least one token")
  | Search (Wire.Search { client; request_id; batched; tokens; _ }), Some b ->
    (* Also refused before any escrow: Algorithm 4 walks a token's
       [st_updates] generations under the service lock, and an honest
       token claims at most generation - 1, since the owner advances a
       keyword's chain at most once per shipment. *)
    (match List.find_opt (fun st -> st.Slicer_types.st_updates >= b.b_generation) tokens with
     | Some st ->
       Declined
         ( Wire.Bad_request,
           Printf.sprintf "a token claims %d updates at generation %d"
             st.Slicer_types.st_updates b.b_generation )
     | None -> run_search t b ~request:(Option.get key) ~client ~request_id ~batched tokens)
  | Dispute (Wire.Dispute { client; request_id; claims_blob; batch_witness; _ }), Some b ->
    (match batcher b with
     | None -> Declined (Wire.Bad_request, "batched settlement is not enabled")
     | Some sb ->
       (* The disputer is the client's own funded address: a won dispute
          pays the slashed deposit there as the challenge bounty. *)
       (match
          Settle_batch.dispute sb ~disputer:(Hashtbl.find t.users client)
            ~request:(reply_key ~client ~request_id) ~claims_blob ~batch_witness
        with
        | Error e -> Declined (Wire.Bad_request, e)
        | Ok (dp_slashed, dp_receipt) -> Answered (Wire.Disputed { dp_slashed; dp_receipt })))
  | (Flush | Finalize), Some b ->
    (* The timer's decisions: on replay the wall clock that fired is
       gone, but the effect is a pure function of the state at this
       point in the WAL — the same open batch commits, the same due
       batches finalize. *)
    (match (batcher b, record) with
     | None, _ -> Declined (Wire.Bad_request, "batched settlement is not enabled")
     | Some sb, Flush -> Moved (if Settle_batch.flush sb = None then 0 else 1)
     | Some sb, _ -> Moved (List.length (Settle_batch.finalize_due sb)))
  | (Insert _ | Search _ | Dispute _), Some _ ->
    invalid_arg "Service.run: a record holds another request"

(* The one mutator. A request effect whose reply is cached answers it
   again: the effect happened once, and the re-send observes it. Else
   the effect runs; if it changed the state, its record is journaled —
   under [t.lock], so WAL order is effect order; never during
   [recover]'s replay, which runs before the store is attached — and
   its reply is cached. The requester's registration is checked before
   the cache, so a peer that has not sent Hello cannot read another
   client's reply. *)
let apply t record =
  match requester record with
  | Some client when not (Hashtbl.mem t.users client) ->
    Declined (Wire.Unknown_user, Printf.sprintf "client %S must hello first" client)
  | _ ->
    let key = key_of record in
    match Option.bind key (Hashtbl.find_opt t.replies) with
    | Some cached ->
      Log.debug (fun m -> m "replaying a cached reply");
      Obs.Counter.incr c_replays;
      Trace.tag "cached" "true";
      Answered cached
    | None ->
      let outcome = run t ~key record in
      (match outcome with
       | Answered reply ->
         journal t record;
         Option.iter (fun key -> cache_reply t key reply) key
       | Moved n when n > 0 -> journal t record
       | Declined _ | Moved _ -> ());
      outcome

(* Ping, Stats and Traces read only process-wide state ({!Obs},
   {!Trace}), never the service's, so they are answered before
   [t.lock] is taken: a Ping or a scrape does not wait behind a
   search's handler. Served even pre-Build. *)
let admin = function
  | Wire.Ping -> Some Wire.Pong
  | Wire.Stats ->
    (* The registry snapshot covers the whole process, not just this
       service's database; it is rendered when the reply is framed. *)
    Obs.sample_memory ();
    Some Wire.Stats_live
  | Wire.Traces ->
    (* Whole completed span trees only, so a scraper never sees a
       half-built trace. *)
    Some (Wire.Traces_reply { tr_spans = Trace.drain () })
  | Wire.Hello _ | Wire.Search _ | Wire.Build _ | Wire.Insert _ | Wire.Receipt _
  | Wire.Dispute _ ->
    None

let handle_locked t req =
  match (req, t.state) with
  | ((Wire.Ping | Wire.Stats | Wire.Traces), _) ->
    invalid_arg "Service.handle_locked: an admin request takes no lock"
  | (Wire.Hello { proto; _ }, _) when proto <> Wire.proto_version ->
    (* Loud handshake failure for a peer of another revision: it would
       mis-frame replies, and its Build/Insert shipments would not
       decode. *)
    refused Wire.Version_mismatch
      (Printf.sprintf "client speaks protocol revision %d, this server speaks %d" proto
         Wire.proto_version)
  | (Wire.Build _, _) -> answer (apply t (Build (identity t, req)))
  | (_, None) -> refused Wire.Not_ready "no database: awaiting the owner's Build shipment"
  | (Wire.Hello { client; _ }, Some b) ->
    ignore (apply t (Register client));
    provision t b client
  | (Wire.Receipt { client; request_id }, Some b) ->
    (* Read-only finality poll — served from the batch manager's view,
       no transaction, nothing journaled. *)
    (match Station.batcher b.b_station with
     | None -> Wire.Receipt_reply Wire.Rcp_unknown
     | Some sb ->
       Wire.Receipt_reply (receipt_status_of sb ~request:(reply_key ~client ~request_id)))
  | (Wire.Search _, Some _) -> answer (apply t (Search req))
  | (Wire.Insert _, Some _) -> answer (apply t (Insert req))
  | (Wire.Dispute _, Some _) -> answer (apply t (Dispute req))

(* --- durable state: snapshot codec, recovery, barriers ----------------- *)

let ( let* ) = Option.bind

(* One layout is decoded: older built snapshots (v1 without the
   witness and settle pieces, v2 without the settle piece, v3 with the
   contract's multi-word cells and the v1 settle export, v4 with cached
   Found replies whose claims carry no hints, v5 with the owner and
   cloud addresses and the validator names but no identity and no chain
   head, v6 with cached Found replies whose results carry a length
   each, v7 beside a WAL whose shipments carry no witness piece) are
   refused as a codec mismatch. The empty layout moves with the built
   one (v2 with v7, v3 with v8): the WAL after an older empty snapshot
   holds requests of an older wire revision, so every state dir an
   older build wrote fails before any replay. *)
let snap_magic_built = "slicer-service-built-v8"
let snap_magic_empty = "slicer-service-empty-v3"

(* The snapshot is the *materialized* behavioral state, not chain
   history: [Vm.contract_def] holds closures and blocks hold txn
   payloads, neither serializable. Everything observable through the
   wire protocol is covered — the identity the database was built as,
   provisioning parameters, the merged cloud view (index entries, prime
   multiset, Ac), the chain's sealed head, accounts and the contract's
   storage cells, registered users, and the idempotency cache in FIFO
   order. Restoring re-installs the contract definition from code at
   its old address without running the constructor, and the chain
   continues from its head. *)
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
        Bytesutil.concat (identity_pieces b.b_identity);
        Bigint.to_bytes_be b.b_acc.Rsa_acc.modulus;
        Bigint.to_bytes_be b.b_acc.Rsa_acc.generator;
        Bigint.to_bytes_be b.b_user_keys.Keys.u_tdp_public.Rsa_tdp.pn;
        Bigint.to_bytes_be b.b_user_keys.Keys.u_tdp_public.Rsa_tdp.e;
        b.b_user_keys.Keys.u_k;
        b.b_user_keys.Keys.u_k_r;
        contract;
        Block.header_bytes (Ledger.head ledger).Block.header;
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
           tree's leaves come back from [primes] above; grafting this
           back means a restarted server serves witnesses without a
           single recomputation. *)
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
  | [ m; width; payment; generation; settled; identity; modulus; gen; pn; e; u_k; u_k_r;
      contract; head; trapdoor; entries; primes; ac; accounts; storage; users; replies;
      windex_blob; settle_blob ]
    when String.equal m snap_magic_built ->
    let* width = int_of_string_opt width in
    let* payment = int_of_string_opt payment in
    let* generation = int_of_string_opt generation in
    let* settled = int_of_string_opt settled in
    let* identity = Option.bind (Bytesutil.split identity) identity_of_pieces in
    let* head = Block.header_of_bytes head in
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
    let station = Station.resume ~cloud ~head ~contract ~cloud_addr in
    let ledger = Station.ledger station in
    let vmst = Ledger.state ledger in
    List.iter
      (fun (a, balance, nonce) -> Vm.restore_account vmst a ~balance ~nonce)
      accounts;
    Slicer_contract.restore ledger ~contract ~modulus:acc_params.Rsa_acc.modulus;
    Vm.restore_storage vmst contract storage;
    let t = create ?settle ?instance ?shard () in
    let b =
      { b_station = station;
        b_identity = identity;
        b_acc = acc_params;
        b_user_keys = { Keys.u_k; u_k_r; u_tdp_public = tdp_public };
        b_width = width;
        b_payment = payment;
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
  match record_of_event ev with
  | None ->
    Error (Printf.sprintf "event %d (tag %d): undecodable request" ev.Store.ev_seq ev.Store.ev_tag)
  | Some record ->
    (match apply t record with
     | Declined (code, detail) ->
       (* A journaled record took effect once; a deterministic replay
          cannot refuse it. If it does, the state diverged — refuse to
          serve rather than serve wrong answers. *)
       Error
         (Printf.sprintf "event %d (tag %d) refused on replay (%s): %s" ev.Store.ev_seq
            ev.Store.ev_tag (Wire.err_code_to_string code) detail)
     | Answered _ | Moved _ -> Ok ())

(* The acceptance invariant: the recovered database must have been
   built as this server is — the same shard and the same settlement —
   and the recovered prime multiset must re-accumulate to the cloud's
   Ac, whose hash must be the on-chain H(Ac). Anything else means the
   state dir holds another slice's index or another settlement's
   batches, or the index, the ADS and the chain no longer tell the same
   story; serving would break verifiability silently. *)
let verify_recovered t =
  match t.state with
  | None -> Ok ()
  | Some b when b.b_identity <> identity t ->
    Error
      (Printf.sprintf "recovered identity mismatch: the state dir holds %s; this server is %s"
         (identity_name b.b_identity) (identity_name (identity t)))
  | Some b ->
    let cloud = Station.cloud b.b_station in
    (match Station.onchain_ac_digest b.b_station with
     | None -> Error "recovered chain holds no Ac"
     | Some chain_ac ->
       let computed = Rsa_acc.accumulate b.b_acc (Cloud.primes cloud) in
       if
         Bigint.equal computed (Cloud.current_ac cloud)
         && String.equal (Slicer_contract.ac_digest computed) chain_ac
       then Ok ()
       else
         Error
           "recovered accumulator mismatch: primes, cloud Ac and on-chain Ac disagree")

(* After a Build/Insert shipment is accepted, and after a recovery whose
   replay leaves a stale or cold leaf, precompute every element's
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

(* Whether every leaf of the database's witness tree is fresh. *)
let leaves_fresh t =
  match t.state with
  | None -> true
  | Some b ->
    let ws = Cloud.witness_index_stats (Station.cloud b.b_station) in
    ws.Witness_tree.ws_fresh = ws.Witness_tree.ws_leaves

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
          (* Only a snapshot that held a database counts: the first
             recovery of an empty dir checkpoints an empty one. *)
          let from_snapshot = built t in
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
                (* A replayed Insert leaves every older leaf stale and its
                   own leaves cold (so does a routed shard's Build, which
                   ships no witness): warm them as a live shipment would,
                   once the checkpoint has its bytes. A replayed Build
                   grafts its witnesses and needs none; a snapshot
                   restore that replays nothing serves the leaves the
                   snapshot kept. *)
                if rc.Store.rc_events <> [] && not (leaves_fresh t) then schedule_warm t;
                Log.info (fun m ->
                    m "recovered: snapshot=%b, %d events replayed, dropped_tail=%b, generation %d"
                      from_snapshot (List.length rc.Store.rc_events) rc.Store.rc_dropped_tail
                      (generation t));
                Ok
                  ( t,
                    { rs_snapshot = from_snapshot;
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

(* Span taxonomy name for the requests worth tracing; admin and
   handshake frames stay untraced. *)
let traced_as = function
  | Wire.Search _ -> Some "service.search"
  | Wire.Build _ -> Some "service.build"
  | Wire.Insert _ -> Some "service.insert"
  | Wire.Dispute _ -> Some "service.dispute"
  | Wire.Hello _ | Wire.Ping | Wire.Stats | Wire.Traces | Wire.Receipt _ -> None

let internal exn =
  Log.err (fun m -> m "handler raised: %s" (Printexc.to_string exn));
  refused Wire.Internal (Printexc.to_string exn)

let handle_inner t req =
  Obs.Counter.incr c_requests;
  match admin req with
  | Some resp -> resp
  | exception exn -> internal exn
  | None ->
    (* The wait for the service lock is its own span, so a traced
       request shows how long it queued behind another's handler. *)
    Obs.span "service.lock_wait" (fun () -> Mutex.lock t.lock);
    let resp =
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () -> try handle_locked t req with exn -> internal exn)
    in
    (* The reply must not leave before its journal record is durable. A
       failed barrier refuses instead of replying: the effect is applied
       in memory but not on disk, and the client's retry replays the
       cached reply through a (hopefully healed) barrier. *)
    (match maybe_persist t req with
     | () ->
       (match req, resp with
        | (Wire.Build _ | Wire.Insert _), Wire.Accepted _ -> schedule_warm t
        | _ -> ());
       resp
     | exception exn ->
       Log.err (fun m -> m "durability barrier failed: %s" (Printexc.to_string exn));
       refused Wire.Internal ("durability barrier failed: " ^ Printexc.to_string exn))

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
   with the window treated as expired. Their Flush and Finalize records
   are the wall-clock decisions a WAL replay cannot re-derive (§8),
   unlike the size-triggered flush inside a Search. *)

let settle_step t ~expired =
  Mutex.lock t.lock;
  let flushed, finalized =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        match Option.bind t.state (fun b -> Station.batcher b.b_station) with
        | None -> (false, 0)
        | Some sb ->
          let moved record =
            match apply t record with Moved n -> n | Answered _ | Declined _ -> 0
          in
          let flushed = expired sb && moved Flush > 0 in
          (flushed, moved Finalize))
  in
  if flushed || finalized > 0 then Option.iter Store.sync t.store;
  (flushed, finalized)

let settle_tick t = settle_step t ~expired:Settle_batch.window_expired
let settle_flush t = ignore (settle_step t ~expired:(fun _ -> true))
