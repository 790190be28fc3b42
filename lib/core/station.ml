type t = {
  s_cloud : Cloud.t;
  s_ledger : Ledger.t;
  s_contract : Vm.address;
  s_cloud_addr : Vm.address;
  mutable s_batcher : Settle_batch.t option;
}

let create ~cloud ~ledger ~contract ~cloud_addr =
  { s_cloud = cloud; s_ledger = ledger; s_contract = contract; s_cloud_addr = cloud_addr;
    s_batcher = None }

let validators = [ "validator-1"; "validator-2"; "validator-3" ]

let resume ~cloud ~head ~contract ~cloud_addr =
  create ~cloud ~ledger:(Ledger.resume ~validators head) ~contract ~cloud_addr

let deploy ~acc_params ~tdp_public ~owner ~cloud_addr ~shard ~dispute_window shipment =
  let cloud = Cloud.create ~acc_params ~tdp_public () in
  Cloud.install_shipment cloud shipment;
  let ledger = Ledger.create ~validators in
  Vm.fund (Ledger.state ledger) owner 100_000_000;
  let contract, receipt =
    Slicer_contract.deploy ~shard ~dispute_window ledger ~owner
      ~modulus:acc_params.Rsa_acc.modulus ~initial_ac:shipment.Owner.sh_ac
  in
  match receipt.Vm.r_output with
  | Ok _ -> Ok (create ~cloud ~ledger ~contract ~cloud_addr, receipt)
  | Error e -> Error e

let cloud t = t.s_cloud
let ledger t = t.s_ledger
let contract t = t.s_contract
let cloud_addr t = t.s_cloud_addr
let batcher t = t.s_batcher

let enable_batching ?state t ~config =
  let current_ac () = Cloud.current_ac t.s_cloud in
  let b =
    match state with
    | None ->
      Some
        (Settle_batch.create ~config ~ledger:t.s_ledger ~contract:t.s_contract
           ~cloud:t.s_cloud_addr ~current_ac)
    | Some bytes ->
      Settle_batch.restore ~config ~ledger:t.s_ledger ~contract:t.s_contract
        ~cloud:t.s_cloud_addr ~current_ac bytes
  in
  match b with
  | None -> Error "corrupt settle-batch snapshot"
  | Some b ->
    (* The deposit needs funds at the cloud's address; the service
       faucets it before calling. Idempotent across recovery. *)
    (match Settle_batch.ensure_deposit b with
     | Some r when Result.is_error r.Vm.r_output ->
       Error
         (Printf.sprintf "deposit reverted: %s"
            (match r.Vm.r_output with Error e -> e | Ok _ -> ""))
     | Some _ | None ->
       t.s_batcher <- Some b;
       Ok ())

type deferral = {
  sd_batch : string;          (* the open batch the receipt joined *)
  sd_index : int;             (* its leaf index *)
  sd_leaf : string;           (* encoded leaf bytes *)
}

type outcome =
  | Settled of Vm.receipt     (* eager: the settlement transaction's receipt *)
  | Deferred of deferral      (* optimistic: committed later in a batch *)

type settlement = {
  se_claims : Slicer_contract.claim list;
  se_batch_witness : Bigint.t option;
  se_receipt : Vm.receipt;
  se_outcome : outcome;
}

let settle t ~client ~user ~request_id ~payment ~token_blobs ~batched =
  Obs.span "chain.settle" @@ fun () ->
  let rr =
    Slicer_contract.request_search t.s_ledger ~user ~contract:t.s_contract ~request_id
      ~tokens:token_blobs ~payment
  in
  match rr.Vm.r_output with
  | Error e -> Error e
  | Ok _ ->
    (* The cloud reads the tokens from the escrow transaction's
       calldata (it never talks to the user directly) and reconstructs
       their structure. *)
    let tokens =
      match Slicer_contract.requested_tokens t.s_ledger rr ~request_id with
      | Some blobs -> List.filter_map Slicer_types.token_of_bytes blobs
      | None -> []
    in
    let claims, batch_witness =
      if batched then
        let claims, witness = Cloud.search_batched t.s_cloud tokens in
        (claims, Some witness)
      else (Cloud.search t.s_cloud tokens, None)
    in
    (match t.s_batcher with
     | None ->
       (* Eager settlement: verify and pay/refund in one transaction.
          The escrow's user and amount and the live Ac travel as
          calldata, checked against their on-chain commitments, and
          the claims' prime hints spare the contract the walks. *)
       let ac = Cloud.current_ac t.s_cloud in
       let sr =
         match batch_witness with
         | Some witness ->
           Slicer_contract.submit_result_batched t.s_ledger ~cloud:t.s_cloud_addr
             ~contract:t.s_contract ~request_id ~user ~amount:payment ~ac claims ~witness
         | None ->
           Slicer_contract.submit_result t.s_ledger ~cloud:t.s_cloud_addr
             ~contract:t.s_contract ~request_id ~user ~amount:payment ~ac claims
       in
       Ok { se_claims = claims; se_batch_witness = batch_witness; se_receipt = sr;
            se_outcome = Settled sr }
     | Some b ->
       (* Optimistic settlement: no on-chain verification now — append
          the receipt leaf to the open batch. The escrow stays locked
          until the batch finalizes (or a dispute refunds it); the
          reply carries the escrow receipt. *)
       let leaf = Slicer_contract.receipt_leaf ~client ~request:request_id ~claims ~batch_witness in
       let escrow =
         { Slicer_contract.es_request = request_id;
           es_user = user;
           es_amount = payment;
           es_digest = Slicer_contract.tokens_digest token_blobs }
       in
       let batch, index = Settle_batch.add b leaf ~escrow in
       Ok { se_claims = claims; se_batch_witness = batch_witness; se_receipt = rr;
            se_outcome =
              Deferred { sd_batch = batch; sd_index = index;
                         sd_leaf = Slicer_contract.encode_leaf leaf } })

let onchain_ac_digest t = Slicer_contract.stored_ac_digest t.s_ledger ~contract:t.s_contract

let install t ~owner (sh : Owner.shipment) =
  Obs.span "chain.install" @@ fun () ->
  Cloud.install_shipment t.s_cloud sh;
  let receipt =
    Slicer_contract.update_ac t.s_ledger ~owner ~contract:t.s_contract sh.Owner.sh_ac
  in
  match receipt.Vm.r_output with Ok _ -> Ok receipt | Error e -> Error e
