let log_src = Logs.Src.create "slicer.chain.contract" ~doc:"Slicer settlement contract"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Where the money and the gas go: every transaction submitted through
   the client-side helpers lands in these. Settlements additionally
   split by escrow outcome, the paper's fairness measure. *)
let c_gas = Obs.counter ~help:"gas across all submitted transactions" "slicer_chain_gas_total"

let h_settle_gas =
  Obs.histogram ~units:Obs.Histogram.Raw ~help:"gas per settlement transaction"
    "slicer_chain_settle_gas"

let c_paid = Obs.counter ~help:"settlements paid to the cloud" "slicer_chain_settle_paid_total"

let c_refunded =
  Obs.counter ~help:"settlements refunded to the user" "slicer_chain_settle_refunded_total"

let observe_txn ~label (receipt : Vm.receipt) =
  Obs.Counter.add c_gas receipt.Vm.r_gas_used;
  Log.debug (fun m ->
      m "%s: gas %d, %s" label receipt.Vm.r_gas_used
        (match receipt.Vm.r_output with Ok _ -> "ok" | Error e -> "reverted: " ^ e));
  receipt

let observe_settlement (receipt : Vm.receipt) =
  Obs.Histogram.record h_settle_gas receipt.Vm.r_gas_used;
  (match receipt.Vm.r_output with
   | Ok [ "paid" ] -> Obs.Counter.incr c_paid
   | Ok [ "refunded" ] -> Obs.Counter.incr c_refunded
   | Ok _ | Error _ -> ());
  receipt

type claim = { token_bytes : string; results : string list; witness : Bigint.t }

let encode_claim c =
  Bytesutil.concat [ c.token_bytes; Bytesutil.concat c.results; Bigint.to_bytes_be c.witness ]

let encode_claims cs = Bytesutil.concat (List.map encode_claim cs)

let decode_claim s =
  match Bytesutil.split s with
  | Some [ token_bytes; results_blob; witness_bytes ] ->
    (match Bytesutil.split results_blob with
     | Some results -> Some { token_bytes; results; witness = Bigint.of_bytes_be witness_bytes }
     | None -> None)
  | Some _ | None -> None

let decode_claims s =
  match Bytesutil.split s with
  | None -> None
  | Some pieces ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | p :: rest -> ( match decode_claim p with Some c -> go (c :: acc) rest | None -> None )
    in
    go [] pieces

(* Pseudo-bytecode: hash-expanded filler standing in for the compiled
   Solidity artifact. 2800 bytes is a typical size for a verification
   contract of this shape; deployment gas is dominated by this constant
   (see EXPERIMENTS.md, Table II discussion). *)
let code_size = 2_800

let pseudo_code =
  let buf = Buffer.create code_size in
  let rec fill seed =
    if Buffer.length buf < code_size then begin
      let d = Sha256.digest seed in
      Buffer.add_string buf d;
      fill d
    end
  in
  fill "slicer-contract-bytecode-v1";
  Buffer.sub buf 0 code_size

(* Storage layout. *)
let key_owner = "owner"
let key_modulus = "modulus"
let key_ac = "ac"
let key_shard_id = "shard_id"
let key_shard_count = "shard_count"
let key_window = "dispute_window"
let key_user id = "req:" ^ id ^ ":user"
let key_amount id = "req:" ^ id ^ ":amount"
let key_digest id = "req:" ^ id ^ ":digest"
let key_status id = "req:" ^ id ^ ":status"
let key_deposit who = "deposit:" ^ who

(* Batched-settlement cells: one commitment record per batch. Requests
   are stored as one concatenated blob (a single cell), not one cell
   per member — the whole point of the batch is that per-receipt
   on-chain cost collapses to a status flip. *)
let bkey_status id = "batch:" ^ id ^ ":status"
let bkey_root id = "batch:" ^ id ^ ":root"
let bkey_height id = "batch:" ^ id ^ ":height"
let bkey_count id = "batch:" ^ id ^ ":count"
let bkey_requests id = "batch:" ^ id ^ ":requests"
let bkey_ac id = "batch:" ^ id ^ ":ac"
let bkey_cloud id = "batch:" ^ id ^ ":cloud"

(* One settled-search receipt, as committed under a batch's Merkle
   root. [rl_claim_hash] binds the exact claims blob the cloud served;
   [rl_witness_digest] additionally pins the verification objects so a
   dispute cannot substitute fresh witnesses for the committed ones. *)
type receipt_leaf = {
  rl_client : string;
  rl_request : string;
  rl_claim_hash : string;
  rl_witness_digest : string;
}

let encode_leaf l =
  Bytesutil.concat [ l.rl_client; l.rl_request; l.rl_claim_hash; l.rl_witness_digest ]

let decode_leaf s =
  match Bytesutil.split s with
  | Some [ rl_client; rl_request; rl_claim_hash; rl_witness_digest ] ->
    Some { rl_client; rl_request; rl_claim_hash; rl_witness_digest }
  | Some _ | None -> None

let witness_digest ~claims ~batch_witness =
  match batch_witness with
  | Some w -> Sha256.digest (Bytesutil.concat [ "batch-vo"; Bigint.to_bytes_be w ])
  | None ->
    Sha256.digest
      (Bytesutil.concat ("per-claim-vo" :: List.map (fun c -> Bigint.to_bytes_be c.witness) claims))

let ( let* ) = Result.bind

(* Algorithm 5, one claim: h <- H(er); x <- H_prime(token ‖ h);
   VerifyMem(x, vo). All arithmetic is charged to the meter as the
   corresponding EVM precompile / opcode costs. *)
(* Verdicts are memoized per (params, Ac, claim): a node re-executing
   the same settlement serves the result from its cache, exactly like a
   production client re-validating a seen transaction. Gas is what a
   fresh node would burn — the memo stores the original charge sequence
   and replays it, so receipts are byte-identical either way. *)
let verify_memo_limit = 65_536
let verify_memo : (string, bool * (string * int) list) Hashtbl.t = Hashtbl.create 256

let verify_claim ctx ~params ~ac c =
  let meter = ctx.Vm.meter in
  let key =
    Sha256.digest
      (Bytesutil.concat
         [ "verify"; Bigint.to_bytes_be params.Rsa_acc.modulus; Bigint.to_bytes_be ac;
           c.token_bytes; Bigint.to_bytes_be c.witness; Bytesutil.concat c.results ])
  in
  match Hashtbl.find_opt verify_memo key with
  | Some (ok, charges) ->
    List.iter (fun (label, amount) -> Gasmeter.charge meter ~label amount) charges;
    ok
  | None ->
    let charges = ref [] in
    let charge ~label amount =
      charges := (label, amount) :: !charges;
      Gasmeter.charge meter ~label amount
    in
    List.iter
      (fun er -> charge ~label:"mset-hash" (Gas.hash (String.length er) + Gas.mulmod))
      c.results;
    let h = Mset_hash.of_list c.results in
    let preimage = Bytesutil.concat [ c.token_bytes; Mset_hash.to_bytes h ] in
    charge ~label:"h-prime" (Gas.h_prime ~input_len:(String.length preimage));
    let x = Prime_rep.to_prime preimage in
    let modulus = params.Rsa_acc.modulus in
    let mod_len = (Bigint.num_bits modulus + 7) / 8 in
    charge ~label:"modexp" (Gas.modexp ~base_len:mod_len ~exp:x ~mod_len);
    let ok = Rsa_acc.verify_mem params ~ac ~x ~witness:c.witness in
    if Hashtbl.length verify_memo < verify_memo_limit then
      Hashtbl.replace verify_memo key (ok, List.rev !charges);
    ok

let contract ~modulus ~generator ~initial_ac ~shard ~dispute_window =
  let constructor ctx _args =
    (* generator is part of the public parameters; persisted for
       completeness even though VerifyMem itself only needs n and Ac. *)
    Vm.sstore ctx key_owner ctx.Vm.sender;
    Vm.sstore ctx key_modulus (Bigint.to_bytes_be modulus);
    Vm.sstore ctx "generator" (Bigint.to_bytes_be generator);
    Vm.sstore ctx key_ac (Bigint.to_bytes_be initial_ac);
    (* Cluster identity: which slice of the keyword space this
       contract's Ac covers. A lone server deploys as (0, 1). Stored so
       an auditor (or a recovering shard) can check it is verifying
       against the accumulator it thinks it is. *)
    let shard_id, shard_count = shard in
    Vm.sstore ctx key_shard_id (string_of_int shard_id);
    Vm.sstore ctx key_shard_count (string_of_int shard_count);
    Vm.sstore ctx key_window (string_of_int (max 1 dispute_window));
    Ok []
  in
  let update_ac ctx args =
    match args with
    | [ new_ac ] ->
      let* () = Vm.require ctx (Vm.sload ctx key_owner = Some ctx.Vm.sender) "only owner" in
      Vm.sstore ctx key_ac new_ac;
      Vm.emit ctx (Bytesutil.concat [ "AcUpdated"; new_ac ]);
      Ok []
    | _ -> Error "updateAc: expected [new_ac]"
  in
  let request_search ctx args =
    match args with
    | [ request_id; tokens_blob ] ->
      let* () = Vm.require ctx (Vm.sload ctx (key_status request_id) = None) "duplicate request id" in
      let* () = Vm.require ctx (ctx.Vm.value > 0) "payment required" in
      Vm.sstore ctx (key_user request_id) ctx.Vm.sender;
      Vm.sstore ctx (key_amount request_id) (string_of_int ctx.Vm.value);
      Vm.sstore ctx (key_digest request_id) (Sha256.digest tokens_blob);
      Vm.sstore ctx (key_status request_id) "pending";
      (* Tokens travel to the cloud through the event log, not contract
         storage (storing large blobs on-chain is what the paper's
         related work gets criticised for). *)
      Vm.emit ctx (Bytesutil.concat [ "SearchRequested"; request_id; tokens_blob ]);
      Ok []
    | _ -> Error "requestSearch: expected [request_id; tokens]"
  in
  (* Shared prelude of both settlement paths: load the escrowed request
     and check the cloud answered exactly the requested token sequence. *)
  let load_request ctx request_id claims_blob =
    let* () = Vm.require ctx (Vm.sload ctx (key_status request_id) = Some "pending") "no pending request" in
    let* user = Option.to_result ~none:"missing user" (Vm.sload ctx (key_user request_id)) in
    let* amount_s = Option.to_result ~none:"missing amount" (Vm.sload ctx (key_amount request_id)) in
    let amount = int_of_string amount_s in
    let* digest = Option.to_result ~none:"missing digest" (Vm.sload ctx (key_digest request_id)) in
    let* claims = Option.to_result ~none:"malformed claims" (decode_claims claims_blob) in
    let tokens_blob = Bytesutil.concat (List.map (fun c -> c.token_bytes) claims) in
    Gasmeter.charge ctx.Vm.meter ~label:"hash" (Gas.hash (String.length tokens_blob));
    let* () = Vm.require ctx (Bytesutil.const_equal (Sha256.digest tokens_blob) digest) "token set mismatch" in
    let* modulus_b = Option.to_result ~none:"missing modulus" (Vm.sload ctx key_modulus) in
    let* ac_b = Option.to_result ~none:"missing ac" (Vm.sload ctx key_ac) in
    Ok (user, amount, claims, Bigint.of_bytes_be modulus_b, Bigint.of_bytes_be ac_b)
  in
  let settle ctx request_id ~user ~amount ~ok =
    if ok then begin
      let* () = Vm.send ctx ~to_:ctx.Vm.sender amount in
      Vm.sstore ctx (key_status request_id) "paid";
      Vm.emit ctx (Bytesutil.concat [ "ResultAccepted"; request_id ]);
      Ok [ "paid" ]
    end
    else begin
      let* () = Vm.send ctx ~to_:user amount in
      Vm.sstore ctx (key_status request_id) "refunded";
      Vm.emit ctx (Bytesutil.concat [ "ResultRejected"; request_id ]);
      Ok [ "refunded" ]
    end
  in
  let submit_result ctx args =
    match args with
    | [ request_id; claims_blob ] ->
      let* user, amount, claims, modulus, ac = load_request ctx request_id claims_blob in
      let params = { Rsa_acc.modulus; generator } in
      let ok = List.for_all (verify_claim ctx ~params ~ac) claims in
      settle ctx request_id ~user ~amount ~ok
    | _ -> Error "submitResult: expected [request_id; claims]"
  in
  let submit_result_batched ctx args =
    match args with
    | [ request_id; claims_blob; witness_bytes ] ->
      let* user, amount, claims, modulus, ac = load_request ctx request_id claims_blob in
      (* One witness covers every claim: lift it through each claim's
         prime representative and compare against Ac. *)
      let params = { Rsa_acc.modulus; generator } in
      let meter = ctx.Vm.meter in
      let mod_len = (Bigint.num_bits modulus + 7) / 8 in
      let xs =
        List.map
          (fun c ->
            List.iter
              (fun er -> Gasmeter.charge meter ~label:"mset-hash" (Gas.hash (String.length er) + Gas.mulmod))
              c.results;
            let h = Mset_hash.of_list c.results in
            let preimage = Bytesutil.concat [ c.token_bytes; Mset_hash.to_bytes h ] in
            Gasmeter.charge meter ~label:"h-prime" (Gas.h_prime ~input_len:(String.length preimage));
            Prime_rep.to_prime preimage)
          claims
      in
      List.iter
        (fun x ->
          Gasmeter.charge meter ~label:"modexp" (Gas.modexp ~base_len:mod_len ~exp:x ~mod_len))
        xs;
      let ok = Rsa_acc.verify_mem_batch params ~ac ~xs ~witness:(Bigint.of_bytes_be witness_bytes) in
      settle ctx request_id ~user ~amount ~ok
    | _ -> Error "submitResultBatched: expected [request_id; claims; witness]"
  in
  (* --- optimistic batched settlement ----------------------------------- *)
  let int_at ctx key = Option.bind (Vm.sload ctx key) int_of_string_opt in
  let deposit_of ctx who = Option.value ~default:0 (int_at ctx (key_deposit who)) in
  let window_of ctx = Option.value ~default:1 (int_at ctx key_window) in
  let deposit ctx args =
    match args with
    | [] ->
      let* () = Vm.require ctx (ctx.Vm.value > 0) "deposit: value required" in
      let total = deposit_of ctx ctx.Vm.sender + ctx.Vm.value in
      Vm.sstore ctx (key_deposit ctx.Vm.sender) (string_of_int total);
      Vm.emit ctx (Bytesutil.concat [ "DepositPosted"; ctx.Vm.sender; string_of_int total ]);
      Ok [ string_of_int total ]
    | _ -> Error "deposit: expected no arguments"
  in
  (* commitBatch: the cloud posts one Merkle root over a batch of
     settled-search receipt leaves. Escrows stay locked; each member
     request merely flips "pending" -> "batched" (a reset-priced
     sstore), which is what amortizes Table-II settlement gas by the
     batch size. Verification is deferred to [dispute]. *)
  let commit_batch ctx args =
    match args with
    | [ batch_id; root; requests_blob ] ->
      let* () = Vm.require ctx (batch_id <> "") "commitBatch: empty batch id" in
      let* () = Vm.require ctx (Vm.sload ctx (bkey_status batch_id) = None) "duplicate batch id" in
      let* () =
        Vm.require ctx (deposit_of ctx ctx.Vm.sender > 0) "commitBatch: deposit required"
      in
      let* requests =
        Option.to_result ~none:"commitBatch: malformed request list" (Bytesutil.split requests_blob)
      in
      let* () = Vm.require ctx (requests <> []) "commitBatch: empty batch" in
      let rec mark = function
        | [] -> Ok ()
        | id :: rest ->
          let* () =
            Vm.require ctx
              (Vm.sload ctx (key_status id) = Some "pending")
              "commitBatch: request not pending"
          in
          Vm.sstore ctx (key_status id) "batched";
          mark rest
      in
      let* () = mark requests in
      let* ac = Option.to_result ~none:"missing ac" (Vm.sload ctx key_ac) in
      Vm.sstore ctx (bkey_root batch_id) root;
      (* Snapshot Ac at commit time: later Inserts move [key_ac], and a
         dispute must re-verify against the value the claims settled
         under, not whatever is current when the dispute lands. *)
      Vm.sstore ctx (bkey_ac batch_id) ac;
      Vm.sstore ctx (bkey_count batch_id) (string_of_int (List.length requests));
      Vm.sstore ctx (bkey_height batch_id) (string_of_int ctx.Vm.height);
      Vm.sstore ctx (bkey_cloud batch_id) ctx.Vm.sender;
      Vm.sstore ctx (bkey_requests batch_id) requests_blob;
      Vm.sstore ctx (bkey_status batch_id) "committed";
      Vm.emit ctx (Bytesutil.concat [ "BatchCommitted"; batch_id; root ]);
      Ok [ "committed" ]
    | _ -> Error "commitBatch: expected [batch_id; root; requests]"
  in
  (* dispute: anyone re-runs Algorithm 5 for ONE leaf, on-chain, against
     the batch's committed Ac. The disputer supplies the leaf bytes, a
     Merkle inclusion proof, and the claims blob the cloud served (its
     hash is committed in the leaf, so nothing can be substituted). A
     leaf that fails verification slashes the cloud's whole deposit to
     the disputer and refunds every escrow in the batch. *)
  let dispute ctx args =
    match args with
    | [ batch_id; index_s; leaf_bytes; proof_bytes; claims_blob; batch_witness ] ->
      let* () =
        Vm.require ctx
          (Vm.sload ctx (bkey_status batch_id) = Some "committed")
          "dispute: batch not committed"
      in
      let* committed_h = Option.to_result ~none:"missing height" (int_at ctx (bkey_height batch_id)) in
      let* () =
        Vm.require ctx
          (ctx.Vm.height < committed_h + window_of ctx)
          "dispute: window closed"
      in
      let* root = Option.to_result ~none:"missing root" (Vm.sload ctx (bkey_root batch_id)) in
      let* count = Option.to_result ~none:"missing count" (int_at ctx (bkey_count batch_id)) in
      let* index = Option.to_result ~none:"dispute: bad index" (int_of_string_opt index_s) in
      let* () = Vm.require ctx (index >= 0 && index < count) "dispute: index out of range" in
      let* proof =
        Option.to_result ~none:"dispute: malformed proof" (Merkle.proof_of_bytes proof_bytes)
      in
      let* () = Vm.require ctx (proof.Merkle.index = index) "dispute: proof index mismatch" in
      Gasmeter.charge ctx.Vm.meter ~label:"merkle"
        ((List.length proof.Merkle.path + 1) * Gas.hash 65);
      let* () =
        Vm.require ctx (Merkle.verify ~root ~leaf:leaf_bytes proof) "dispute: inclusion proof rejected"
      in
      let* leaf = Option.to_result ~none:"dispute: malformed leaf" (decode_leaf leaf_bytes) in
      let* members =
        Option.to_result ~none:"missing requests"
          (Option.bind (Vm.sload ctx (bkey_requests batch_id)) Bytesutil.split)
      in
      let* () = Vm.require ctx (List.mem leaf.rl_request members) "dispute: leaf not in batch" in
      Gasmeter.charge ctx.Vm.meter ~label:"hash" (Gas.hash (String.length claims_blob));
      let* () =
        Vm.require ctx
          (Bytesutil.const_equal (Sha256.digest claims_blob) leaf.rl_claim_hash)
          "dispute: claims do not match committed hash"
      in
      let* claims = Option.to_result ~none:"malformed claims" (decode_claims claims_blob) in
      let bw = if batch_witness = "" then None else Some (Bigint.of_bytes_be batch_witness) in
      Gasmeter.charge ctx.Vm.meter ~label:"hash" (Gas.hash 64);
      let* () =
        Vm.require ctx
          (Bytesutil.const_equal (witness_digest ~claims ~batch_witness:bw) leaf.rl_witness_digest)
          "dispute: witnesses do not match committed digest"
      in
      (* The claims must answer the escrowed token set of the leaf's
         request — same binding as the eager settlement path. *)
      let* digest =
        Option.to_result ~none:"missing digest" (Vm.sload ctx (key_digest leaf.rl_request))
      in
      let tokens_blob = Bytesutil.concat (List.map (fun c -> c.token_bytes) claims) in
      Gasmeter.charge ctx.Vm.meter ~label:"hash" (Gas.hash (String.length tokens_blob));
      let* () =
        Vm.require ctx
          (Bytesutil.const_equal (Sha256.digest tokens_blob) digest)
          "dispute: token set mismatch"
      in
      let* modulus_b = Option.to_result ~none:"missing modulus" (Vm.sload ctx key_modulus) in
      let* ac_b = Option.to_result ~none:"missing batch ac" (Vm.sload ctx (bkey_ac batch_id)) in
      let params = { Rsa_acc.modulus = Bigint.of_bytes_be modulus_b; generator } in
      let ac = Bigint.of_bytes_be ac_b in
      let ok =
        match bw with
        | None -> List.for_all (verify_claim ctx ~params ~ac) claims
        | Some witness ->
          let meter = ctx.Vm.meter in
          let mod_len = (Bigint.num_bits params.Rsa_acc.modulus + 7) / 8 in
          let xs =
            List.map
              (fun c ->
                List.iter
                  (fun er ->
                    Gasmeter.charge meter ~label:"mset-hash"
                      (Gas.hash (String.length er) + Gas.mulmod))
                  c.results;
                let h = Mset_hash.of_list c.results in
                let preimage = Bytesutil.concat [ c.token_bytes; Mset_hash.to_bytes h ] in
                Gasmeter.charge meter ~label:"h-prime" (Gas.h_prime ~input_len:(String.length preimage));
                Prime_rep.to_prime preimage)
              claims
          in
          List.iter
            (fun x ->
              Gasmeter.charge meter ~label:"modexp" (Gas.modexp ~base_len:mod_len ~exp:x ~mod_len))
            xs;
          Rsa_acc.verify_mem_batch params ~ac ~xs ~witness
      in
      if ok then Error "dispute rejected: leaf verifies against Ac"
      else begin
        (* Proven-bad leaf: bounty the disputer with the cloud's whole
           deposit and refund every escrow in the batch. *)
        let* cloud = Option.to_result ~none:"missing cloud" (Vm.sload ctx (bkey_cloud batch_id)) in
        let bounty = deposit_of ctx cloud in
        Vm.sstore ctx (key_deposit cloud) "0";
        let* () = if bounty > 0 then Vm.send ctx ~to_:ctx.Vm.sender bounty else Ok () in
        let rec refund = function
          | [] -> Ok ()
          | id :: rest ->
            let* user = Option.to_result ~none:"missing user" (Vm.sload ctx (key_user id)) in
            let* amount = Option.to_result ~none:"missing amount" (int_at ctx (key_amount id)) in
            let* () = Vm.send ctx ~to_:user amount in
            Vm.sstore ctx (key_status id) "refunded";
            refund rest
        in
        let* () = refund members in
        Vm.sstore ctx (bkey_status batch_id) "slashed";
        Vm.emit ctx (Bytesutil.concat [ "BatchSlashed"; batch_id; leaf.rl_request ]);
        Ok [ "slashed" ]
      end
    | _ -> Error "dispute: expected [batch_id; index; leaf; proof; claims; batch_witness]"
  in
  (* finalize: after the dispute cutoff an undisputed batch settles
     wholesale — the member escrows, summed, pay out to the committing
     cloud in one transfer. *)
  let finalize ctx args =
    match args with
    | [ batch_id ] ->
      let* () =
        Vm.require ctx
          (Vm.sload ctx (bkey_status batch_id) = Some "committed")
          "finalize: batch not committed"
      in
      let* committed_h = Option.to_result ~none:"missing height" (int_at ctx (bkey_height batch_id)) in
      let* () =
        Vm.require ctx
          (ctx.Vm.height >= committed_h + window_of ctx)
          "finalize: dispute window still open"
      in
      let* cloud = Option.to_result ~none:"missing cloud" (Vm.sload ctx (bkey_cloud batch_id)) in
      let* members =
        Option.to_result ~none:"missing requests"
          (Option.bind (Vm.sload ctx (bkey_requests batch_id)) Bytesutil.split)
      in
      let rec tally total = function
        | [] -> Ok total
        | id :: rest ->
          let* amount = Option.to_result ~none:"missing amount" (int_at ctx (key_amount id)) in
          Vm.sstore ctx (key_status id) "paid";
          tally (total + amount) rest
      in
      let* total = tally 0 members in
      let* () = Vm.send ctx ~to_:cloud total in
      Vm.sstore ctx (bkey_status batch_id) "final";
      Vm.emit ctx (Bytesutil.concat [ "BatchFinalized"; batch_id; string_of_int total ]);
      Ok [ "finalized"; string_of_int total ]
    | _ -> Error "finalize: expected [batch_id]"
  in
  { Vm.cd_name = "slicer-verifier";
    cd_code = pseudo_code;
    cd_methods =
      [ ("constructor", constructor);
        ("updateAc", update_ac);
        ("requestSearch", request_search);
        ("submitResult", submit_result);
        ("submitResultBatched", submit_result_batched);
        ("deposit", deposit);
        ("commitBatch", commit_batch);
        ("dispute", dispute);
        ("finalize", finalize) ] }

(* --- client-side helpers ---------------------------------------------- *)

let restore ledger ~contract:addr ~modulus ~generator =
  (* Recovery: put the contract definition back at its snapshotted
     address without executing anything. The constructor closure never
     runs — the restored storage already holds its effects — so the
     [initial_ac] baked into it is irrelevant; the live [Ac] is the
     [key_ac] storage cell. *)
  let def = contract ~modulus ~generator ~initial_ac:Bigint.one ~shard:(0, 1) ~dispute_window:1 in
  Vm.install_contract (Ledger.state ledger) addr def

let deploy ?(shard = (0, 1)) ?(dispute_window = 4) ledger ~owner ~modulus ~generator ~initial_ac =
  let def = contract ~modulus ~generator ~initial_ac ~shard ~dispute_window in
  let txn = Vm.make_deploy (Ledger.state ledger) ~sender:owner def [] in
  let receipt = observe_txn ~label:"deploy" (Ledger.submit_and_seal ledger txn) in
  (txn.Vm.tx_to, receipt)

let update_ac ledger ~owner ~contract ac =
  let txn =
    Vm.make_call (Ledger.state ledger) ~sender:owner ~to_:contract "updateAc"
      [ Bigint.to_bytes_be ac ]
  in
  observe_txn ~label:"updateAc" (Ledger.submit_and_seal ledger txn)

let request_search ledger ~user ~contract ~request_id ~tokens ~payment =
  let txn =
    Vm.make_call (Ledger.state ledger) ~sender:user ~to_:contract ~value:payment "requestSearch"
      [ request_id; Bytesutil.concat tokens ]
  in
  observe_txn ~label:"requestSearch" (Ledger.submit_and_seal ledger txn)

let submit_result ledger ~cloud ~contract ~request_id claims =
  let txn =
    Vm.make_call (Ledger.state ledger) ~sender:cloud ~to_:contract "submitResult"
      [ request_id; encode_claims claims ]
  in
  observe_settlement (observe_txn ~label:"submitResult" (Ledger.submit_and_seal ledger txn))

let submit_result_batched ledger ~cloud ~contract ~request_id claims ~witness =
  let txn =
    Vm.make_call (Ledger.state ledger) ~sender:cloud ~to_:contract "submitResultBatched"
      [ request_id; encode_claims claims; Bigint.to_bytes_be witness ]
  in
  observe_settlement
    (observe_txn ~label:"submitResultBatched" (Ledger.submit_and_seal ledger txn))

let storage_get ledger ~contract key =
  (* Read-only view (no gas): inspecting state through a local node. *)
  let state = Ledger.state ledger in
  match Vm.contract_at state contract with
  | None -> None
  | Some _ ->
    let ctx =
      { Vm.state; meter = Gasmeter.create (); sender = contract; self = contract; value = 0;
        height = 0 }
    in
    Vm.sload ctx key

let request_status ledger ~contract ~request_id = storage_get ledger ~contract (key_status request_id)

let stored_ac ledger ~contract =
  Option.map Bigint.of_bytes_be (storage_get ledger ~contract key_ac)

let stored_shard ledger ~contract =
  match
    ( Option.bind (storage_get ledger ~contract key_shard_id) int_of_string_opt,
      Option.bind (storage_get ledger ~contract key_shard_count) int_of_string_opt )
  with
  | Some i, Some n -> Some (i, n)
  | _ -> None

(* Tokens travel to the cloud through the event log, and an off-chain
   indexer recovers them — but a real indexer tails the chain rather
   than replaying it per lookup. Each ledger gets an incremental index
   of SearchRequested events that only absorbs blocks sealed since its
   previous call, so a lookup costs amortized O(new blocks) instead of
   O(chain length). When the bounded table fills, the index resets and
   rebuilds on the next lookup, so eviction can never turn a stored
   request into a miss. *)
type token_index = {
  mutable ti_height : int; (* highest block number absorbed so far *)
  ti_tokens : (string, string list) Hashtbl.t; (* request_id -> tokens *)
}

let token_index_limit = 65_536
let token_indexes : (int, token_index) Hashtbl.t = Hashtbl.create 4
let token_indexes_lock = Mutex.create ()

let token_index_for ledger =
  let uid = Ledger.uid ledger in
  match Hashtbl.find_opt token_indexes uid with
  | Some idx -> idx
  | None ->
    (* Indexes for dead ledgers linger; cap how many before restarting. *)
    if Hashtbl.length token_indexes >= 16 then Hashtbl.reset token_indexes;
    let idx = { ti_height = -1; ti_tokens = Hashtbl.create 256 } in
    Hashtbl.replace token_indexes uid idx;
    idx

let absorb_block idx (block : Block.t) =
  List.iter
    (fun (r : Vm.receipt) ->
      List.iter
        (fun ev ->
          match Bytesutil.split ev with
          | Some [ "SearchRequested"; id; blob ] -> (
            match Bytesutil.split blob with
            | Some tokens -> Hashtbl.replace idx.ti_tokens id tokens
            | None -> ())
          | Some _ | None -> ())
        r.Vm.r_events)
    block.Block.receipts;
  idx.ti_height <- block.Block.header.Block.number

(* --- batched-settlement client helpers --------------------------------- *)

let post_deposit ledger ~cloud ~contract ~amount =
  let txn =
    Vm.make_call (Ledger.state ledger) ~sender:cloud ~to_:contract ~value:amount "deposit" []
  in
  observe_txn ~label:"deposit" (Ledger.submit_and_seal ledger txn)

let commit_batch ledger ~cloud ~contract ~batch_id ~root ~requests =
  let txn =
    Vm.make_call (Ledger.state ledger) ~sender:cloud ~to_:contract "commitBatch"
      [ batch_id; root; Bytesutil.concat requests ]
  in
  observe_txn ~label:"commitBatch" (Ledger.submit_and_seal ledger txn)

let dispute_leaf ledger ~disputer ~contract ~batch_id ~index ~leaf ~proof ~claims_blob
    ~batch_witness =
  let bw = match batch_witness with None -> "" | Some w -> Bigint.to_bytes_be w in
  let txn =
    Vm.make_call (Ledger.state ledger) ~sender:disputer ~to_:contract "dispute"
      [ batch_id; string_of_int index; leaf; Merkle.proof_to_bytes proof; claims_blob; bw ]
  in
  observe_txn ~label:"dispute" (Ledger.submit_and_seal ledger txn)

let finalize_batch ledger ~cloud ~contract ~batch_id =
  let txn =
    Vm.make_call (Ledger.state ledger) ~sender:cloud ~to_:contract "finalize" [ batch_id ]
  in
  observe_txn ~label:"finalize" (Ledger.submit_and_seal ledger txn)

let batch_status ledger ~contract ~batch_id = storage_get ledger ~contract (bkey_status batch_id)

let stored_deposit ledger ~contract ~who =
  match storage_get ledger ~contract (key_deposit who) with
  | Some s -> Option.value ~default:0 (int_of_string_opt s)
  | None -> 0

let stored_dispute_window ledger ~contract =
  Option.bind (storage_get ledger ~contract key_window) int_of_string_opt

let stored_tokens ledger ~contract ~request_id =
  ignore contract;
  Mutex.lock token_indexes_lock;
  let idx = token_index_for ledger in
  if Hashtbl.length idx.ti_tokens >= token_index_limit || Ledger.height ledger < idx.ti_height
  then begin
    Hashtbl.reset idx.ti_tokens;
    idx.ti_height <- -1
  end;
  List.iter (absorb_block idx) (Ledger.blocks_above ledger ~height:idx.ti_height);
  let found = Hashtbl.find_opt idx.ti_tokens request_id in
  Mutex.unlock token_indexes_lock;
  found
