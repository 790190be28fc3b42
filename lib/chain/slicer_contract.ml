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

(* One counter per gas label ("h-prime" is slicer_chain_gas_h_prime_total);
   together they sum to c_gas. The labels are the VM's and this
   contract's; get-or-create covers any other. *)
let label_counter label =
  Obs.counter
    ~help:(Printf.sprintf "gas charged as %s across all submitted transactions" label)
    (Printf.sprintf "slicer_chain_gas_%s_total" (String.map (fun ch -> if ch = '-' then '_' else ch) label))

let label_counters =
  List.map
    (fun label -> (label, label_counter label))
    [ "intrinsic"; "sstore"; "sload"; "log"; "call"; "hash"; "h-prime"; "mset-hash"; "modexp";
      "merkle" ]

let gas_by_label () =
  List.sort compare (List.map (fun (label, c) -> (label, Obs.Counter.value c)) label_counters)

(* The receipt is the last transaction [ledger] executed, so the VM's
   last breakdown is its split. *)
let observe_txn ledger ~label (receipt : Vm.receipt) =
  Obs.Counter.add c_gas receipt.Vm.r_gas_used;
  List.iter
    (fun (l, gas) ->
      let c = match List.assoc_opt l label_counters with Some c -> c | None -> label_counter l in
      Obs.Counter.add c gas)
    (Vm.last_breakdown (Ledger.state ledger));
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

(* Storage layout: every cell is at most one 32-byte word (DESIGN §5,
   "Contract storage"). Blobs stay off chain; the contract keeps their
   commitments and takes the preimages as calldata. The accumulator
   modulus is no cell at all: it is part of the deployed code, as a
   Solidity [immutable] is. *)
let key_owner = "owner"
let key_ac = "ac" (* H(Ac) *)
let key_shard_id = "shard_id"
let key_shard_count = "shard_count"
let key_window = "dispute_window"
let key_request id = "req:" ^ id (* 31-byte escrow commitment ‖ status byte *)
let key_deposit who = "deposit:" ^ who

(* Batched-settlement cells: six words per batch, whatever its size.
   The member list is kept as its hash; a dispute, which needs the
   list, passes it as calldata. *)
let bkey_status id = "batch:" ^ id ^ ":status"
let bkey_root id = "batch:" ^ id ^ ":root"
let bkey_members id = "batch:" ^ id ^ ":members" (* H(member list) *)
let bkey_ac id = "batch:" ^ id ^ ":ac" (* H(Ac) in force at commit *)
let bkey_info id = "batch:" ^ id ^ ":info" (* count ‖ commit height ‖ escrow total *)
let bkey_cloud id = "batch:" ^ id ^ ":cloud"

(* --- escrow commitments ------------------------------------------------ *)

type escrow = { es_request : string; es_user : Vm.address; es_amount : int; es_digest : string }

let tokens_digest tokens = Sha256.digest (Bytesutil.concat tokens)

(* user ‖ amount ‖ token digest: a request deadline would join as a
   fourth field. *)
let escrow_preimage ~user ~amount ~digest = Bytesutil.concat [ user; string_of_int amount; digest ]
let commitment_of_digest d = String.sub d 0 31

let encode_escrow e = Bytesutil.concat [ e.es_request; e.es_user; string_of_int e.es_amount; e.es_digest ]
let encode_escrows es = Bytesutil.concat (List.map encode_escrow es)

let decode_escrow s =
  match Bytesutil.split s with
  | Some [ es_request; es_user; amount; es_digest ] ->
    Option.map (fun es_amount -> { es_request; es_user; es_amount; es_digest }) (int_of_string_opt amount)
  | Some _ | None -> None

let decode_escrows blob =
  match Bytesutil.split blob with
  | None -> None
  | Some pieces ->
    let es = List.filter_map decode_escrow pieces in
    if List.length es = List.length pieces then Some es else None

(* The escrow slot's last byte. *)
let st_pending = 'p'
let st_batched = 'b'
let st_paid = '$'
let st_refunded = 'r'

let slot_status slot = if String.length slot = 32 then Some slot.[31] else None
let with_status slot c = String.sub slot 0 31 ^ String.make 1 c

let status_name c =
  if c = st_pending then Some "pending"
  else if c = st_batched then Some "batched"
  else if c = st_paid then Some "paid"
  else if c = st_refunded then Some "refunded"
  else None

let ac_digest ac = Sha256.digest (Bigint.to_bytes_be ac)

(* The batch's packed word: member count, commit height and escrow
   total, 8 bytes each. *)
let pack_info ~count ~height ~total =
  Bytesutil.be64 count ^ Bytesutil.be64 height ^ Bytesutil.be64 total

let unpack_info s =
  if String.length s <> 24 then None
  else
    let at i = Int64.to_int (String.get_int64_be s (8 * i)) in
    Some (at 0, at 1, at 2)

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

let witness_digest_input ~claims ~batch_witness =
  match batch_witness with
  | Some w -> Bytesutil.concat [ "batch-vo"; Bigint.to_bytes_be w ]
  | None -> Bytesutil.concat ("per-claim-vo" :: List.map (fun c -> Bigint.to_bytes_be c.witness) claims)

let witness_digest ~claims ~batch_witness = Sha256.digest (witness_digest_input ~claims ~batch_witness)

let receipt_leaf ~client ~request ~claims ~batch_witness =
  { rl_client = client;
    rl_request = request;
    rl_claim_hash = Sha256.digest (encode_claims claims);
    rl_witness_digest = witness_digest ~claims ~batch_witness }

let ( let* ) = Result.bind

let claim_input ~token_bytes results =
  Bytesutil.concat [ token_bytes; Mset_hash.to_bytes (Mset_hash.of_list results) ]

(* --- prime hints ------------------------------------------------------- *)

let encode_hints hints =
  let b = Bytes.create (2 * List.length hints) in
  List.iteri
    (fun i j ->
      if j < 0 || j > 0xffff then invalid_arg "Slicer_contract.encode_hints: offset out of range";
      Bytes.set_uint16_be b (2 * i) j)
    hints;
  Bytes.unsafe_to_string b

let decode_hints blob ~count =
  if String.length blob <> 2 * count then None
  else Some (List.init count (fun i -> String.get_uint16_be blob (2 * i)))

(* Where a claim's prime comes from: the submitter's hint, one
   Baillie–PSW test, or the whole walk. Only the cloud hints, and a
   wrong hint only fails its own claim; a disputer's hint could name a
   later prime and fail an honest leaf, so [dispute] and the user
   walk. *)
type prime_source = Walk | Hint of int

let source_tag = function Walk -> "walk" | Hint j -> "hint:" ^ string_of_int j

let claim_prime ~charge source preimage =
  let input_len = String.length preimage in
  match source with
  | Walk ->
    charge ~label:"h-prime" (Gas.h_prime ~input_len);
    Some (Prime_rep.to_prime preimage)
  | Hint j ->
    charge ~label:"h-prime" (Gas.h_prime_hinted ~input_len);
    Prime_rep.of_offset preimage j

(* Algorithm 5 over one unit, the claims that one witness covers: per
   claim h <- H(er) and x <- H_prime(token ‖ h) from the claim's prime
   source, then VerifyMem by one modexp per prime. Every step is charged
   as the corresponding EVM precompile / opcode cost, in that order. A
   hint that names no prime fails the claims before any modexp. *)
let check_unit ~charge ~params ~ac claims ~witness =
  let xs =
    List.map
      (fun (c, source) ->
        List.iter
          (fun er -> charge ~label:"mset-hash" (Gas.hash (String.length er) + Gas.mulmod))
          c.results;
        claim_prime ~charge source (claim_input ~token_bytes:c.token_bytes c.results))
      claims
  in
  if List.exists Option.is_none xs then false
  else begin
    let xs = List.filter_map Fun.id xs in
    let mod_len = (Bigint.num_bits params.Rsa_acc.modulus + 7) / 8 in
    List.iter (fun x -> charge ~label:"modexp" (Gas.modexp ~base_len:mod_len ~exp:x ~mod_len)) xs;
    Rsa_acc.verify_mem_batch params ~ac ~xs ~witness
  end

(* One memo in front of Algorithm 5, for the contract and the user
   alike: a unit's verdict is a pure function of the modulus, Ac, the
   unit's witness, and each claim's prime source, token, results and
   witness, so a repeated unit is answered from the table. An entry
   keeps the charge sequence with consecutive charges of one label
   merged, and a hit replays it: the meter's total, its split by label
   and the point where it runs out of gas are what a fresh node would
   see, so receipts are identical either way. (One sum per label would
   not be: a shared-witness unit alternates mset-hash and h-prime claim
   by claim.) Every lookup records its charges, the user's no-op ones
   included, so a dispute that hits an entry the user stored still
   burns the right gas. The source is in the key because it decides
   both: a walk and a hint charge different h-prime gas, and a wrong
   hint fails a claim its walk would pass. *)
let memo_limit = 65_536
let memo : (string, bool * (string * int) list) Hashtbl.t = Hashtbl.create 256
let memo_lock = Mutex.create ()

let c_verify_hits =
  Obs.counter ~help:"claim-verification memo hits" "slicer_acc_verify_cache_hits_total"

let c_verify_misses =
  Obs.counter ~help:"claim-verification memo misses" "slicer_acc_verify_cache_misses_total"

(* A per-claim unit's witness is its claim's, so only a shared witness
   is a piece of its own (empty otherwise). *)
let unit_key ~params ~ac ~batch_witness claims =
  Sha256.digest
    (Bytesutil.concat
       ("alg5" :: Bigint.to_bytes_be params.Rsa_acc.modulus :: Bigint.to_bytes_be ac
        :: Option.fold ~none:"" ~some:Bigint.to_bytes_be batch_witness
        :: List.map
             (fun (c, source) ->
               Bytesutil.concat
                 [ source_tag source; c.token_bytes; Bigint.to_bytes_be c.witness;
                   Bytesutil.concat c.results ])
             claims))

let verify_unit ~charge ~params ~ac ~batch_witness claims ~witness =
  let key = unit_key ~params ~ac ~batch_witness claims in
  Mutex.lock memo_lock;
  let found = Hashtbl.find_opt memo key in
  Mutex.unlock memo_lock;
  match found with
  | Some (ok, charges) ->
    Obs.Counter.incr c_verify_hits;
    List.iter (fun (label, amount) -> charge ~label amount) charges;
    ok
  | None ->
    Obs.Counter.incr c_verify_misses;
    let charges = ref [] in
    let record ~label amount =
      (charges :=
         match !charges with
         | (l, sum) :: rest when String.equal l label -> (l, sum + amount) :: rest
         | cs -> (label, amount) :: cs);
      charge ~label amount
    in
    let ok = check_unit ~charge:record ~params ~ac claims ~witness in
    Mutex.lock memo_lock;
    if Hashtbl.length memo < memo_limit then Hashtbl.replace memo key (ok, List.rev !charges);
    Mutex.unlock memo_lock;
    ok

let verify ~charge params ~ac ~batch_witness claims =
  match batch_witness with
  | Some witness -> verify_unit ~charge ~params ~ac ~batch_witness claims ~witness
  | None ->
    List.for_all
      (fun ((c, _) as claim) ->
        verify_unit ~charge ~params ~ac ~batch_witness [ claim ] ~witness:c.witness)
      claims

(* Every hash the contract computes is charged by its input's length. *)
let sha ctx input =
  Gasmeter.charge ctx.Vm.meter ~label:"hash" (Gas.hash (String.length input));
  Sha256.digest input

let contract ~modulus ~initial_ac ~shard ~dispute_window =
  (* VerifyMem reads the modulus only; the generator is not part of the
     deployed code. *)
  let params = { Rsa_acc.modulus; generator = Bigint.one } in
  let constructor ctx _args =
    Vm.sstore ctx key_owner ctx.Vm.sender;
    Vm.sstore ctx key_ac (sha ctx (Bigint.to_bytes_be initial_ac));
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
      Vm.sstore ctx key_ac (sha ctx new_ac);
      Vm.emit ctx (Bytesutil.concat [ "AcUpdated"; new_ac ]);
      Ok []
    | _ -> Error "updateAc: expected [new_ac]"
  in
  (* The given Ac must be the one whose hash is on chain. *)
  let check_ac ctx ~key ~reason ac_bytes =
    let* stored = Option.to_result ~none:"missing ac" (Vm.sload ctx key) in
    Vm.require ctx (Bytesutil.const_equal (sha ctx ac_bytes) stored) reason
  in
  let request_search ctx args =
    match args with
    | [ request_id; tokens_blob ] ->
      let* () = Vm.require ctx (Vm.sload ctx (key_request request_id) = None) "duplicate request id" in
      let* () = Vm.require ctx (ctx.Vm.value > 0) "payment required" in
      let digest = sha ctx tokens_blob in
      let c =
        sha ctx (escrow_preimage ~user:ctx.Vm.sender ~amount:ctx.Vm.value ~digest)
      in
      Vm.sstore ctx (key_request request_id) (commitment_of_digest c ^ String.make 1 st_pending);
      (* Tokens travel to the cloud through the event log, not contract
         storage (storing large blobs on-chain is what the paper's
         related work gets criticised for). *)
      Vm.emit ctx (Bytesutil.concat [ "SearchRequested"; request_id; tokens_blob ]);
      Ok []
    | _ -> Error "requestSearch: expected [request_id; tokens]"
  in
  (* [slot] holds the commitment to [e]'s preimage, with status [st]. *)
  let escrow_matches ctx slot e ~st =
    slot_status slot = Some st
    && Bytesutil.const_equal
         (commitment_of_digest
            (sha ctx (escrow_preimage ~user:e.es_user ~amount:e.es_amount ~digest:e.es_digest)))
         (String.sub slot 0 31)
  in
  (* Shared prelude of both settlement paths: load the escrow slot,
     check the calldata's user and amount against its commitment (the
     token digest is recomputed from the claims, so the cloud must
     answer exactly the requested token sequence) and the calldata's Ac
     against H(Ac). *)
  let load_request ctx request_id ~user ~amount_s ~ac_bytes claims_blob =
    let* slot =
      match Vm.sload ctx (key_request request_id) with
      | Some s when slot_status s = Some st_pending -> Ok s
      | Some _ | None -> Error "no pending request"
    in
    let* amount = Option.to_result ~none:"malformed amount" (int_of_string_opt amount_s) in
    let* claims = Option.to_result ~none:"malformed claims" (decode_claims claims_blob) in
    let digest = sha ctx (Bytesutil.concat (List.map (fun c -> c.token_bytes) claims)) in
    let escrow = { es_request = request_id; es_user = user; es_amount = amount; es_digest = digest } in
    let* () = Vm.require ctx (escrow_matches ctx slot escrow ~st:st_pending) "token set mismatch" in
    let* () = check_ac ctx ~key:key_ac ~reason:"ac mismatch" ac_bytes in
    Ok (slot, amount, claims, Bigint.of_bytes_be ac_bytes)
  in
  let settle ctx request_id slot ~user ~amount ~ok =
    if ok then begin
      let* () = Vm.send ctx ~to_:ctx.Vm.sender amount in
      Vm.sstore ctx (key_request request_id) (with_status slot st_paid);
      Vm.emit ctx (Bytesutil.concat [ "ResultAccepted"; request_id ]);
      Ok [ "paid" ]
    end
    else begin
      let* () = Vm.send ctx ~to_:user amount in
      Vm.sstore ctx (key_request request_id) (with_status slot st_refunded);
      Vm.emit ctx (Bytesutil.concat [ "ResultRejected"; request_id ]);
      Ok [ "refunded" ]
    end
  in
  (* The submitter's hints, one per claim in claim order: each claim
     is verified against the prime its hint names. *)
  let hinted claims hints_blob =
    match decode_hints hints_blob ~count:(List.length claims) with
    | Some hints -> Ok (List.map2 (fun c j -> (c, Hint j)) claims hints)
    | None -> Error "malformed hints"
  in
  let submit_result ctx args =
    match args with
    | [ request_id; user; amount_s; ac_bytes; claims_blob; hints_blob ] ->
      let* slot, amount, claims, ac = load_request ctx request_id ~user ~amount_s ~ac_bytes claims_blob in
      let* claims = hinted claims hints_blob in
      let ok =
        verify ~charge:(Gasmeter.charge ctx.Vm.meter) params ~ac ~batch_witness:None claims
      in
      settle ctx request_id slot ~user ~amount ~ok
    | _ -> Error "submitResult: expected [request_id; user; amount; ac; claims; hints]"
  in
  let submit_result_batched ctx args =
    match args with
    | [ request_id; user; amount_s; ac_bytes; claims_blob; witness_bytes; hints_blob ] ->
      let* slot, amount, claims, ac = load_request ctx request_id ~user ~amount_s ~ac_bytes claims_blob in
      let* claims = hinted claims hints_blob in
      (* One witness covers every claim: lift it through each claim's
         prime representative and compare against Ac. *)
      let ok =
        verify ~charge:(Gasmeter.charge ctx.Vm.meter) params ~ac
          ~batch_witness:(Some (Bigint.of_bytes_be witness_bytes)) claims
      in
      settle ctx request_id slot ~user ~amount ~ok
    | _ ->
      Error "submitResultBatched: expected [request_id; user; amount; ac; claims; witness; hints]"
  in
  (* --- optimistic batched settlement ----------------------------------- *)
  let int_at ctx key = Option.bind (Vm.sload ctx key) int_of_string_opt in
  let deposit_of ctx who = Option.value ~default:0 (int_at ctx (key_deposit who)) in
  let window_of ctx = Option.value ~default:1 (int_at ctx key_window) in
  let member_list escrows = Bytesutil.concat (List.map (fun e -> e.es_request) escrows) in
  let info_of ctx batch_id =
    Option.to_result ~none:"missing batch info" (Option.bind (Vm.sload ctx (bkey_info batch_id)) unpack_info)
  in
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
     settled-search receipt leaves, with each member's escrow preimage.
     Escrows stay locked; each member's slot merely flips its status
     byte to "batched" (a reset-priced word), which is what amortizes
     Table-II settlement gas by the batch size. Verification is deferred
     to [dispute]. *)
  let commit_batch ctx args =
    match args with
    | [ batch_id; root; members_blob ] ->
      let* () = Vm.require ctx (batch_id <> "") "commitBatch: empty batch id" in
      let* () = Vm.require ctx (Vm.sload ctx (bkey_status batch_id) = None) "duplicate batch id" in
      let* () =
        Vm.require ctx (deposit_of ctx ctx.Vm.sender > 0) "commitBatch: deposit required"
      in
      let* members =
        Option.to_result ~none:"commitBatch: malformed request list" (decode_escrows members_blob)
      in
      let* () = Vm.require ctx (members <> []) "commitBatch: empty batch" in
      let rec mark total = function
        | [] -> Ok total
        | e :: rest ->
          let* slot =
            match Vm.sload ctx (key_request e.es_request) with
            | Some s when slot_status s = Some st_pending -> Ok s
            | Some _ | None -> Error "commitBatch: request not pending"
          in
          let* () =
            Vm.require ctx (escrow_matches ctx slot e ~st:st_pending) "commitBatch: escrow mismatch"
          in
          Vm.sstore ctx (key_request e.es_request) (with_status slot st_batched);
          mark (total + e.es_amount) rest
      in
      let* total = mark 0 members in
      (* Snapshot H(Ac) at commit time: later Inserts move [key_ac], and
         a dispute must re-verify against the value the claims settled
         under, not whatever is current when the dispute lands. *)
      let* ac = Option.to_result ~none:"missing ac" (Vm.sload ctx key_ac) in
      Vm.sstore ctx (bkey_root batch_id) root;
      Vm.sstore ctx (bkey_members batch_id) (sha ctx (member_list members));
      Vm.sstore ctx (bkey_ac batch_id) ac;
      Vm.sstore ctx (bkey_info batch_id)
        (pack_info ~count:(List.length members) ~height:ctx.Vm.height ~total);
      Vm.sstore ctx (bkey_cloud batch_id) ctx.Vm.sender;
      Vm.sstore ctx (bkey_status batch_id) "committed";
      Vm.emit ctx (Bytesutil.concat [ "BatchCommitted"; batch_id; root ]);
      Ok [ "committed" ]
    | _ -> Error "commitBatch: expected [batch_id; root; members]"
  in
  (* dispute: anyone re-runs Algorithm 5 for ONE leaf, on-chain, against
     the batch's committed Ac. The disputer supplies the leaf bytes, a
     Merkle inclusion proof, the claims blob the cloud served (its hash
     is committed in the leaf, so nothing can be substituted), the
     members' escrow preimages (checked against the member-list hash and
     each member's slot) and the batch's Ac (checked against its hash).
     A leaf that fails verification slashes the cloud's whole deposit to
     the disputer and refunds every escrow in the batch to its user. *)
  let dispute ctx args =
    match args with
    | [ batch_id; index_s; leaf_bytes; proof_bytes; claims_blob; batch_witness; members_blob;
        ac_bytes ] ->
      let* () =
        Vm.require ctx
          (Vm.sload ctx (bkey_status batch_id) = Some "committed")
          "dispute: batch not committed"
      in
      let* count, committed_h, _total = info_of ctx batch_id in
      let* () =
        Vm.require ctx
          (ctx.Vm.height < committed_h + window_of ctx)
          "dispute: window closed"
      in
      let* root = Option.to_result ~none:"missing root" (Vm.sload ctx (bkey_root batch_id)) in
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
        Option.to_result ~none:"dispute: malformed members" (decode_escrows members_blob)
      in
      let* stored_members =
        Option.to_result ~none:"missing members" (Vm.sload ctx (bkey_members batch_id))
      in
      let* () =
        Vm.require ctx
          (Bytesutil.const_equal (sha ctx (member_list members)) stored_members)
          "dispute: member list mismatch"
      in
      let* mine =
        Option.to_result ~none:"dispute: leaf not in batch"
          (List.find_opt (fun e -> String.equal e.es_request leaf.rl_request) members)
      in
      let* () =
        Vm.require ctx
          (Bytesutil.const_equal (sha ctx claims_blob) leaf.rl_claim_hash)
          "dispute: claims do not match committed hash"
      in
      let* claims = Option.to_result ~none:"malformed claims" (decode_claims claims_blob) in
      let bw = if batch_witness = "" then None else Some (Bigint.of_bytes_be batch_witness) in
      let* () =
        Vm.require ctx
          (Bytesutil.const_equal
             (sha ctx (witness_digest_input ~claims ~batch_witness:bw))
             leaf.rl_witness_digest)
          "dispute: witnesses do not match committed digest"
      in
      (* The claims must answer the escrowed token set of the leaf's
         request — same binding as the eager settlement path. *)
      let* () =
        Vm.require ctx
          (Bytesutil.const_equal
             (sha ctx (Bytesutil.concat (List.map (fun c -> c.token_bytes) claims)))
             mine.es_digest)
          "dispute: token set mismatch"
      in
      (* Every member's preimage against its slot: the refunds below go
         to these users, in these amounts. *)
      let rec slots acc = function
        | [] -> Ok (List.rev acc)
        | e :: rest ->
          let* slot =
            Option.to_result ~none:"dispute: escrow mismatch" (Vm.sload ctx (key_request e.es_request))
          in
          let* () =
            Vm.require ctx (escrow_matches ctx slot e ~st:st_batched) "dispute: escrow mismatch"
          in
          slots ((e, slot) :: acc) rest
      in
      let* member_slots = slots [] members in
      let* () = check_ac ctx ~key:(bkey_ac batch_id) ~reason:"dispute: ac mismatch" ac_bytes in
      let ac = Bigint.of_bytes_be ac_bytes in
      (* The walk, not a hint: a disputer who picked a later prime of
         the interval would fail an honest leaf. *)
      let ok =
        verify ~charge:(Gasmeter.charge ctx.Vm.meter) params ~ac ~batch_witness:bw
          (List.map (fun c -> (c, Walk)) claims)
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
          | (e, slot) :: rest ->
            let* () = Vm.send ctx ~to_:e.es_user e.es_amount in
            Vm.sstore ctx (key_request e.es_request) (with_status slot st_refunded);
            refund rest
        in
        let* () = refund member_slots in
        Vm.sstore ctx (bkey_status batch_id) "slashed";
        Vm.emit ctx (Bytesutil.concat [ "BatchSlashed"; batch_id; leaf.rl_request ]);
        Ok [ "slashed" ]
      end
    | _ ->
      Error "dispute: expected [batch_id; index; leaf; proof; claims; batch_witness; members; ac]"
  in
  (* finalize: after the dispute cutoff an undisputed batch settles
     wholesale — the escrow total recorded at commit pays out to the
     committing cloud in one transfer. No member slot is read or
     written: a slot leaves [batched] only through a dispute of its
     batch, which slashes the batch, and a final batch cannot be
     disputed, so [batched] under a [final] batch means paid. *)
  let finalize ctx args =
    match args with
    | [ batch_id ] ->
      let* () =
        Vm.require ctx
          (Vm.sload ctx (bkey_status batch_id) = Some "committed")
          "finalize: batch not committed"
      in
      let* _count, committed_h, total = info_of ctx batch_id in
      let* () =
        Vm.require ctx
          (ctx.Vm.height >= committed_h + window_of ctx)
          "finalize: dispute window still open"
      in
      let* cloud = Option.to_result ~none:"missing cloud" (Vm.sload ctx (bkey_cloud batch_id)) in
      let* () = Vm.send ctx ~to_:cloud total in
      Vm.sstore ctx (bkey_status batch_id) "final";
      Vm.emit ctx (Bytesutil.concat [ "BatchFinalized"; batch_id; string_of_int total ]);
      Ok [ "finalized"; string_of_int total ]
    | _ -> Error "finalize: expected [batch_id]"
  in
  { Vm.cd_name = "slicer-verifier";
    (* The modulus is an immutable: it is deployed with the code (and
       paid for per byte of it) rather than stored. *)
    cd_code = pseudo_code ^ Bigint.to_bytes_be modulus;
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

let restore ledger ~contract:addr ~modulus =
  (* Recovery: put the contract definition back at its snapshotted
     address without executing anything. The constructor closure never
     runs — the restored storage already holds its effects — so the
     [initial_ac] baked into it is irrelevant; the live H(Ac) is the
     [key_ac] storage cell. The code, modulus included, is rebuilt. *)
  let def = contract ~modulus ~initial_ac:Bigint.one ~shard:(0, 1) ~dispute_window:1 in
  Vm.install_contract (Ledger.state ledger) addr def

let deploy ?(shard = (0, 1)) ?(dispute_window = 4) ledger ~owner ~modulus ~initial_ac =
  let def = contract ~modulus ~initial_ac ~shard ~dispute_window in
  let txn = Vm.make_deploy (Ledger.state ledger) ~sender:owner def [] in
  let receipt = observe_txn ledger ~label:"deploy" (Ledger.submit_and_seal ledger txn) in
  (txn.Vm.tx_to, receipt)

let update_ac ledger ~owner ~contract ac =
  let txn =
    Vm.make_call (Ledger.state ledger) ~sender:owner ~to_:contract "updateAc"
      [ Bigint.to_bytes_be ac ]
  in
  observe_txn ledger ~label:"updateAc" (Ledger.submit_and_seal ledger txn)

let request_search ledger ~user ~contract ~request_id ~tokens ~payment =
  let txn =
    Vm.make_call (Ledger.state ledger) ~sender:user ~to_:contract ~value:payment "requestSearch"
      [ request_id; Bytesutil.concat tokens ]
  in
  observe_txn ledger ~label:"requestSearch" (Ledger.submit_and_seal ledger txn)

let submit_result ledger ~cloud ~contract ~request_id ~user ~amount ~ac ~hints claims =
  let txn =
    Vm.make_call (Ledger.state ledger) ~sender:cloud ~to_:contract "submitResult"
      [ request_id; user; string_of_int amount; Bigint.to_bytes_be ac; encode_claims claims;
        encode_hints hints ]
  in
  observe_settlement (observe_txn ledger ~label:"submitResult" (Ledger.submit_and_seal ledger txn))

let submit_result_batched ledger ~cloud ~contract ~request_id ~user ~amount ~ac ~hints claims
    ~witness =
  let txn =
    Vm.make_call (Ledger.state ledger) ~sender:cloud ~to_:contract "submitResultBatched"
      [ request_id; user; string_of_int amount; Bigint.to_bytes_be ac; encode_claims claims;
        Bigint.to_bytes_be witness; encode_hints hints ]
  in
  observe_settlement
    (observe_txn ledger ~label:"submitResultBatched" (Ledger.submit_and_seal ledger txn))

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

let request_status ledger ~contract ~request_id =
  Option.bind
    (Option.bind (storage_get ledger ~contract (key_request request_id)) slot_status)
    status_name

let stored_ac_digest ledger ~contract = storage_get ledger ~contract key_ac

let stored_shard ledger ~contract =
  match
    ( Option.bind (storage_get ledger ~contract key_shard_id) int_of_string_opt,
      Option.bind (storage_get ledger ~contract key_shard_count) int_of_string_opt )
  with
  | Some i, Some n -> Some (i, n)
  | _ -> None

(* Tokens travel to the cloud through the event log: the escrow
   transaction's receipt carries them in its SearchRequested event. *)
let requested_tokens (receipt : Vm.receipt) ~request_id =
  List.find_map
    (fun ev ->
      match Bytesutil.split ev with
      | Some [ "SearchRequested"; id; blob ] when String.equal id request_id -> Bytesutil.split blob
      | Some _ | None -> None)
    receipt.Vm.r_events

(* --- batched-settlement client helpers --------------------------------- *)

let post_deposit ledger ~cloud ~contract ~amount =
  let txn =
    Vm.make_call (Ledger.state ledger) ~sender:cloud ~to_:contract ~value:amount "deposit" []
  in
  observe_txn ledger ~label:"deposit" (Ledger.submit_and_seal ledger txn)

let commit_batch ledger ~cloud ~contract ~batch_id ~root ~members =
  let txn =
    Vm.make_call (Ledger.state ledger) ~sender:cloud ~to_:contract "commitBatch"
      [ batch_id; root; encode_escrows members ]
  in
  observe_txn ledger ~label:"commitBatch" (Ledger.submit_and_seal ledger txn)

let dispute_leaf ledger ~disputer ~contract ~batch_id ~index ~leaf ~proof ~claims_blob
    ~batch_witness ~members ~ac =
  let bw = match batch_witness with None -> "" | Some w -> Bigint.to_bytes_be w in
  let txn =
    Vm.make_call (Ledger.state ledger) ~sender:disputer ~to_:contract "dispute"
      [ batch_id; string_of_int index; leaf; Merkle.proof_to_bytes proof; claims_blob; bw;
        encode_escrows members; Bigint.to_bytes_be ac ]
  in
  observe_txn ledger ~label:"dispute" (Ledger.submit_and_seal ledger txn)

let finalize_batch ledger ~cloud ~contract ~batch_id =
  let txn = Vm.make_call (Ledger.state ledger) ~sender:cloud ~to_:contract "finalize" [ batch_id ] in
  observe_txn ledger ~label:"finalize" (Ledger.submit_and_seal ledger txn)

let batch_status ledger ~contract ~batch_id = storage_get ledger ~contract (bkey_status batch_id)

let stored_deposit ledger ~contract ~who =
  match storage_get ledger ~contract (key_deposit who) with
  | Some s -> Option.value ~default:0 (int_of_string_opt s)
  | None -> 0

let stored_dispute_window ledger ~contract =
  Option.bind (storage_get ledger ~contract key_window) int_of_string_opt
