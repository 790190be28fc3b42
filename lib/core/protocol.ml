let log_src = Logs.Src.create "slicer.protocol" ~doc:"Slicer protocol orchestration"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  p_owner : Owner.t;
  p_user : User.t;
  p_station : Station.t;
  p_owner_addr : Vm.address;
  p_user_addr : Vm.address;
  p_rng : Drbg.t;
  p_payment : int;
  mutable p_request_counter : int;
}

type search_outcome = {
  so_ids : string list;
  so_verified : bool;
  so_token_count : int;
  so_result_bytes : int;
  so_vo_bytes : int;
  so_gas_used : int;
}

let setup ?(width = 16) ?(tdp_bits = 512) ?(acc_bits = 512) ?(payment = 1000) ~seed records =
  let rng = Drbg.create ~seed in
  let keys = Keys.generate ~tdp_bits ~rng () in
  let acc_params = Rsa_acc.setup ~rng ~bits:acc_bits () in
  let owner = Owner.create ~width ~rng ~acc_params ~keys () in
  let shipment = Owner.build owner records in
  let cloud = Cloud.create ~acc_params ~tdp_public:keys.Keys.tdp_public () in
  Cloud.install_shipment cloud shipment;
  let user = User.create ~keys:(Keys.for_user keys) ~width (Owner.export_trapdoor_state owner) in
  let ledger = Ledger.create ~validators:[ "validator-1"; "validator-2"; "validator-3" ] in
  let owner_addr = Vm.address_of_name (seed ^ ":owner") in
  let user_addr = Vm.address_of_name (seed ^ ":user") in
  let cloud_addr = Vm.address_of_name (seed ^ ":cloud") in
  Vm.fund (Ledger.state ledger) owner_addr 100_000_000;
  Vm.fund (Ledger.state ledger) user_addr 100_000_000;
  let contract, receipt =
    Slicer_contract.deploy ledger ~owner:owner_addr ~modulus:acc_params.Rsa_acc.modulus
      ~initial_ac:shipment.Owner.sh_ac
  in
  (match receipt.Vm.r_output with
   | Ok _ -> ()
   | Error e -> failwith ("Protocol.setup: contract deployment failed: " ^ e));
  Log.info (fun m ->
      m "setup: %d records, width %d, %d index entries, %d keywords, deploy gas %d"
        (List.length records) width
        (Cloud.index_entries cloud) (Owner.keyword_count owner) receipt.Vm.r_gas_used);
  { p_owner = owner;
    p_user = user;
    p_station = Station.create ~cloud ~ledger ~contract ~cloud_addr;
    p_owner_addr = owner_addr;
    p_user_addr = user_addr;
    p_rng = rng;
    p_payment = payment;
    p_request_counter = 0 }

let insert t records =
  let shipment = Owner.insert t.p_owner records in
  User.update_state t.p_user (Owner.export_trapdoor_state t.p_owner);
  match Station.install t.p_station ~owner:t.p_owner_addr shipment with
  | Ok receipt ->
    Log.info (fun m ->
        m "insert: %d records, %d new index entries, %d new primes, updateAc gas %d"
          (List.length records)
          (Owner.shipment_entry_count shipment)
          (List.length shipment.Owner.sh_groups)
          receipt.Vm.r_gas_used)
  | Error e -> failwith ("Protocol.insert: on-chain Ac update failed: " ^ e)

let fresh_request_id t =
  t.p_request_counter <- t.p_request_counter + 1;
  Printf.sprintf "req-%d" t.p_request_counter

let vo_bytes ~batch_witness claims =
  match batch_witness with
  | Some w -> String.length (Bigint.to_bytes_be w)
  | None ->
    List.fold_left
      (fun n (c : Slicer_contract.claim) ->
        n + String.length (Bigint.to_bytes_be c.Slicer_contract.witness))
      0 claims

let outcome user claims ~verified ~vo_bytes ~token_count ~receipt:(sr : Vm.receipt) =
  let results =
    List.concat_map (fun (c : Slicer_contract.claim) -> c.Slicer_contract.results) claims
  in
  { so_ids =
      List.filter_map
        (fun er ->
          match User.decrypt_results user [ er ] with
          | [ id ] -> Some id
          | _ | (exception Invalid_argument _) -> None)
        results;
    so_verified = verified;
    so_token_count = token_count;
    so_result_bytes = List.fold_left (fun n r -> n + String.length r) 0 results;
    so_vo_bytes = vo_bytes;
    so_gas_used = sr.Vm.r_gas_used }

(* Factor of [search] and [search_batched]: generate tokens, run the
   station's request/settle round trip, fold the settlement into an
   outcome. *)
let search_with t query ~batched =
  let tokens = User.gen_tokens ~rng:t.p_rng t.p_user query in
  let request_id = fresh_request_id t in
  Log.debug (fun m ->
      m "search %s: value %d cond %s, %d tokens posted" request_id query.Slicer_types.q_value
        (Format.asprintf "%a" Slicer_types.pp_condition query.Slicer_types.q_cond)
        (List.length tokens));
  match
    Station.settle t.p_station ~client:"protocol" ~user:t.p_user_addr ~request_id
      ~payment:t.p_payment ~token_blobs:(List.map Slicer_types.token_bytes tokens) ~batched
  with
  | Error e -> failwith ("Protocol.search: request failed: " ^ e)
  | Ok { Station.se_claims = claims; se_batch_witness; se_receipt; se_outcome = _ } ->
    outcome t.p_user claims
      ~verified:(match se_receipt.Vm.r_output with Ok [ "paid" ] -> true | Ok _ | Error _ -> false)
      ~vo_bytes:(vo_bytes ~batch_witness:se_batch_witness claims)
      ~token_count:(List.length tokens) ~receipt:se_receipt

let search t query = search_with t query ~batched:false
let search_batched t query = search_with t query ~batched:true

let search_between t ?(attr = "") ~lo ~hi () =
  let above = search t (Slicer_types.query ~attr lo Slicer_types.Lt) in
  let below = search t (Slicer_types.query ~attr hi Slicer_types.Gt) in
  let in_below = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace in_below id ()) below.so_ids;
  { so_ids = List.filter (Hashtbl.mem in_below) above.so_ids;
    so_verified = above.so_verified && below.so_verified;
    so_token_count = above.so_token_count + below.so_token_count;
    so_result_bytes = above.so_result_bytes + below.so_result_bytes;
    so_vo_bytes = above.so_vo_bytes + below.so_vo_bytes;
    so_gas_used = above.so_gas_used + below.so_gas_used }


let search_conj t queries =
  if queries = [] then invalid_arg "Protocol.search_conj: empty conjunction";
  let outcomes = List.map (search t) queries in
  let combine a b =
    let keep = Hashtbl.create 64 in
    List.iter (fun id -> Hashtbl.replace keep id ()) b.so_ids;
    { so_ids = List.filter (Hashtbl.mem keep) a.so_ids;
      so_verified = a.so_verified && b.so_verified;
      so_token_count = a.so_token_count + b.so_token_count;
      so_result_bytes = a.so_result_bytes + b.so_result_bytes;
      so_vo_bytes = a.so_vo_bytes + b.so_vo_bytes;
      so_gas_used = a.so_gas_used + b.so_gas_used }
  in
  (match outcomes with o :: rest -> List.fold_left combine o rest | [] -> assert false)

let search_offchain t query =
  let tokens = User.gen_tokens ~rng:t.p_rng t.p_user query in
  let claims, _ = Cloud.search (Station.cloud t.p_station) tokens in
  let ok =
    Verifier.verify_claims (Owner.acc_params t.p_owner) ~ac:(Owner.current_ac t.p_owner) claims
  in
  (claims, ok)

let set_cloud_behavior t m = Cloud.set_behavior (Station.cloud t.p_station) m

let owner t = t.p_owner
let cloud t = Station.cloud t.p_station
let user t = t.p_user
let ledger t = Station.ledger t.p_station
let station t = t.p_station
let payment t = t.p_payment
let contract_address t = Station.contract t.p_station
let owner_address t = t.p_owner_addr
let user_address t = t.p_user_addr
let cloud_address t = Station.cloud_addr t.p_station
let user_balance t = Vm.balance (Ledger.state (ledger t)) t.p_user_addr
let cloud_balance t = Vm.balance (Ledger.state (ledger t)) (cloud_address t)
let onchain_ac_digest t = Station.onchain_ac_digest t.p_station
let rng t = t.p_rng
