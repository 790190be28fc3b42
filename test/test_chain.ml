(* Tests for the blockchain substrate: gas schedule, metered VM with
   revert semantics, blocks, PoA ledger validation, and the Slicer
   verification contract with its escrow fairness flow. *)

let alice = Vm.address_of_name "alice"
let bob = Vm.address_of_name "bob"
let carol = Vm.address_of_name "carol"

let fresh_ledger () =
  let ledger = Ledger.create ~validators:[ "v1"; "v2"; "v3" ] in
  Vm.fund (Ledger.state ledger) alice 10_000_000;
  Vm.fund (Ledger.state ledger) bob 10_000_000;
  ledger

(* --- gas schedule ------------------------------------------------------- *)

let test_gas_calldata () =
  Alcotest.(check int) "zeros" 8 (Gas.calldata "\000\000");
  Alcotest.(check int) "nonzero" 32 (Gas.calldata "ab");
  Alcotest.(check int) "mixed" 20 (Gas.calldata "a\000")

let test_gas_hash () =
  Alcotest.(check int) "empty" 30 (Gas.hash 0);
  Alcotest.(check int) "one word" 36 (Gas.hash 32);
  Alcotest.(check int) "33 bytes = 2 words" 42 (Gas.hash 33)

let test_gas_modexp () =
  (* EIP-2565 floor. *)
  Alcotest.(check int) "floor" 200 (Gas.modexp ~base_len:1 ~exp:Bigint.two ~mod_len:1);
  (* 1024-bit modulus, 272-bit exponent: 16^2 words^2 * 271 / 3. *)
  Alcotest.(check int) "rsa verify"
    (256 * 271 / 3)
    (Gas.modexp ~base_len:128 ~exp:(Bigint.shift_left Bigint.one 271) ~mod_len:128)

let test_gasmeter () =
  let m = Gasmeter.create ~limit:1000 () in
  Gasmeter.charge m ~label:"a" 300;
  Gasmeter.charge m ~label:"b" 200;
  Gasmeter.charge m ~label:"a" 100;
  Alcotest.(check int) "used" 600 (Gasmeter.used m);
  Alcotest.(check (list (pair string int))) "breakdown" [ ("a", 400); ("b", 200) ] (Gasmeter.breakdown m);
  Alcotest.(check bool) "out of gas raises" true
    (try
       Gasmeter.charge m ~label:"c" 500;
       false
     with Gasmeter.Out_of_gas _ -> true)

(* --- VM ------------------------------------------------------------------ *)

let test_transfer () =
  let ledger = fresh_ledger () in
  let state = Ledger.state ledger in
  let r = Ledger.submit_and_seal ledger (Vm.make_transfer state ~sender:alice ~to_:carol ~value:1234) in
  Alcotest.(check bool) "ok" true (Result.is_ok r.Vm.r_output);
  Alcotest.(check int) "carol credited" 1234 (Vm.balance state carol);
  Alcotest.(check int) "gas = base" Gas.tx_base r.Vm.r_gas_used

let test_transfer_insufficient () =
  let ledger = fresh_ledger () in
  let state = Ledger.state ledger in
  let r = Ledger.submit_and_seal ledger (Vm.make_transfer state ~sender:carol ~to_:alice ~value:5) in
  Alcotest.(check bool) "fails" true (Result.is_error r.Vm.r_output);
  Alcotest.(check int) "alice unchanged" 10_000_000 (Vm.balance state alice)

let counter_contract =
  { Vm.cd_name = "counter";
    cd_code = String.make 100 'c';
    cd_methods =
      [ ( "inc",
          fun ctx _args ->
            let v = match Vm.sload ctx "n" with Some s -> int_of_string s | None -> 0 in
            Vm.sstore ctx "n" (string_of_int (v + 1));
            Ok [ string_of_int (v + 1) ] );
        ( "fail_after_write",
          fun ctx _args ->
            Vm.sstore ctx "n" "999";
            Error "deliberate revert" ) ]
  }

let test_contract_call_and_revert () =
  let ledger = fresh_ledger () in
  let state = Ledger.state ledger in
  let deploy_txn = Vm.make_deploy state ~sender:alice counter_contract [] in
  let dr = Ledger.submit_and_seal ledger deploy_txn in
  Alcotest.(check bool) "deploy ok" true (Result.is_ok dr.Vm.r_output);
  let addr = deploy_txn.Vm.tx_to in
  let r1 = Ledger.submit_and_seal ledger (Vm.make_call state ~sender:alice ~to_:addr "inc" []) in
  (match r1.Vm.r_output with
   | Ok [ "1" ] -> ()
   | _ -> Alcotest.fail "first inc should return 1");
  let r2 = Ledger.submit_and_seal ledger (Vm.make_call state ~sender:bob ~to_:addr "inc" []) in
  (match r2.Vm.r_output with
   | Ok [ "2" ] -> ()
   | _ -> Alcotest.fail "second inc should return 2");
  (* A reverting call must roll the write back. *)
  let r3 = Ledger.submit_and_seal ledger (Vm.make_call state ~sender:bob ~to_:addr "fail_after_write" []) in
  Alcotest.(check bool) "reverted" true (Result.is_error r3.Vm.r_output);
  let r4 = Ledger.submit_and_seal ledger (Vm.make_call state ~sender:alice ~to_:addr "inc" []) in
  (match r4.Vm.r_output with
   | Ok [ "3" ] -> ()
   | _ -> Alcotest.fail "revert must not persist the 999 write")

let test_revert_restores_value () =
  let ledger = fresh_ledger () in
  let state = Ledger.state ledger in
  let deploy_txn = Vm.make_deploy state ~sender:alice counter_contract [] in
  ignore (Ledger.submit_and_seal ledger deploy_txn);
  let before = Vm.balance state bob in
  let r =
    Ledger.submit_and_seal ledger
      (Vm.make_call state ~sender:bob ~to_:deploy_txn.Vm.tx_to ~value:5000 "fail_after_write" [])
  in
  Alcotest.(check bool) "reverted" true (Result.is_error r.Vm.r_output);
  Alcotest.(check int) "value returned" before (Vm.balance state bob)

let test_bad_nonce_rejected () =
  let ledger = fresh_ledger () in
  let state = Ledger.state ledger in
  let txn = Vm.make_transfer state ~sender:alice ~to_:bob ~value:1 in
  ignore (Ledger.submit_and_seal ledger txn);
  (* Replaying the same transaction must fail on the nonce. *)
  let r = Ledger.submit_and_seal ledger txn in
  (match r.Vm.r_output with
   | Error "bad nonce" -> ()
   | _ -> Alcotest.fail "replay must be rejected")

let test_unknown_method () =
  let ledger = fresh_ledger () in
  let state = Ledger.state ledger in
  let deploy_txn = Vm.make_deploy state ~sender:alice counter_contract [] in
  ignore (Ledger.submit_and_seal ledger deploy_txn);
  let r = Ledger.submit_and_seal ledger (Vm.make_call state ~sender:alice ~to_:deploy_txn.Vm.tx_to "nope" []) in
  Alcotest.(check bool) "unknown method fails" true (Result.is_error r.Vm.r_output)

(* --- blocks and ledger ---------------------------------------------------- *)

let test_chain_grows_and_validates () =
  let ledger = fresh_ledger () in
  let state = Ledger.state ledger in
  for i = 1 to 5 do
    ignore (Ledger.submit_and_seal ledger (Vm.make_transfer state ~sender:alice ~to_:bob ~value:i))
  done;
  Alcotest.(check int) "height" 5 (Ledger.height ledger);
  (match Ledger.validate ledger with
   | Ok () -> ()
   | Error e -> Alcotest.failf "chain invalid: %s" e)

let test_tamper_detected () =
  let ledger = fresh_ledger () in
  let state = Ledger.state ledger in
  ignore (Ledger.submit_and_seal ledger (Vm.make_transfer state ~sender:alice ~to_:bob ~value:42));
  Alcotest.(check bool) "tampering detected" true (Ledger.tamper_check_demo ledger ~block_index:1)

let test_tx_inclusion_proof () =
  let ledger = fresh_ledger () in
  let state = Ledger.state ledger in
  let txn = Vm.make_transfer state ~sender:alice ~to_:bob ~value:7 in
  Ledger.submit ledger txn;
  let block = Ledger.seal_block ledger in
  let proof = Block.prove_inclusion block 0 in
  Alcotest.(check bool) "inclusion verifies" true (Block.verify_inclusion block txn proof);
  let other = Vm.make_transfer state ~sender:alice ~to_:bob ~value:8 in
  Alcotest.(check bool) "other tx rejected" false (Block.verify_inclusion block other proof)

let test_receipt_lookup () =
  let ledger = fresh_ledger () in
  let state = Ledger.state ledger in
  let txn = Vm.make_transfer state ~sender:alice ~to_:bob ~value:9 in
  ignore (Ledger.submit_and_seal ledger txn);
  (match Ledger.receipt_of ledger (Vm.txn_hash txn) with
   | Some r -> Alcotest.(check bool) "found and ok" true (Result.is_ok r.Vm.r_output)
   | None -> Alcotest.fail "receipt missing")

(* --- Slicer contract ------------------------------------------------------- *)

let acc_params = Rsa_acc.setup ~rng:(Drbg.create ~seed:"chain-acc") ~bits:512 ()

let prime_of s = Prime_rep.to_prime s

(* Build a tiny honest scenario: one keyword with a result multiset, its
   prime in the accumulator. *)
let scenario () =
  let token = Bytesutil.concat [ "trapdoor"; "0"; "g1"; "g2" ] in
  let results = [ "enc-record-1"; "enc-record-2" ] in
  let h = Mset_hash.of_list results in
  let x = prime_of (Bytesutil.concat [ token; Mset_hash.to_bytes h ]) in
  let other = prime_of "some-other-keyword" in
  let xs = [ x; other ] in
  let ac = Rsa_acc.accumulate acc_params xs in
  let witness = Rsa_acc.mem_witness acc_params xs x in
  (token, results, witness, ac)

let deployed () =
  let ledger = fresh_ledger () in
  let token, results, witness, ac = scenario () in
  let contract, dr =
    Slicer_contract.deploy ledger ~owner:alice ~modulus:acc_params.Rsa_acc.modulus
      ~generator:acc_params.Rsa_acc.generator ~initial_ac:ac
  in
  (ledger, contract, dr, token, results, witness)

let test_deploy_and_read_ac () =
  let ledger, contract, dr, _, _, _ = deployed () in
  Alcotest.(check bool) "deploy ok" true (Result.is_ok dr.Vm.r_output);
  (match Slicer_contract.stored_ac ledger ~contract with
   | Some _ -> ()
   | None -> Alcotest.fail "Ac must be on chain")

let test_honest_cloud_gets_paid () =
  let ledger, contract, _, token, results, witness = deployed () in
  let state = Ledger.state ledger in
  let cloud_before = Vm.balance state bob in
  let rr =
    Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:"req-1"
      ~tokens:[ token ] ~payment:5000
  in
  Alcotest.(check bool) "request ok" true (Result.is_ok rr.Vm.r_output);
  (* Cloud retrieves tokens from the chain. *)
  (match Slicer_contract.stored_tokens ledger ~contract ~request_id:"req-1" with
   | Some [ t ] -> Alcotest.(check string) "token readable" token t
   | _ -> Alcotest.fail "tokens must be retrievable from events");
  let claims = [ { Slicer_contract.token_bytes = token; results; witness } ] in
  let sr = Slicer_contract.submit_result ledger ~cloud:bob ~contract ~request_id:"req-1" claims in
  (match sr.Vm.r_output with
   | Ok [ "paid" ] -> ()
   | Ok other -> Alcotest.failf "unexpected output [%s]" (String.concat ";" other)
   | Error e -> Alcotest.failf "submit failed: %s" e);
  Alcotest.(check int) "cloud paid" (cloud_before + 5000) (Vm.balance state bob);
  Alcotest.(check (option string)) "status" (Some "paid")
    (Slicer_contract.request_status ledger ~contract ~request_id:"req-1")

let test_tampered_results_refunded () =
  let ledger, contract, _, token, results, witness = deployed () in
  let state = Ledger.state ledger in
  let user_before = Vm.balance state alice in
  ignore
    (Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:"req-2"
       ~tokens:[ token ] ~payment:7000);
  (* Cloud drops a record from the result set. *)
  let claims =
    [ { Slicer_contract.token_bytes = token; results = List.tl results; witness } ]
  in
  let sr = Slicer_contract.submit_result ledger ~cloud:bob ~contract ~request_id:"req-2" claims in
  (match sr.Vm.r_output with
   | Ok [ "refunded" ] -> ()
   | _ -> Alcotest.fail "tampered result must refund");
  Alcotest.(check int) "user refunded" user_before (Vm.balance state alice);
  Alcotest.(check (option string)) "status" (Some "refunded")
    (Slicer_contract.request_status ledger ~contract ~request_id:"req-2")

let test_forged_witness_refunded () =
  let ledger, contract, _, token, results, witness = deployed () in
  ignore
    (Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:"req-3"
       ~tokens:[ token ] ~payment:100);
  let forged = Bigint.mod_mul witness Bigint.two acc_params.Rsa_acc.modulus in
  let claims = [ { Slicer_contract.token_bytes = token; results; witness = forged } ] in
  let sr = Slicer_contract.submit_result ledger ~cloud:bob ~contract ~request_id:"req-3" claims in
  (match sr.Vm.r_output with
   | Ok [ "refunded" ] -> ()
   | _ -> Alcotest.fail "forged witness must refund")

let test_wrong_token_set_rejected () =
  let ledger, contract, _, token, results, witness = deployed () in
  ignore
    (Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:"req-4"
       ~tokens:[ token ] ~payment:100);
  let claims = [ { Slicer_contract.token_bytes = token ^ "x"; results; witness } ] in
  let sr = Slicer_contract.submit_result ledger ~cloud:bob ~contract ~request_id:"req-4" claims in
  Alcotest.(check bool) "token mismatch is an error" true (Result.is_error sr.Vm.r_output);
  (* The escrow stays pending: the right cloud can still answer. *)
  Alcotest.(check (option string)) "still pending" (Some "pending")
    (Slicer_contract.request_status ledger ~contract ~request_id:"req-4")

let test_update_ac_only_owner () =
  let ledger, contract, _, _, _, _ = deployed () in
  let r = Slicer_contract.update_ac ledger ~owner:bob ~contract Bigint.one in
  Alcotest.(check bool) "non-owner rejected" true (Result.is_error r.Vm.r_output);
  let r2 = Slicer_contract.update_ac ledger ~owner:alice ~contract (Bigint.of_int 424242) in
  Alcotest.(check bool) "owner ok" true (Result.is_ok r2.Vm.r_output);
  (match Slicer_contract.stored_ac ledger ~contract with
   | Some ac -> Alcotest.(check string) "ac updated" "424242" (Bigint.to_string ac)
   | None -> Alcotest.fail "ac missing")

let test_claims_roundtrip () =
  let claims =
    [ { Slicer_contract.token_bytes = "tok-a"; results = [ "r1"; "r2" ]; witness = Bigint.of_int 99 };
      { Slicer_contract.token_bytes = "tok-b"; results = []; witness = Bigint.of_string "123456789012345678901234567890" } ]
  in
  match Slicer_contract.decode_claims (Slicer_contract.encode_claims claims) with
  | None -> Alcotest.fail "decode failed"
  | Some decoded ->
    Alcotest.(check int) "count" 2 (List.length decoded);
    List.iter2
      (fun a b ->
        Alcotest.(check string) "token" a.Slicer_contract.token_bytes b.Slicer_contract.token_bytes;
        Alcotest.(check (list string)) "results" a.Slicer_contract.results b.Slicer_contract.results;
        Alcotest.(check bool) "witness" true (Bigint.equal a.Slicer_contract.witness b.Slicer_contract.witness))
      claims decoded

let test_batched_contract_path () =
  let ledger, contract, _, token, results, witness = deployed () in
  (* Build the batch witness for the single claim: equal to the plain
     membership witness here. *)
  ignore
    (Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:"b-1"
       ~tokens:[ token ] ~payment:400);
  let claims = [ { Slicer_contract.token_bytes = token; results; witness = Bigint.one } ] in
  let sr =
    Slicer_contract.submit_result_batched ledger ~cloud:bob ~contract ~request_id:"b-1" claims
      ~witness
  in
  (match sr.Vm.r_output with
   | Ok [ "paid" ] -> ()
   | Ok o -> Alcotest.failf "unexpected [%s]" (String.concat ";" o)
   | Error e -> Alcotest.failf "batched submit failed: %s" e);
  (* A poisoned batch witness refunds. *)
  ignore
    (Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:"b-2"
       ~tokens:[ token ] ~payment:400);
  let bad = Bigint.mod_mul witness Bigint.two acc_params.Rsa_acc.modulus in
  let sr2 =
    Slicer_contract.submit_result_batched ledger ~cloud:bob ~contract ~request_id:"b-2" claims
      ~witness:bad
  in
  (match sr2.Vm.r_output with
   | Ok [ "refunded" ] -> ()
   | _ -> Alcotest.fail "bad batch witness must refund")

let test_out_of_gas_reverts () =
  let ledger = fresh_ledger () in
  let state = Ledger.state ledger in
  let hog =
    { Vm.cd_name = "gas-hog";
      cd_code = "hog";
      cd_methods =
        [ ( "burn",
            fun ctx _args ->
              Vm.sstore ctx "started" "yes";
              (* Greater than the 30M block limit. *)
              Gasmeter.charge ctx.Vm.meter ~label:"burn" 50_000_000;
              Ok [] );
          ( "read",
            fun ctx _args ->
              Ok [ Option.value ~default:"unset" (Vm.sload ctx "started") ] ) ] }
  in
  let deploy_txn = Vm.make_deploy state ~sender:alice hog [] in
  ignore (Ledger.submit_and_seal ledger deploy_txn);
  let r = Ledger.submit_and_seal ledger (Vm.make_call state ~sender:alice ~to_:deploy_txn.Vm.tx_to "burn" []) in
  (match r.Vm.r_output with
   | Error "out of gas" -> ()
   | _ -> Alcotest.fail "must run out of gas");
  (* The write before the gas exhaustion must have been rolled back. *)
  let r2 = Ledger.submit_and_seal ledger (Vm.make_call state ~sender:alice ~to_:deploy_txn.Vm.tx_to "read" []) in
  (match r2.Vm.r_output with
   | Ok [ "unset" ] -> ()
   | Ok o -> Alcotest.failf "storage not rolled back: [%s]" (String.concat ";" o)
   | Error e -> Alcotest.failf "read failed: %s" e)

let test_events_in_receipts () =
  let ledger, contract, _, token, _, _ = deployed () in
  let rr =
    Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:"ev-1"
      ~tokens:[ token ] ~payment:10
  in
  Alcotest.(check bool) "request emitted an event" true (rr.Vm.r_events <> []);
  (match rr.Vm.r_events with
   | ev :: _ ->
     (match Bytesutil.split ev with
      | Some ("SearchRequested" :: id :: _) -> Alcotest.(check string) "id" "ev-1" id
      | _ -> Alcotest.fail "malformed event")
   | [] -> ())

let test_forged_seal_detected () =
  let ledger = fresh_ledger () in
  let state = Ledger.state ledger in
  ignore (Ledger.submit_and_seal ledger (Vm.make_transfer state ~sender:alice ~to_:bob ~value:1));
  (* A validator outside the registry cannot produce acceptable seals:
     rebuild the head block with a wrong secret and check validation
     would reject it. We use tamper_check_demo's machinery indirectly by
     verifying the chain currently validates, then corrupting. *)
  (match Ledger.validate ledger with
   | Ok () -> ()
   | Error e -> Alcotest.failf "chain should validate: %s" e);
  Alcotest.(check bool) "tamper detected" true (Ledger.tamper_check_demo ledger ~block_index:1)

let gen_claims =
  let open QCheck2.Gen in
  let gen_claim =
    let* token_bytes = string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 1 40) in
    let* results = list_size (int_range 0 5) (string_size ~gen:(map Char.chr (int_range 0 255)) (return 16)) in
    let* w = int_range 1 1_000_000 in
    return { Slicer_contract.token_bytes; results; witness = Bigint.of_int w }
  in
  QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 6) gen_claim

let claims_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"claims wire roundtrip" ~count:150 gen_claims (fun claims ->
           match Slicer_contract.decode_claims (Slicer_contract.encode_claims claims) with
           | None -> false
           | Some back ->
             List.length back = List.length claims
             && List.for_all2
                  (fun a b ->
                    String.equal a.Slicer_contract.token_bytes b.Slicer_contract.token_bytes
                    && a.Slicer_contract.results = b.Slicer_contract.results
                    && Bigint.equal a.Slicer_contract.witness b.Slicer_contract.witness)
                  claims back));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"gas model monotonic" ~count:100
         QCheck2.Gen.(pair (int_range 1 2000) (int_range 1 2000))
         (fun (a, b) ->
           let lo = Stdlib.min a b and hi = Stdlib.max a b in
           Gas.h_prime ~input_len:lo <= Gas.h_prime ~input_len:hi
           && Gas.hash lo <= Gas.hash hi
           && Gas.modexp ~base_len:64 ~exp:(Bigint.shift_left Bigint.one lo) ~mod_len:64
              <= Gas.modexp ~base_len:64 ~exp:(Bigint.shift_left Bigint.one hi) ~mod_len:64)) ]

let test_decode_claims_malformed () =
  Alcotest.(check bool) "garbage" true (Slicer_contract.decode_claims "\x00\x00\x00\x09abc" = None);
  Alcotest.(check bool) "truncated inner" true
    (Slicer_contract.decode_claims (Bytesutil.concat [ "not-a-claim" ]) = None);
  Alcotest.(check bool) "empty is zero claims" true (Slicer_contract.decode_claims "" = Some [])

(* --- batched optimistic settlement -------------------------------------- *)

(* A batch of [requests] (two by default) against the standard
   scenario: every request escrowed, receipts committed under one
   Merkle root. Returns everything a lifecycle test needs to finalize
   or dispute it. *)
let committed_batch ?(deposit = 50_000) ?(payment = 400) ?(requests = [ "ba-1"; "ba-2" ]) () =
  let ledger, contract, _, token, results, witness = deployed () in
  let dr = Slicer_contract.post_deposit ledger ~cloud:bob ~contract ~amount:deposit in
  (match dr.Vm.r_output with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "deposit failed: %s" e);
  List.iter
    (fun id ->
      match
        (Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:id
           ~tokens:[ token ] ~payment)
          .Vm.r_output
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "escrow %s failed: %s" id e)
    requests;
  let claims = [ { Slicer_contract.token_bytes = token; results; witness } ] in
  let leaf_of id =
    Slicer_contract.encode_leaf
      { Slicer_contract.rl_client = "tester";
        rl_request = id;
        rl_claim_hash = Sha256.digest (Slicer_contract.encode_claims claims);
        rl_witness_digest = Slicer_contract.witness_digest ~claims ~batch_witness:None }
  in
  let leaves = List.map leaf_of requests in
  let tree = Merkle.build leaves in
  let cr =
    Slicer_contract.commit_batch ledger ~cloud:bob ~contract ~batch_id:"batch-0"
      ~root:(Merkle.root tree) ~requests
  in
  (match cr.Vm.r_output with
   | Ok [ "committed" ] -> ()
   | Ok o -> Alcotest.failf "unexpected commit output [%s]" (String.concat ";" o)
   | Error e -> Alcotest.failf "commit failed: %s" e);
  (ledger, contract, claims, leaves, tree)

(* Seal empty-ish blocks (plain transfers) until [n] more exist. *)
let advance_blocks ledger n =
  for _ = 1 to n do
    ignore
      (Ledger.submit_and_seal ledger
         (Vm.make_transfer (Ledger.state ledger) ~sender:alice ~to_:carol ~value:1))
  done

let test_batch_commit_and_finalize () =
  let ledger, contract, _, _, _ = committed_batch () in
  Alcotest.(check (option string)) "committed" (Some "committed")
    (Slicer_contract.batch_status ledger ~contract ~batch_id:"batch-0");
  (* Too early: the dispute window (4 blocks) still runs. *)
  let early = Slicer_contract.finalize_batch ledger ~cloud:bob ~contract ~batch_id:"batch-0" in
  Alcotest.(check bool) "early finalize reverts" true (Result.is_error early.Vm.r_output);
  advance_blocks ledger 4;
  let cloud_before = Vm.balance (Ledger.state ledger) bob in
  let fr = Slicer_contract.finalize_batch ledger ~cloud:bob ~contract ~batch_id:"batch-0" in
  (match fr.Vm.r_output with
   | Ok [ "finalized"; total ] -> Alcotest.(check string) "payout total" "800" total
   | Ok o -> Alcotest.failf "unexpected finalize output [%s]" (String.concat ";" o)
   | Error e -> Alcotest.failf "finalize failed: %s" e);
  Alcotest.(check int) "cloud paid both escrows" (cloud_before + 800)
    (Vm.balance (Ledger.state ledger) bob);
  Alcotest.(check (option string)) "final" (Some "final")
    (Slicer_contract.batch_status ledger ~contract ~batch_id:"batch-0");
  (* Wholesale settlement is once-only. *)
  let again = Slicer_contract.finalize_batch ledger ~cloud:bob ~contract ~batch_id:"batch-0" in
  Alcotest.(check bool) "double finalize reverts" true (Result.is_error again.Vm.r_output)

let test_batch_finalize_single_payout () =
  (* A member adds one escrow read and one status write to finalize;
     the payout is one transfer for the whole batch, whatever its size.
     Equal-width totals keep the event bytes equal too. *)
  let finalize_gas requests =
    let ledger, contract, _, _, _ = committed_batch ~payment:1000 ~requests () in
    advance_blocks ledger 4;
    let fr = Slicer_contract.finalize_batch ledger ~cloud:bob ~contract ~batch_id:"batch-0" in
    (match fr.Vm.r_output with
     | Ok [ "finalized"; total ] ->
       Alcotest.(check string) "payout total" (string_of_int (1000 * List.length requests)) total
     | Ok o -> Alcotest.failf "unexpected finalize output [%s]" (String.concat ";" o)
     | Error e -> Alcotest.failf "finalize failed: %s" e);
    fr.Vm.r_gas_used
  in
  let one = finalize_gas [ "ba-1" ] in
  let three = finalize_gas [ "ba-1"; "ba-2"; "ba-3" ] in
  Alcotest.(check int) "two more members: two sloads and two status writes, no transfer"
    (2 * (Gas.sload + Gas.sstore_reset))
    (three - one)

let test_batch_requires_deposit_and_escrow () =
  let ledger, contract, _, token, results, witness = deployed () in
  ignore (token, results, witness);
  (* No deposit: the commitment has nothing slashable behind it. *)
  let cr =
    Slicer_contract.commit_batch ledger ~cloud:bob ~contract ~batch_id:"nb" ~root:"r"
      ~requests:[ "nope" ]
  in
  Alcotest.(check bool) "commit without deposit reverts" true (Result.is_error cr.Vm.r_output);
  ignore (Slicer_contract.post_deposit ledger ~cloud:bob ~contract ~amount:1000);
  (* Member that was never escrowed. *)
  let cr2 =
    Slicer_contract.commit_batch ledger ~cloud:bob ~contract ~batch_id:"nb" ~root:"r"
      ~requests:[ "nope" ]
  in
  Alcotest.(check bool) "unescrowed member reverts" true (Result.is_error cr2.Vm.r_output)

let test_batch_double_commit_refused () =
  let ledger, contract, claims, _, tree = committed_batch () in
  ignore claims;
  (* Same id again... *)
  let cr =
    Slicer_contract.commit_batch ledger ~cloud:bob ~contract ~batch_id:"batch-0"
      ~root:(Merkle.root tree) ~requests:[ "ba-1" ]
  in
  Alcotest.(check bool) "batch id reuse reverts" true (Result.is_error cr.Vm.r_output);
  (* ...and the members are no longer "pending", so a second batch over
     them is refused too. *)
  let cr2 =
    Slicer_contract.commit_batch ledger ~cloud:bob ~contract ~batch_id:"batch-1"
      ~root:(Merkle.root tree) ~requests:[ "ba-1"; "ba-2" ]
  in
  Alcotest.(check bool) "already-batched member reverts" true (Result.is_error cr2.Vm.r_output)

let test_batch_dispute_good_leaf_rejected () =
  let ledger, contract, claims, leaves, tree = committed_batch () in
  let dr =
    Slicer_contract.dispute_leaf ledger ~disputer:alice ~contract ~batch_id:"batch-0" ~index:0
      ~leaf:(List.nth leaves 0) ~proof:(Merkle.prove tree 0)
      ~claims_blob:(Slicer_contract.encode_claims claims) ~batch_witness:None
  in
  (match dr.Vm.r_output with
   | Error e ->
     Alcotest.(check bool) "names the rejection" true
       (String.length e >= 16 && String.sub e 0 16 = "dispute rejected")
   | Ok o -> Alcotest.failf "good leaf must not slash (got [%s])" (String.concat ";" o));
  Alcotest.(check (option string)) "still committed" (Some "committed")
    (Slicer_contract.batch_status ledger ~contract ~batch_id:"batch-0")

let test_batch_dispute_bad_leaf_slashes () =
  let deposit = 50_000 in
  let ledger, contract, _, token, results, witness = deployed () in
  ignore (Slicer_contract.post_deposit ledger ~cloud:bob ~contract ~amount:deposit);
  let requests = [ "bd-1"; "bd-2" ] in
  List.iter
    (fun id ->
      ignore
        (Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:id
           ~tokens:[ token ] ~payment:400))
    requests;
  (* An honest leaf for bd-1, a tampered one for bd-2: right token set
     (so the escrow binding holds) but a forged witness — exactly what a
     cloud that skipped the work would commit. *)
  let good = [ { Slicer_contract.token_bytes = token; results; witness } ] in
  let bad =
    [ { Slicer_contract.token_bytes = token; results;
        witness = Bigint.mod_mul witness Bigint.two acc_params.Rsa_acc.modulus } ]
  in
  let leaf_of id claims =
    Slicer_contract.encode_leaf
      { Slicer_contract.rl_client = "tester";
        rl_request = id;
        rl_claim_hash = Sha256.digest (Slicer_contract.encode_claims claims);
        rl_witness_digest = Slicer_contract.witness_digest ~claims ~batch_witness:None }
  in
  let leaves = [ leaf_of "bd-1" good; leaf_of "bd-2" bad ] in
  let tree = Merkle.build leaves in
  let cr =
    Slicer_contract.commit_batch ledger ~cloud:bob ~contract ~batch_id:"bd"
      ~root:(Merkle.root tree) ~requests
  in
  (match cr.Vm.r_output with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "commit failed: %s" e);
  let state = Ledger.state ledger in
  let alice_before = Vm.balance state alice in
  let dr =
    Slicer_contract.dispute_leaf ledger ~disputer:alice ~contract ~batch_id:"bd" ~index:1
      ~leaf:(List.nth leaves 1) ~proof:(Merkle.prove tree 1)
      ~claims_blob:(Slicer_contract.encode_claims bad) ~batch_witness:None
  in
  (match dr.Vm.r_output with
   | Ok [ "slashed" ] -> ()
   | Ok o -> Alcotest.failf "unexpected dispute output [%s]" (String.concat ";" o)
   | Error e -> Alcotest.failf "dispute failed: %s" e);
  Alcotest.(check (option string)) "slashed" (Some "slashed")
    (Slicer_contract.batch_status ledger ~contract ~batch_id:"bd");
  (* Bounty (whole deposit) + both escrows refunded to alice, minus the
     double-move of the escrow she paid (she is also the user here). *)
  Alcotest.(check int) "bounty + refunds" (alice_before + deposit + 800)
    (Vm.balance state alice);
  Alcotest.(check int) "deposit gone" 0
    (Slicer_contract.stored_deposit ledger ~contract ~who:bob);
  (* The slashed batch can be neither finalized nor re-disputed. *)
  advance_blocks ledger 4;
  let fr = Slicer_contract.finalize_batch ledger ~cloud:bob ~contract ~batch_id:"bd" in
  Alcotest.(check bool) "slashed batch cannot finalize" true (Result.is_error fr.Vm.r_output)

let test_batch_dispute_window_closes () =
  let ledger, contract, claims, leaves, tree = committed_batch () in
  advance_blocks ledger 4;
  let dr =
    Slicer_contract.dispute_leaf ledger ~disputer:alice ~contract ~batch_id:"batch-0" ~index:0
      ~leaf:(List.nth leaves 0) ~proof:(Merkle.prove tree 0)
      ~claims_blob:(Slicer_contract.encode_claims claims) ~batch_witness:None
  in
  Alcotest.(check bool) "late dispute reverts" true (Result.is_error dr.Vm.r_output)

let test_batch_dispute_foreign_proof_rejected () =
  let ledger, contract, claims, leaves, tree = committed_batch () in
  (* An inclusion proof for leaf 1 cannot vouch for leaf 0 — the index
     binding inside Merkle.verify refuses the splice. *)
  let wrong = { (Merkle.prove tree 1) with Merkle.index = 0 } in
  let dr =
    Slicer_contract.dispute_leaf ledger ~disputer:alice ~contract ~batch_id:"batch-0" ~index:0
      ~leaf:(List.nth leaves 0) ~proof:wrong
      ~claims_blob:(Slicer_contract.encode_claims claims) ~batch_witness:None
  in
  Alcotest.(check bool) "spliced proof reverts" true (Result.is_error dr.Vm.r_output)

let test_leaf_codec_roundtrip () =
  let leaf =
    { Slicer_contract.rl_client = "c";
      rl_request = "r/1";
      rl_claim_hash = String.make 32 'h';
      rl_witness_digest = String.make 32 'w' }
  in
  (match Slicer_contract.decode_leaf (Slicer_contract.encode_leaf leaf) with
   | Some back -> Alcotest.(check bool) "roundtrip" true (back = leaf)
   | None -> Alcotest.fail "leaf failed to decode");
  Alcotest.(check bool) "garbage rejected" true (Slicer_contract.decode_leaf "junk" = None)

let test_gas_regime () =
  (* Table II sanity: deployment in the hundreds of thousands, insertion
     and verification in the tens of thousands. *)
  let ledger, contract, dr, token, results, witness = deployed () in
  Alcotest.(check bool) "deploy ~ 0.6-0.9M gas" true (dr.Vm.r_gas_used > 600_000 && dr.Vm.r_gas_used < 900_000);
  let ur = Slicer_contract.update_ac ledger ~owner:alice ~contract (Bigint.of_int 5) in
  Alcotest.(check bool)
    (Printf.sprintf "insert ~ 25-35k gas (got %d)" ur.Vm.r_gas_used)
    true
    (ur.Vm.r_gas_used > 25_000 && ur.Vm.r_gas_used < 35_000);
  ignore
    (Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:"g" ~tokens:[ token ]
       ~payment:10);
  let claims = [ { Slicer_contract.token_bytes = token; results; witness } ] in
  let sr = Slicer_contract.submit_result ledger ~cloud:bob ~contract ~request_id:"g" claims in
  Alcotest.(check bool)
    (Printf.sprintf "verify ~ 60-160k gas (got %d)" sr.Vm.r_gas_used)
    true
    (sr.Vm.r_gas_used > 60_000 && sr.Vm.r_gas_used < 160_000)

let () =
  Alcotest.run "chain"
    [ ( "gas",
        [ Alcotest.test_case "calldata" `Quick test_gas_calldata;
          Alcotest.test_case "hash" `Quick test_gas_hash;
          Alcotest.test_case "modexp" `Quick test_gas_modexp;
          Alcotest.test_case "meter" `Quick test_gasmeter ] );
      ( "vm",
        [ Alcotest.test_case "transfer" `Quick test_transfer;
          Alcotest.test_case "insufficient balance" `Quick test_transfer_insufficient;
          Alcotest.test_case "call and revert" `Quick test_contract_call_and_revert;
          Alcotest.test_case "revert restores value" `Quick test_revert_restores_value;
          Alcotest.test_case "bad nonce" `Quick test_bad_nonce_rejected;
          Alcotest.test_case "unknown method" `Quick test_unknown_method ] );
      ( "ledger",
        [ Alcotest.test_case "grows and validates" `Quick test_chain_grows_and_validates;
          Alcotest.test_case "tamper detected" `Quick test_tamper_detected;
          Alcotest.test_case "tx inclusion proof" `Quick test_tx_inclusion_proof;
          Alcotest.test_case "receipt lookup" `Quick test_receipt_lookup ] );
      ( "slicer_contract",
        [ Alcotest.test_case "deploy and read Ac" `Quick test_deploy_and_read_ac;
          Alcotest.test_case "honest cloud paid" `Quick test_honest_cloud_gets_paid;
          Alcotest.test_case "tampered results refunded" `Quick test_tampered_results_refunded;
          Alcotest.test_case "forged witness refunded" `Quick test_forged_witness_refunded;
          Alcotest.test_case "wrong token set rejected" `Quick test_wrong_token_set_rejected;
          Alcotest.test_case "updateAc only owner" `Quick test_update_ac_only_owner;
          Alcotest.test_case "claims roundtrip" `Quick test_claims_roundtrip;
          Alcotest.test_case "batched contract path" `Quick test_batched_contract_path;
          Alcotest.test_case "out of gas reverts" `Quick test_out_of_gas_reverts;
          Alcotest.test_case "events in receipts" `Quick test_events_in_receipts;
          Alcotest.test_case "forged seal detected" `Quick test_forged_seal_detected;
          Alcotest.test_case "malformed claims rejected" `Quick test_decode_claims_malformed;
          Alcotest.test_case "gas regime (Table II shape)" `Quick test_gas_regime ] );
      ( "settle_batch",
        [ Alcotest.test_case "commit and finalize" `Quick test_batch_commit_and_finalize;
          Alcotest.test_case "finalize pays once per batch" `Quick
            test_batch_finalize_single_payout;
          Alcotest.test_case "deposit and escrow required" `Quick
            test_batch_requires_deposit_and_escrow;
          Alcotest.test_case "double commit refused" `Quick test_batch_double_commit_refused;
          Alcotest.test_case "good-leaf dispute rejected" `Quick
            test_batch_dispute_good_leaf_rejected;
          Alcotest.test_case "bad-leaf dispute slashes" `Quick
            test_batch_dispute_bad_leaf_slashes;
          Alcotest.test_case "window closes" `Quick test_batch_dispute_window_closes;
          Alcotest.test_case "foreign proof rejected" `Quick
            test_batch_dispute_foreign_proof_rejected;
          Alcotest.test_case "leaf codec" `Quick test_leaf_codec_roundtrip ] );
      ("contract properties", claims_props) ]
