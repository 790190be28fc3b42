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

(* Storage is priced per 32-byte word: 0 and 32 bytes are one word, 33
   bytes two. *)
let test_storage_priced_per_word () =
  Alcotest.(check (list int)) "words" [ 1; 1; 1; 2; 2; 3 ]
    (List.map Gas.words [ 0; 1; 32; 33; 64; 65 ]);
  let state = Vm.create_state () in
  let self = Vm.address_of_name "word-priced" in
  let charged op =
    let meter = Gasmeter.create () in
    op { Vm.state; meter; sender = alice; self; value = 0; height = 0 };
    Gasmeter.used meter
  in
  let store key len c = charged (fun ctx -> Vm.sstore ctx key (String.make len c)) in
  let load key = charged (fun ctx -> ignore (Vm.sload ctx key)) in
  Alcotest.(check int) "fresh 0 bytes: one word" Gas.sstore_set (store "a" 0 'x');
  Alcotest.(check int) "fresh 32 bytes: one word" Gas.sstore_set (store "b" 32 'x');
  Alcotest.(check int) "fresh 33 bytes: two words" (2 * Gas.sstore_set) (store "c" 33 'x');
  Alcotest.(check int) "33 over 32: one reset, one fresh" (Gas.sstore_reset + Gas.sstore_set)
    (store "b" 33 'y');
  Alcotest.(check int) "32 over 33: one reset" Gas.sstore_reset (store "c" 32 'y');
  Alcotest.(check int) "0 over 0: one reset" Gas.sstore_reset (store "a" 0 'y');
  Alcotest.(check int) "read 0 bytes" Gas.sload (load "a");
  Alcotest.(check int) "read 32 bytes" Gas.sload (load "c");
  Alcotest.(check int) "read 33 bytes" (2 * Gas.sload) (load "b");
  Alcotest.(check int) "read unset" Gas.sload (load "missing")

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

(* A header records its receipts' gas: forging a receipt's gas, the
   header's [gas_used], its limit or its timestamp fails validation, and
   each rule names itself (it runs before the seal check). The forged
   block is the head, so no child's parent link sees its header. *)
let test_block_records_gas () =
  let ledger = fresh_ledger () in
  let state = Ledger.state ledger in
  Ledger.submit ledger (Vm.make_transfer state ~sender:alice ~to_:bob ~value:1);
  Ledger.submit ledger (Vm.make_transfer state ~sender:bob ~to_:carol ~value:2);
  let block = Ledger.seal_block ledger in
  let h = block.Block.header in
  Alcotest.(check int) "gas used is the receipts' sum" (2 * Gas.tx_base) h.Block.gas_used;
  Alcotest.(check int) "gas limit" Ledger.gas_limit h.Block.gas_limit;
  (match Ledger.validate ledger with
   | Ok () -> ()
   | Error e -> Alcotest.failf "chain invalid: %s" e);
  let forged what expected forge =
    Alcotest.(check (result unit string)) what (Error expected)
      (Ledger.validate_forged ledger ~block_index:1 forge)
  in
  let with_header f b = { b with Block.header = f b.Block.header } in
  forged "a receipt's gas altered" "gas used mismatch" (fun b ->
      match b.Block.receipts with
      | r :: rest -> { b with Block.receipts = { r with Vm.r_gas_used = r.Vm.r_gas_used - 1 } :: rest }
      | [] -> b);
  forged "header gas_used altered" "gas used mismatch"
    (with_header (fun h -> { h with Block.gas_used = h.Block.gas_used + 1 }));
  forged "gas_used over gas_limit" "gas used over the limit"
    (with_header (fun h -> { h with Block.gas_limit = h.Block.gas_used - 1 }));
  forged "timestamp not after the parent's" "timestamp not increasing"
    (with_header (fun h -> { h with Block.timestamp = 0 }));
  (* The forgeries were copies: the ledger still validates. *)
  Alcotest.(check (result unit string)) "ledger untouched" (Ok ()) (Ledger.validate ledger)

(* Each transaction is metered against what its block has left: two
   20M-gas calls cannot both fit in a 30M block. The second runs out at
   the block's limit, a third is refused before it starts, and the
   block's gas is exactly its limit. *)
let test_block_gas_limit () =
  let ledger = fresh_ledger () in
  let state = Ledger.state ledger in
  let hog =
    { Vm.cd_name = "gas-hog-20m";
      cd_code = "hog";
      cd_methods =
        [ ( "burn",
            fun ctx _args ->
              Gasmeter.charge ctx.Vm.meter ~label:"burn" 20_000_000;
              Ok [] ) ] }
  in
  let deploy = Vm.make_deploy state ~sender:alice hog [] in
  ignore (Ledger.submit_and_seal ledger deploy);
  let hog_addr = deploy.Vm.tx_to in
  Ledger.submit ledger (Vm.make_call state ~sender:alice ~to_:hog_addr "burn" []);
  Ledger.submit ledger (Vm.make_call state ~sender:bob ~to_:hog_addr "burn" []);
  Ledger.submit ledger (Vm.make_transfer state ~sender:carol ~to_:alice ~value:0);
  let block = Ledger.seal_block ledger in
  (match block.Block.receipts with
   | [ first; second; third ] ->
     Alcotest.(check bool) "first burns" true (Result.is_ok first.Vm.r_output);
     Alcotest.(check (result (list string) string)) "second runs out" (Error "out of gas")
       second.Vm.r_output;
     Alcotest.(check int) "second burns what was left" (Ledger.gas_limit - first.Vm.r_gas_used)
       second.Vm.r_gas_used;
     Alcotest.(check int) "third is refused" 0 third.Vm.r_gas_used;
     Alcotest.(check int) "its nonce is untouched" 0 (Vm.nonce state carol)
   | rs -> Alcotest.failf "%d receipts" (List.length rs));
  Alcotest.(check int) "the block is exactly full" Ledger.gas_limit
    block.Block.header.Block.gas_used;
  Alcotest.(check (result unit string)) "and valid" (Ok ()) (Ledger.validate ledger)

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

let scenario_token, scenario_ac =
  let token, _, _, ac = scenario () in
  (token, ac)

let deployed () =
  let ledger = fresh_ledger () in
  let token, results, witness, ac = scenario () in
  let contract, dr =
    Slicer_contract.deploy ledger ~owner:alice ~modulus:acc_params.Rsa_acc.modulus
      ~initial_ac:ac
  in
  (ledger, contract, dr, token, results, witness)

(* Each claim's prime hint, as an honest cloud sends it: the offset of
   its prime representative. *)
let hints_of claims =
  List.map
    (fun (c : Slicer_contract.claim) ->
      Prime_rep.offset
        (prime_of (Slicer_contract.claim_input ~token_bytes:c.Slicer_contract.token_bytes c.results)))
    claims

(* Settlement by bob, the cloud, of an escrow alice made: the escrow's
   user and amount, the deployed Ac and the claims' prime hints go
   along as calldata. *)
let submit ?(ac = scenario_ac) ledger ~contract ~request_id ~amount claims =
  Slicer_contract.submit_result ledger ~cloud:bob ~contract ~request_id ~user:alice ~amount ~ac
    ~hints:(hints_of claims) claims

(* The preimage of an escrow alice made for [token]. *)
let escrow_of ~payment ~token id =
  { Slicer_contract.es_request = id;
    es_user = alice;
    es_amount = payment;
    es_digest = Slicer_contract.tokens_digest [ token ] }

let test_deploy_and_read_ac () =
  let ledger, contract, dr, _, _, _ = deployed () in
  Alcotest.(check bool) "deploy ok" true (Result.is_ok dr.Vm.r_output);
  Alcotest.(check (option string)) "H(Ac) on chain" (Some (Slicer_contract.ac_digest scenario_ac))
    (Slicer_contract.stored_ac_digest ledger ~contract)

let test_honest_cloud_gets_paid () =
  let ledger, contract, _, token, results, witness = deployed () in
  let state = Ledger.state ledger in
  let cloud_before = Vm.balance state bob in
  let rr =
    Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:"req-1"
      ~tokens:[ token ] ~payment:5000
  in
  Alcotest.(check bool) "request ok" true (Result.is_ok rr.Vm.r_output);
  (* Cloud retrieves tokens from the escrow receipt's event. *)
  (match Slicer_contract.requested_tokens rr ~request_id:"req-1" with
   | Some [ t ] -> Alcotest.(check string) "token readable" token t
   | _ -> Alcotest.fail "tokens must be retrievable from events");
  Alcotest.(check (option (list string))) "another request id" None
    (Slicer_contract.requested_tokens rr ~request_id:"req-0");
  let several = [ "token-b"; token; "token-a" ] in
  let rr_several =
    Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:"req-1b"
      ~tokens:several ~payment:1000
  in
  Alcotest.(check (option (list string))) "tokens in request order" (Some several)
    (Slicer_contract.requested_tokens rr_several ~request_id:"req-1b");
  let claims = [ { Slicer_contract.token_bytes = token; results; witness } ] in
  let sr = submit ledger ~contract ~request_id:"req-1" ~amount:5000 claims in
  (match sr.Vm.r_output with
   | Ok [ "paid" ] -> ()
   | Ok other -> Alcotest.failf "unexpected output [%s]" (String.concat ";" other)
   | Error e -> Alcotest.failf "submit failed: %s" e);
  Alcotest.(check int) "cloud paid" (cloud_before + 5000) (Vm.balance state bob);
  Alcotest.(check (option string)) "status" (Some "paid")
    (Slicer_contract.request_status ledger ~contract ~request_id:"req-1");
  (* Receipts without a SearchRequested event carry no tokens, even when
     another event names the request. *)
  Alcotest.(check (option (list string))) "submitResult receipt" None
    (Slicer_contract.requested_tokens sr ~request_id:"req-1");
  let ur = Slicer_contract.update_ac ledger ~owner:alice ~contract (Bigint.of_int 5) in
  Alcotest.(check (option (list string))) "updateAc receipt" None
    (Slicer_contract.requested_tokens ur ~request_id:"req-1")

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
  let sr = submit ledger ~contract ~request_id:"req-2" ~amount:7000 claims in
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
  let sr = submit ledger ~contract ~request_id:"req-3" ~amount:100 claims in
  (match sr.Vm.r_output with
   | Ok [ "refunded" ] -> ()
   | _ -> Alcotest.fail "forged witness must refund")

let test_wrong_token_set_rejected () =
  let ledger, contract, _, token, results, witness = deployed () in
  ignore
    (Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:"req-4"
       ~tokens:[ token ] ~payment:100);
  let claims = [ { Slicer_contract.token_bytes = token ^ "x"; results; witness } ] in
  let sr = submit ledger ~contract ~request_id:"req-4" ~amount:100 claims in
  Alcotest.(check bool) "token mismatch is an error" true (Result.is_error sr.Vm.r_output);
  (* The escrow stays pending: the right cloud can still answer. *)
  Alcotest.(check (option string)) "still pending" (Some "pending")
    (Slicer_contract.request_status ledger ~contract ~request_id:"req-4")

(* A transaction whose intrinsic gas alone is over the limit is refused
   before it touches anything: no exception out of the ledger, no nonce
   bump, no gas, no balance moved, and the escrow it would have settled
   stays pending. *)
let test_intrinsic_over_limit_refused () =
  let ledger, contract, _, token, _, witness = deployed () in
  let state = Ledger.state ledger in
  ignore
    (Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:"big"
       ~tokens:[ token ] ~payment:900);
  let balances () = List.map (fun (a, b, _) -> (a, b)) (Vm.accounts state) in
  let before = balances () and nonce_before = Vm.nonce state bob in
  (* ~2 MB of results: 16 gas a byte is over the 30M limit. *)
  let claims =
    [ { Slicer_contract.token_bytes = token; results = [ String.make 2_000_000 'r' ]; witness } ]
  in
  let sr = submit ledger ~contract ~request_id:"big" ~amount:900 claims in
  Alcotest.(check bool) "refused" true (Result.is_error sr.Vm.r_output);
  Alcotest.(check int) "no gas" 0 sr.Vm.r_gas_used;
  Alcotest.(check int) "nonce unchanged" nonce_before (Vm.nonce state bob);
  Alcotest.(check (list (pair string int))) "balances unchanged" before (balances ());
  Alcotest.(check (option string)) "escrow still pending" (Some "pending")
    (Slicer_contract.request_status ledger ~contract ~request_id:"big");
  (match Ledger.validate ledger with
   | Ok () -> ()
   | Error e -> Alcotest.failf "chain invalid: %s" e)

(* requestSearch hashes the tokens blob, and pays for it: two escrows
   whose blobs differ by 90 bytes differ in gas by exactly those bytes'
   calldata, their log bytes and the hash's extra words. *)
let test_request_search_charges_its_hashes () =
  let ledger, contract, _, _, _, _ = deployed () in
  let escrow_gas id token =
    let rr =
      Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:id ~tokens:[ token ]
        ~payment:500
    in
    Alcotest.(check bool) (id ^ " escrowed") true (Result.is_ok rr.Vm.r_output);
    rr.Vm.r_gas_used
  in
  let short = String.make 10 'a' and long = String.make 100 'a' in
  let blob t = String.length (Bytesutil.concat [ t ]) in
  Alcotest.(check int) "calldata + log + hash words"
    (Gas.calldata (String.make 90 'a')
     + (Gas.log_per_byte * 90)
     + (Gas.hash (blob long) - Gas.hash (blob short)))
    (escrow_gas "hash-2" long - escrow_gas "hash-1" short)

let test_update_ac_only_owner () =
  let ledger, contract, _, _, _, _ = deployed () in
  let r = Slicer_contract.update_ac ledger ~owner:bob ~contract Bigint.one in
  Alcotest.(check bool) "non-owner rejected" true (Result.is_error r.Vm.r_output);
  let r2 = Slicer_contract.update_ac ledger ~owner:alice ~contract (Bigint.of_int 424242) in
  Alcotest.(check bool) "owner ok" true (Result.is_ok r2.Vm.r_output);
  Alcotest.(check (option string)) "H(Ac) updated"
    (Some (Slicer_contract.ac_digest (Bigint.of_int 424242)))
    (Slicer_contract.stored_ac_digest ledger ~contract)

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
    Slicer_contract.submit_result_batched ledger ~cloud:bob ~contract ~request_id:"b-1" ~user:alice
      ~amount:400 ~ac:scenario_ac ~hints:(hints_of claims) claims ~witness
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
    Slicer_contract.submit_result_batched ledger ~cloud:bob ~contract ~request_id:"b-2" ~user:alice
      ~amount:400 ~ac:scenario_ac ~hints:(hints_of claims) claims ~witness:bad
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
  let members = List.map (escrow_of ~payment ~token) requests in
  let cr =
    Slicer_contract.commit_batch ledger ~cloud:bob ~contract ~batch_id:"batch-0"
      ~root:(Merkle.root tree) ~members
  in
  (match cr.Vm.r_output with
   | Ok [ "committed" ] -> ()
   | Ok o -> Alcotest.failf "unexpected commit output [%s]" (String.concat ";" o)
   | Error e -> Alcotest.failf "commit failed: %s" e);
  (ledger, contract, claims, leaves, tree, members)

let finalize ledger ~contract ?(batch_id = "batch-0") () =
  Slicer_contract.finalize_batch ledger ~cloud:bob ~contract ~batch_id

(* A member of a final batch is paid: its slot stays [batched], its
   batch reads [final], and no settlement path can touch it again. *)
let check_member_paid ledger ~contract ~batch_id (e : Slicer_contract.escrow) ~token ~results
    ~witness =
  let id = e.Slicer_contract.es_request in
  Alcotest.(check (option string)) (id ^ " slot stays batched") (Some "batched")
    (Slicer_contract.request_status ledger ~contract ~request_id:id);
  Alcotest.(check (option string)) (id ^ "'s batch is final") (Some "final")
    (Slicer_contract.batch_status ledger ~contract ~batch_id);
  let claims = [ { Slicer_contract.token_bytes = token; results; witness } ] in
  let reverts what (r : Vm.receipt) =
    Alcotest.(check bool) (Printf.sprintf "%s on %s reverts" what id) true
      (Result.is_error r.Vm.r_output)
  in
  reverts "submitResult" (submit ledger ~contract ~request_id:id ~amount:e.Slicer_contract.es_amount claims);
  reverts "commitBatch"
    (Slicer_contract.commit_batch ledger ~cloud:bob ~contract ~batch_id:(batch_id ^ "-again")
       ~root:"r" ~members:[ e ]);
  let leaf =
    Slicer_contract.encode_leaf
      { Slicer_contract.rl_client = "tester"; rl_request = id;
        rl_claim_hash = Sha256.digest (Slicer_contract.encode_claims claims);
        rl_witness_digest = Slicer_contract.witness_digest ~claims ~batch_witness:None }
  in
  reverts "dispute"
    (Slicer_contract.dispute_leaf ledger ~disputer:carol ~contract ~batch_id ~index:0 ~leaf
       ~proof:(Merkle.prove (Merkle.build [ leaf ]) 0)
       ~claims_blob:(Slicer_contract.encode_claims claims) ~batch_witness:None ~members:[ e ]
       ~ac:scenario_ac)

(* Seal empty-ish blocks (plain transfers) until [n] more exist. *)
let advance_blocks ledger n =
  for _ = 1 to n do
    ignore
      (Ledger.submit_and_seal ledger
         (Vm.make_transfer (Ledger.state ledger) ~sender:alice ~to_:carol ~value:1))
  done

let test_batch_commit_and_finalize () =
  let ledger, contract, claims, _, _, members = committed_batch () in
  Alcotest.(check (option string)) "committed" (Some "committed")
    (Slicer_contract.batch_status ledger ~contract ~batch_id:"batch-0");
  Alcotest.(check (option string)) "member batched" (Some "batched")
    (Slicer_contract.request_status ledger ~contract ~request_id:"ba-1");
  (* Too early: the dispute window (4 blocks) still runs. *)
  let early = finalize ledger ~contract () in
  Alcotest.(check bool) "early finalize reverts" true (Result.is_error early.Vm.r_output);
  advance_blocks ledger 4;
  let cloud_before = Vm.balance (Ledger.state ledger) bob in
  let fr = finalize ledger ~contract () in
  (match fr.Vm.r_output with
   | Ok [ "finalized"; total ] -> Alcotest.(check string) "payout total" "800" total
   | Ok o -> Alcotest.failf "unexpected finalize output [%s]" (String.concat ";" o)
   | Error e -> Alcotest.failf "finalize failed: %s" e);
  Alcotest.(check int) "cloud paid both escrows" (cloud_before + 800)
    (Vm.balance (Ledger.state ledger) bob);
  Alcotest.(check (option string)) "final" (Some "final")
    (Slicer_contract.batch_status ledger ~contract ~batch_id:"batch-0");
  (match claims with
   | [ { Slicer_contract.token_bytes = token; results; witness } ] ->
     check_member_paid ledger ~contract ~batch_id:"batch-0" (List.nth members 1) ~token ~results
       ~witness
   | _ -> Alcotest.fail "one claim expected");
  (* Wholesale settlement is once-only. *)
  let again = finalize ledger ~contract () in
  Alcotest.(check bool) "double finalize reverts" true (Result.is_error again.Vm.r_output)

let test_batch_finalize_single_payout () =
  (* finalize reads and writes no member slot and takes no member list:
     the payout is one transfer of the total recorded at commit,
     whatever the batch's size. Equal-width totals keep the event bytes
     equal. *)
  let finalize_gas requests =
    let ledger, contract, _, _, _, _ = committed_batch ~payment:1000 ~requests () in
    advance_blocks ledger 4;
    let fr = finalize ledger ~contract () in
    (match fr.Vm.r_output with
     | Ok [ "finalized"; total ] ->
       Alcotest.(check string) "payout total" (string_of_int (1000 * List.length requests)) total
     | Ok o -> Alcotest.failf "unexpected finalize output [%s]" (String.concat ";" o)
     | Error e -> Alcotest.failf "finalize failed: %s" e);
    fr.Vm.r_gas_used
  in
  let one = finalize_gas [ "ba-1" ] in
  let three = finalize_gas [ "ba-1"; "ba-2"; "ba-3" ] in
  Alcotest.(check int) "two more members cost nothing" 0 (three - one)

let test_batch_requires_deposit_and_escrow () =
  let ledger, contract, _, token, results, witness = deployed () in
  ignore (token, results, witness);
  (* No deposit: the commitment has nothing slashable behind it. *)
  let nope = [ escrow_of ~payment:400 ~token "nope" ] in
  let cr =
    Slicer_contract.commit_batch ledger ~cloud:bob ~contract ~batch_id:"nb" ~root:"r"
      ~members:nope
  in
  Alcotest.(check bool) "commit without deposit reverts" true (Result.is_error cr.Vm.r_output);
  ignore (Slicer_contract.post_deposit ledger ~cloud:bob ~contract ~amount:1000);
  (* Member that was never escrowed. *)
  let cr2 =
    Slicer_contract.commit_batch ledger ~cloud:bob ~contract ~batch_id:"nb" ~root:"r"
      ~members:nope
  in
  Alcotest.(check bool) "unescrowed member reverts" true (Result.is_error cr2.Vm.r_output)

let test_batch_double_commit_refused () =
  let ledger, contract, claims, _, tree, members = committed_batch () in
  ignore claims;
  (* Same id again... *)
  let cr =
    Slicer_contract.commit_batch ledger ~cloud:bob ~contract ~batch_id:"batch-0"
      ~root:(Merkle.root tree) ~members:[ List.hd members ]
  in
  Alcotest.(check bool) "batch id reuse reverts" true (Result.is_error cr.Vm.r_output);
  (* ...and the members are no longer "pending", so a second batch over
     them is refused too. *)
  let cr2 =
    Slicer_contract.commit_batch ledger ~cloud:bob ~contract ~batch_id:"batch-1"
      ~root:(Merkle.root tree) ~members
  in
  Alcotest.(check bool) "already-batched member reverts" true (Result.is_error cr2.Vm.r_output)

let test_batch_dispute_good_leaf_rejected () =
  let ledger, contract, claims, leaves, tree, members = committed_batch () in
  let dr =
    Slicer_contract.dispute_leaf ledger ~disputer:alice ~contract ~batch_id:"batch-0" ~index:0
      ~leaf:(List.nth leaves 0) ~proof:(Merkle.prove tree 0)
      ~claims_blob:(Slicer_contract.encode_claims claims) ~batch_witness:None ~members
      ~ac:scenario_ac
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
  let members = List.map (escrow_of ~payment:400 ~token) requests in
  let cr =
    Slicer_contract.commit_batch ledger ~cloud:bob ~contract ~batch_id:"bd"
      ~root:(Merkle.root tree) ~members
  in
  (match cr.Vm.r_output with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "commit failed: %s" e);
  let state = Ledger.state ledger in
  let alice_before = Vm.balance state alice in
  let dr =
    Slicer_contract.dispute_leaf ledger ~disputer:alice ~contract ~batch_id:"bd" ~index:1
      ~leaf:(List.nth leaves 1) ~proof:(Merkle.prove tree 1)
      ~claims_blob:(Slicer_contract.encode_claims bad) ~batch_witness:None ~members
      ~ac:scenario_ac
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
  Alcotest.(check (option string)) "member refunded" (Some "refunded")
    (Slicer_contract.request_status ledger ~contract ~request_id:"bd-1");
  (* The slashed batch can be neither finalized nor re-disputed. *)
  advance_blocks ledger 4;
  let fr = finalize ledger ~contract ~batch_id:"bd" () in
  Alcotest.(check bool) "slashed batch cannot finalize" true (Result.is_error fr.Vm.r_output)

let test_batch_dispute_window_closes () =
  let ledger, contract, claims, leaves, tree, members = committed_batch () in
  advance_blocks ledger 4;
  let dr =
    Slicer_contract.dispute_leaf ledger ~disputer:alice ~contract ~batch_id:"batch-0" ~index:0
      ~leaf:(List.nth leaves 0) ~proof:(Merkle.prove tree 0)
      ~claims_blob:(Slicer_contract.encode_claims claims) ~batch_witness:None ~members
      ~ac:scenario_ac
  in
  Alcotest.(check bool) "late dispute reverts" true (Result.is_error dr.Vm.r_output)

let test_batch_dispute_foreign_proof_rejected () =
  let ledger, contract, claims, leaves, tree, members = committed_batch () in
  (* An inclusion proof for leaf 1 cannot vouch for leaf 0 — the index
     binding inside Merkle.verify refuses the splice. *)
  let wrong = { (Merkle.prove tree 1) with Merkle.index = 0 } in
  let dr =
    Slicer_contract.dispute_leaf ledger ~disputer:alice ~contract ~batch_id:"batch-0" ~index:0
      ~leaf:(List.nth leaves 0) ~proof:wrong
      ~claims_blob:(Slicer_contract.encode_claims claims) ~batch_witness:None ~members
      ~ac:scenario_ac
  in
  Alcotest.(check bool) "spliced proof reverts" true (Result.is_error dr.Vm.r_output)

(* Every cell the contract writes over a whole life cycle — deploy,
   updateAc, an eager settlement, a deposit, two commits, a dispute and
   a finalize — is at most one 32-byte word. *)
let test_every_cell_one_word () =
  let ledger, contract, _, token, results, witness = deployed () in
  let ok what (r : Vm.receipt) =
    match r.Vm.r_output with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  ok "updateAc" (Slicer_contract.update_ac ledger ~owner:alice ~contract scenario_ac);
  let good = [ { Slicer_contract.token_bytes = token; results; witness } ] in
  let bad =
    [ { Slicer_contract.token_bytes = token; results;
        witness = Bigint.mod_mul witness Bigint.two acc_params.Rsa_acc.modulus } ]
  in
  List.iter
    (fun id ->
      ok id
        (Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:id
           ~tokens:[ token ] ~payment:300))
    [ "lc-eager"; "lc-a"; "lc-b" ];
  ok "submitResult" (submit ledger ~contract ~request_id:"lc-eager" ~amount:300 good);
  ok "deposit" (Slicer_contract.post_deposit ledger ~cloud:bob ~contract ~amount:5_000);
  let commit batch_id id claims =
    let leaf =
      Slicer_contract.encode_leaf
        { Slicer_contract.rl_client = "lc"; rl_request = id;
          rl_claim_hash = Sha256.digest (Slicer_contract.encode_claims claims);
          rl_witness_digest = Slicer_contract.witness_digest ~claims ~batch_witness:None }
    in
    let tree = Merkle.build [ leaf ] in
    let members = [ escrow_of ~payment:300 ~token id ] in
    ok batch_id
      (Slicer_contract.commit_batch ledger ~cloud:bob ~contract ~batch_id ~root:(Merkle.root tree)
         ~members);
    (leaf, tree, members)
  in
  let _, _, members_a = commit "lc-batch-a" "lc-a" good in
  let leaf_b, tree_b, members_b = commit "lc-batch-b" "lc-b" bad in
  ok "dispute"
    (Slicer_contract.dispute_leaf ledger ~disputer:carol ~contract ~batch_id:"lc-batch-b" ~index:0
       ~leaf:leaf_b ~proof:(Merkle.prove tree_b 0)
       ~claims_blob:(Slicer_contract.encode_claims bad) ~batch_witness:None ~members:members_b
       ~ac:scenario_ac);
  advance_blocks ledger 4;
  ok "finalize" (finalize ledger ~contract ~batch_id:"lc-batch-a" ());
  List.iter
    (fun (id, status) ->
      Alcotest.(check (option string)) id (Some status)
        (Slicer_contract.request_status ledger ~contract ~request_id:id))
    [ ("lc-eager", "paid"); ("lc-b", "refunded") ];
  check_member_paid ledger ~contract ~batch_id:"lc-batch-a" (List.hd members_a) ~token ~results
    ~witness;
  let cells = Vm.storage_entries (Ledger.state ledger) contract in
  Alcotest.(check bool) "cells written" true (List.length cells > 10);
  List.iter
    (fun (key, value) ->
      if String.length value > Gas.word_bytes then
        Alcotest.failf "cell %S holds %d bytes" key (String.length value))
    cells

(* --- forged preimages never pay ------------------------------------------ *)

(* One forgery: a method, and the preimage field a caller swaps for
   another value. *)
type forgery =
  | F_user of string
  | F_amount of int
  | F_tokens of string
  | F_ac of int
  | F_members of [ `Drop | `Extra | `Swap ]
  | F_batch of string

type forged_call = Submit | Submit_batched | Commit | Finalize | Dispute

let forge_escrow f (e : Slicer_contract.escrow) =
  match f with
  | F_user u -> { e with Slicer_contract.es_user = u }
  | F_amount a -> { e with Slicer_contract.es_amount = a }
  | F_tokens t -> { e with Slicer_contract.es_digest = Slicer_contract.tokens_digest [ t ] }
  | F_ac _ | F_members _ | F_batch _ -> e

let forge_members f members =
  match (f, members) with
  | F_members `Drop, _ :: rest -> rest
  | F_members `Extra, m :: _ -> members @ [ { m with Slicer_contract.es_request = "fz-extra" } ]
  | F_members `Swap, a :: b :: rest -> b :: a :: rest
  | (F_members _ | F_batch _), _ -> members
  | (F_user _ | F_amount _ | F_tokens _ | F_ac _), m :: rest -> forge_escrow f m :: rest
  | _, [] -> []

let forge_ac f = match f with F_ac k -> Bigint.add scenario_ac (Bigint.of_int k) | _ -> scenario_ac

(* Runs [call] forged by [f] over a fresh contract in the state the call
   needs, checks it reverts with the slots, batch cells and balances
   untouched, then checks the honest call goes through. *)
let forged_call_reverts (call, f) =
  let ledger, contract, _, token, results, witness = deployed () in
  let state = Ledger.state ledger in
  (* The disputer holds an account before the forged call, so the
     account list compares like for like. *)
  Vm.fund state carol 1;
  let payment = 700 in
  let must what (r : Vm.receipt) =
    match r.Vm.r_output with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  let good = [ { Slicer_contract.token_bytes = token; results; witness } ] in
  let bad =
    [ { Slicer_contract.token_bytes = token; results;
        witness = Bigint.mod_mul witness Bigint.two acc_params.Rsa_acc.modulus } ]
  in
  let ids = [ "fz-1"; "fz-2" ] in
  List.iter
    (fun id ->
      must id
        (Slicer_contract.request_search ledger ~user:alice ~contract ~request_id:id
           ~tokens:[ token ] ~payment))
    ids;
  let members = List.map (escrow_of ~payment ~token) ids in
  (* The claims a forged token digest stands for: the same answer to
     another token. *)
  let claims_for f claims =
    match f with
    | F_tokens t -> List.map (fun c -> { c with Slicer_contract.token_bytes = t }) claims
    | _ -> claims
  in
  let leaves =
    List.map2
      (fun id claims ->
        Slicer_contract.encode_leaf
          { Slicer_contract.rl_client = "fz"; rl_request = id;
            rl_claim_hash = Sha256.digest (Slicer_contract.encode_claims claims);
            rl_witness_digest = Slicer_contract.witness_digest ~claims ~batch_witness:None })
      ids [ good; bad ]
  in
  let tree = Merkle.build leaves in
  let commit members =
    Slicer_contract.commit_batch ledger ~cloud:bob ~contract ~batch_id:"fz"
      ~root:(Merkle.root tree) ~members
  in
  if call <> Submit && call <> Submit_batched then
    must "deposit" (Slicer_contract.post_deposit ledger ~cloud:bob ~contract ~amount:9_000);
  if call = Finalize || call = Dispute then must "commit" (commit members);
  if call = Finalize then advance_blocks ledger 4;
  let run f =
    let e = forge_escrow f (List.hd members) in
    match call with
    | Submit ->
      Slicer_contract.submit_result ledger ~cloud:bob ~contract ~request_id:"fz-1"
        ~user:e.Slicer_contract.es_user ~amount:e.Slicer_contract.es_amount ~ac:(forge_ac f)
        ~hints:(hints_of good) (claims_for f good)
    | Submit_batched ->
      Slicer_contract.submit_result_batched ledger ~cloud:bob ~contract ~request_id:"fz-1"
        ~user:e.Slicer_contract.es_user ~amount:e.Slicer_contract.es_amount ~ac:(forge_ac f)
        ~hints:(hints_of good) (claims_for f good) ~witness
    | Commit -> commit (forge_members f members)
    | Finalize ->
      (* finalize takes the batch id alone: a forger can only name
         another batch. *)
      finalize ledger ~contract ~batch_id:(match f with F_batch b -> b | _ -> "fz") ()
    | Dispute ->
      Slicer_contract.dispute_leaf ledger ~disputer:carol ~contract ~batch_id:"fz" ~index:1
        ~leaf:(List.nth leaves 1) ~proof:(Merkle.prove tree 1)
        ~claims_blob:(Slicer_contract.encode_claims bad) ~batch_witness:None
        ~members:(forge_members f members) ~ac:(forge_ac f)
  in
  let balances () = List.map (fun (a, b, _) -> (a, b)) (Vm.accounts state) in
  let cells () = Vm.storage_entries state contract in
  let balances0 = balances () and cells0 = cells () in
  let r = run f in
  Result.is_error r.Vm.r_output
  && balances () = balances0
  && cells () = cells0
  &&
  (* The honest call goes through: the forgery is what was refused. *)
  (must "honest call" (run (F_ac 0));
   cells () <> cells0)

let gen_forgery =
  let open QCheck2.Gen in
  let* call = oneofl [ Submit; Submit_batched; Commit; Finalize; Dispute ] in
  let* f =
    match call with
    | Submit | Submit_batched ->
      oneof
        [ map (fun u -> F_user u) (string_size ~gen:char (return 20));
          map (fun a -> F_amount a) (int_range 1 1_000_000);
          map (fun t -> F_tokens t) (string_size ~gen:char (int_range 1 40));
          map (fun k -> F_ac k) (int_range 1 1_000_000) ]
    | Commit ->
      oneof
        [ map (fun u -> F_user u) (string_size ~gen:char (return 20));
          map (fun a -> F_amount a) (int_range 1 1_000_000);
          map (fun t -> F_tokens t) (string_size ~gen:char (int_range 1 40)) ]
    | Finalize -> map (fun b -> F_batch b) (string_size ~gen:char (int_range 0 8))
    | Dispute ->
      oneof
        [ map (fun u -> F_user u) (string_size ~gen:char (return 20));
          map (fun a -> F_amount a) (int_range 1 1_000_000);
          map (fun t -> F_tokens t) (string_size ~gen:char (int_range 1 40));
          map (fun k -> F_ac k) (int_range 1 1_000_000);
          map (fun m -> F_members m) (oneofl [ `Drop; `Extra; `Swap ]) ]
  in
  return (call, f)

let print_forgery (call, f) =
  Printf.sprintf "%s with %s"
    (match call with
     | Submit -> "submitResult"
     | Submit_batched -> "submitResultBatched"
     | Commit -> "commitBatch"
     | Finalize -> "finalize"
     | Dispute -> "dispute")
    (match f with
     | F_user u -> "user " ^ Bytesutil.to_hex u
     | F_amount a -> "amount " ^ string_of_int a
     | F_tokens t -> "tokens " ^ Bytesutil.to_hex t
     | F_ac k -> "Ac + " ^ string_of_int k
     | F_members `Drop -> "a member dropped"
     | F_members `Extra -> "an extra member"
     | F_members `Swap -> "two members swapped"
     | F_batch b -> "batch id " ^ Bytesutil.to_hex b)

let forgery_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"forged preimages never pay" ~count:120 ~print:print_forgery
         gen_forgery (fun (call, f) ->
           (* A "forgery" equal to the truth is no forgery. *)
           QCheck2.assume
             (match f with
              | F_user u -> u <> alice
              | F_amount a -> a <> 700
              | F_tokens t -> t <> scenario_token
              | F_batch b -> b <> "fz"
              | F_ac _ | F_members _ -> true);
           forged_call_reverts (call, f))) ]

(* --- prime hints ------------------------------------------------------------ *)

(* A Protocol-built system: the owner's index and Ac, the cloud's
   claims, witnesses and hints, and the deployed contract. The cloud's
   address is funded so it can post a deposit. *)
let hint_system seed =
  let rng = Drbg.create ~seed:(seed ^ "-db") in
  let s = Protocol.setup ~width:8 ~seed (Gen.uniform_records ~rng ~width:8 40) in
  Vm.fund (Ledger.state (Protocol.ledger s)) (Protocol.cloud_address s) 1_000_000;
  s

let hint_requests = ref 0

(* Escrows [tokens] under a fresh request id, as the system's user. *)
let escrow_tokens s tokens =
  incr hint_requests;
  let id = Printf.sprintf "hint-%d" !hint_requests in
  let rr =
    Slicer_contract.request_search (Protocol.ledger s) ~user:(Protocol.user_address s)
      ~contract:(Protocol.contract_address s) ~request_id:id
      ~tokens:(List.map Slicer_types.token_bytes tokens) ~payment:(Protocol.payment s)
  in
  (match rr.Vm.r_output with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "escrow %s: %s" id e);
  id

let settle_hinted s ~id ~hints claims =
  Slicer_contract.submit_result (Protocol.ledger s) ~cloud:(Protocol.cloud_address s)
    ~contract:(Protocol.contract_address s) ~request_id:id ~user:(Protocol.user_address s)
    ~amount:(Protocol.payment s) ~ac:(Cloud.current_ac (Protocol.cloud s)) ~hints claims

(* The offset of the first prime after [x] on its walk, if the walk's
   interval holds one. *)
let next_prime_offset x =
  let rec go k =
    let j = Prime_rep.offset x + k in
    if j >= 1 lsl Prime_rep.counter_bits then None
    else if Primality.baillie_psw (Bigint.add_int x k) then Some j
    else go (k + 2)
  in
  go 2

(* The offset, from [x]'s interval base, of the first prime past the
   interval: at least 2^16, so inside the next digest's interval. *)
let prime_past_interval x =
  let base = Bigint.add_int x (-Prime_rep.offset x) in
  let rec go j = if Primality.baillie_psw (Bigint.add_int base j) then j else go (j + 2) in
  go ((1 lsl Prime_rep.counter_bits) + 1)

let hints_system = lazy (hint_system "prime-hints")

(* One query's claims, settled by [submitResult] with the cloud's hints
   and with one claim's hint replaced: the canonical offset pays; a
   composite (canonical - 2), the next prime's offset, an even offset
   and 0 each refund the user and leave the cloud unpaid; a hints blob
   of the wrong length reverts with every slot and balance unchanged.
   And [Prime_rep.of_offset] passes the later prime (the witness is
   what refuses it) but refuses a prime past the interval. *)
let hint_case (value, cond, pick) =
  let s = Lazy.force hints_system in
  let state = Ledger.state (Protocol.ledger s) in
  let tokens = User.gen_tokens ~rng:(Protocol.rng s) (Protocol.user s) (Slicer_types.query value cond) in
  QCheck2.assume (tokens <> []);
  let claims, hints = Cloud.search (Protocol.cloud s) tokens in
  let i = pick mod List.length claims in
  let c = List.nth claims i and j = List.nth hints i in
  let input = Slicer_contract.claim_input ~token_bytes:c.Slicer_contract.token_bytes c.results in
  let x = Prime_rep.to_prime input in
  let user = Protocol.user_address s and cloud = Protocol.cloud_address s in
  let payment = Protocol.payment s in
  let settle hints =
    let id = escrow_tokens s tokens in
    let before = (Vm.balance state user, Vm.balance state cloud) in
    let r = settle_hinted s ~id ~hints claims in
    (r.Vm.r_output, before, (Vm.balance state user, Vm.balance state cloud))
  in
  let pays hints =
    match settle hints with
    | Ok [ "paid" ], (u, c), (u', c') -> u' = u && c' = c + payment
    | _ -> false
  in
  let refunds hints =
    match settle hints with
    | Ok [ "refunded" ], (u, c), (u', c') -> u' = u + payment && c' = c
    | _ -> false
  in
  let with_hint j' = List.mapi (fun k h -> if k = i then j' else h) hints in
  let wrong =
    (if j >= 3 then [ j - 2 ] else [])
    @ Option.to_list (next_prime_offset x)
    @ [ j - 1; 0 ]
  in
  let malformed hints =
    let id = escrow_tokens s tokens in
    let cells () = Vm.storage_entries state (Protocol.contract_address s) in
    let balances () = List.map (fun (a, b, _) -> (a, b)) (Vm.accounts state) in
    let cells0 = cells () and balances0 = balances () in
    let r = settle_hinted s ~id ~hints claims in
    r.Vm.r_output = Error "malformed hints" && cells () = cells0 && balances () = balances0
  in
  Prime_rep.offset x = j
  && pays hints
  && List.for_all (fun j' -> refunds (with_hint j')) wrong
  && malformed (hints @ [ j ])
  && malformed (List.tl hints)
  && (match next_prime_offset x with
      | Some j' -> Prime_rep.of_offset input j' = Some (Bigint.add_int x (j' - j))
      | None -> true)
  && Prime_rep.of_offset input (prime_past_interval x) = None

let hint_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"hints are sound" ~count:40
         ~print:(fun (v, c, k) ->
           Printf.sprintf "value %d %s, claim %d" v
             (Format.asprintf "%a" Slicer_types.pp_condition c) k)
         QCheck2.Gen.(
           triple (int_range 0 255) (oneofl Slicer_types.[ Lt; Eq; Gt ]) (int_range 0 1000))
         hint_case) ]

(* One claim set settled both ways in one process, each first with the
   verify memo cold and then warm: [submitResult] charges each claim
   [Gas.h_prime_hinted] and [dispute] each claim [Gas.h_prime], and a
   warm memo replays exactly what the cold run charged. *)
let test_hprime_gas_by_path () =
  let s = hint_system "hint-gas" in
  let ledger = Protocol.ledger s and contract = Protocol.contract_address s in
  let state = Ledger.state ledger in
  let tokens =
    User.gen_tokens ~rng:(Protocol.rng s) (Protocol.user s) (Slicer_types.query 128 Slicer_types.Lt)
  in
  let claims, hints = Cloud.search (Protocol.cloud s) tokens in
  let n = List.length claims in
  Alcotest.(check bool) "several claims" true (n > 1);
  let priced gas =
    List.fold_left
      (fun acc (c : Slicer_contract.claim) ->
        acc
        + gas ~input_len:(String.length (Slicer_contract.claim_input ~token_bytes:c.token_bytes c.results)))
      0 claims
  in
  let h_prime_gas () = List.assoc_opt "h-prime" (Vm.last_breakdown state) in
  let hits () = Obs.counter_value "slicer_acc_verify_cache_hits_total" in
  List.iter
    (fun (memo, memo_hits) ->
      let id = escrow_tokens s tokens in
      let h0 = hits () in
      let r = settle_hinted s ~id ~hints claims in
      Alcotest.(check (result (list string) string)) ("submitResult pays, memo " ^ memo) (Ok [ "paid" ])
        r.Vm.r_output;
      Alcotest.(check (option int)) ("submitResult: n hinted primes, memo " ^ memo)
        (Some (priced Gas.h_prime_hinted)) (h_prime_gas ());
      Alcotest.(check int) ("submitResult memo hits, " ^ memo) memo_hits (hits () - h0))
    [ ("cold", 0); ("warm", n) ];
  ignore (Slicer_contract.post_deposit ledger ~cloud:(Protocol.cloud_address s) ~contract ~amount:9_000);
  let ac = Cloud.current_ac (Protocol.cloud s) in
  List.iter
    (fun (memo, memo_hits) ->
      let id = escrow_tokens s tokens in
      let leaf =
        Slicer_contract.encode_leaf
          { Slicer_contract.rl_client = "hints"; rl_request = id;
            rl_claim_hash = Sha256.digest (Slicer_contract.encode_claims claims);
            rl_witness_digest = Slicer_contract.witness_digest ~claims ~batch_witness:None }
      in
      let tree = Merkle.build [ leaf ] in
      let members =
        [ { Slicer_contract.es_request = id; es_user = Protocol.user_address s;
            es_amount = Protocol.payment s;
            es_digest = Slicer_contract.tokens_digest (List.map Slicer_types.token_bytes tokens) } ]
      in
      let batch_id = "hints-" ^ memo in
      (match
         (Slicer_contract.commit_batch ledger ~cloud:(Protocol.cloud_address s) ~contract ~batch_id
            ~root:(Merkle.root tree) ~members)
           .Vm.r_output
       with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "commit: %s" e);
      let h0 = hits () in
      let r =
        Slicer_contract.dispute_leaf ledger ~disputer:(Protocol.user_address s) ~contract ~batch_id
          ~index:0 ~leaf ~proof:(Merkle.prove tree 0)
          ~claims_blob:(Slicer_contract.encode_claims claims) ~batch_witness:None ~members ~ac
      in
      Alcotest.(check bool) ("an honest leaf's dispute is rejected, memo " ^ memo) true
        (match r.Vm.r_output with
         | Error e -> String.length e >= 16 && String.sub e 0 16 = "dispute rejected"
         | Ok _ -> false);
      Alcotest.(check (option int)) ("dispute: n walks, memo " ^ memo) (Some (priced Gas.h_prime))
        (h_prime_gas ());
      Alcotest.(check int) ("dispute memo hits, " ^ memo) memo_hits (hits () - h0))
    [ ("cold", 0); ("warm", n) ]

(* The memo answers [of_offset] only with the input's own prime at that
   offset, and [of_offset] never writes the memo. *)
let test_of_offset_memo () =
  let input = "of-offset-memo-input" in
  let x = Prime_rep.to_prime input in
  let j = Prime_rep.offset x in
  (match Prime_rep.of_offset input j with
   | Some p -> Alcotest.(check bool) "the memo's own prime" true (p == x)
   | None -> Alcotest.fail "the canonical offset must pass");
  let fresh = "of-offset-never-walked" in
  let canonical = Prime_rep.to_prime_uncached fresh in
  let entries () = (Prime_rep.cache_stats ()).Prime_rep.cs_entries in
  let e0 = entries () in
  Alcotest.(check bool) "tested, not walked" true
    (match Prime_rep.of_offset fresh (Prime_rep.offset canonical) with
     | Some p -> Bigint.equal p canonical
     | None -> false);
  (match next_prime_offset canonical with
   | Some j' ->
     Alcotest.(check bool) "a later prime passes the test" true
       (Prime_rep.of_offset fresh j' <> None)
   | None -> ());
  Alcotest.(check int) "nothing memoized" e0 (entries ());
  Alcotest.(check bool) "the walk still finds the first prime" true
    (Bigint.equal (Prime_rep.to_prime fresh) canonical);
  List.iter
    (fun j' ->
      Alcotest.(check bool) (Printf.sprintf "offset %d refused" j') true
        (Prime_rep.of_offset input j' = None))
    [ 0; -1; j - 1; j + 1; 1 lsl Prime_rep.counter_bits; prime_past_interval x ]

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
     in the tens of thousands. Verification is pinned exactly: one
     hinted claim, its prime checked by one Baillie–PSW test. *)
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
  (* Settled against the Ac in force (5): verification runs in full. *)
  let sr = submit ledger ~contract ~request_id:"g" ~amount:10 ~ac:(Bigint.of_int 5) claims in
  Alcotest.(check int) "verification settlement" 59_872 sr.Vm.r_gas_used;
  let input = Slicer_contract.claim_input ~token_bytes:token results in
  Alcotest.(check (option int)) "its h-prime: one hinted prime"
    (Some (Gas.h_prime_hinted ~input_len:(String.length input)))
    (List.assoc_opt "h-prime" (Vm.last_breakdown (Ledger.state ledger)));
  Alcotest.(check int) "the hinted prime's gas, where the walk charges 35,420" 11_338
    (Gas.h_prime_hinted ~input_len:(String.length input));
  Alcotest.(check int) "the walk's gas" 35_420 (Gas.h_prime ~input_len:(String.length input))

(* --- one algorithm 5 ------------------------------------------------------ *)

let verify_hits () = Obs.counter_value "slicer_acc_verify_cache_hits_total"
let verify_misses () = Obs.counter_value "slicer_acc_verify_cache_misses_total"

(* Algorithm 5's gas for [claims] by label, priced from the schedule:
   what a cold run charges, whichever witness form covers them. *)
let alg5_gas s ~h_prime claims =
  let modulus = (Owner.acc_params (Protocol.owner s)).Rsa_acc.modulus in
  let mod_len = (Bigint.num_bits modulus + 7) / 8 in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 claims in
  let input (c : Slicer_contract.claim) =
    Slicer_contract.claim_input ~token_bytes:c.token_bytes c.results
  in
  [ ( "mset-hash",
      sum (fun (c : Slicer_contract.claim) ->
          List.fold_left (fun a er -> a + Gas.hash (String.length er) + Gas.mulmod) 0 c.results) );
    ("h-prime", sum (fun c -> h_prime ~input_len:(String.length (input c))));
    ( "modexp",
      sum (fun c -> Gas.modexp ~base_len:mod_len ~exp:(Prime_rep.to_prime (input c)) ~mod_len) ) ]

let total gas = List.fold_left (fun acc (_, g) -> acc + g) 0 gas

let a5_requests = ref 0

(* Escrows [tokens] under a fresh id of fixed width, so every settlement
   built on it has the same calldata length and intrinsic gas. *)
let a5_escrow s tokens =
  incr a5_requests;
  let id = Printf.sprintf "a5-%05d" !a5_requests in
  let rr =
    Slicer_contract.request_search (Protocol.ledger s) ~user:(Protocol.user_address s)
      ~contract:(Protocol.contract_address s) ~request_id:id
      ~tokens:(List.map Slicer_types.token_bytes tokens) ~payment:(Protocol.payment s)
  in
  (match rr.Vm.r_output with Ok _ -> () | Error e -> Alcotest.failf "escrow %s: %s" id e);
  id

(* The same bytes with the last one flipped: an Ac of the same length
   that is not the one on chain. *)
let wrong_ac ac =
  let b = Bytes.of_string (Bigint.to_bytes_be ac) in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bigint.of_bytes_be (Bytes.to_string b)

(* [txn ~ac] builds one call whose Algorithm-5 units are the same every
   time. With a wrong Ac it reverts at the last check before Algorithm
   5, so its gas is what the call charges first ([pre]). The limits run
   out inside [unit_gas], Algorithm 5's first unit, which then never
   reaches the memo: each limited run and then one full run go cold,
   then all of them again warm, and every warm receipt must equal its
   cold twin in gas, output and split by label. *)
let check_replay ~name s ~unit_gas txn =
  let state = Ledger.state (Protocol.ledger s) in
  let ac = Cloud.current_ac (Protocol.cloud s) in
  let height = Ledger.height (Protocol.ledger s) in
  let pre = (Vm.execute ~height state (txn ~ac:(wrong_ac ac))).Vm.r_gas_used in
  let limits = [ pre + 1; pre + (unit_gas / 3); pre + (unit_gas / 2); pre + unit_gas - 1 ] in
  let run gas_limit =
    let r = Vm.execute ~height ~gas_limit state (txn ~ac) in
    (r.Vm.r_gas_used, r.Vm.r_output, Vm.last_breakdown state)
  in
  let gas_view =
    Alcotest.(triple int (result (list string) string) (list (pair string int)))
  in
  let m0 = verify_misses () and h0 = verify_hits () in
  let cold_limited = List.map run limits in
  Alcotest.(check int) (name ^ ": limited cold runs store nothing") h0 (verify_hits ());
  List.iter2
    (fun limit (gas, out, split) ->
      Alcotest.(check (result (list string) string)) (name ^ ": out of gas") (Error "out of gas") out;
      Alcotest.(check int) (name ^ ": burns its limit") limit gas;
      Alcotest.(check bool) (name ^ ": ran out inside Algorithm 5") true
        (List.exists (fun (l, _) -> List.mem l [ "mset-hash"; "h-prime" ]) split))
    limits cold_limited;
  let cold_full = run Ledger.gas_limit in
  Alcotest.(check bool) (name ^ ": cold runs miss") true (verify_misses () > m0);
  let m1 = verify_misses () in
  let warm_limited = List.map run limits in
  let warm_full = run Ledger.gas_limit in
  Alcotest.(check int) (name ^ ": warm runs never miss") m1 (verify_misses ());
  Alcotest.(check bool) (name ^ ": warm runs hit") true (verify_hits () > h0);
  List.iter2
    (fun cold warm -> Alcotest.check gas_view (name ^ ": limited replay is exact") cold warm)
    cold_limited warm_limited;
  Alcotest.check gas_view (name ^ ": full replay is exact") cold_full warm_full;
  cold_full

let a5_system seed =
  let s = hint_system seed in
  let tokens =
    User.gen_tokens ~rng:(Protocol.rng s) (Protocol.user s) (Slicer_types.query 128 Slicer_types.Lt)
  in
  (* Several claims, so a shared-witness unit alternates labels. *)
  Alcotest.(check bool) "several tokens" true (List.length tokens > 1);
  (s, tokens)

(* Each hint as 2 big-endian bytes, as [Slicer_contract.submit_result]
   sends them. *)
let hints_blob hints =
  let b = Bytes.create (2 * List.length hints) in
  List.iteri (fun i j -> Bytes.set_uint16_be b (2 * i) j) hints;
  Bytes.to_string b

let submit_txn s ~method_ args =
  let state = Ledger.state (Protocol.ledger s) in
  Vm.make_call state ~sender:(Protocol.cloud_address s) ~to_:(Protocol.contract_address s) method_
    args

let test_replay_submit_result () =
  let s, tokens = a5_system "a5-submit" in
  let claims, hints = Cloud.search (Protocol.cloud s) tokens in
  let first = [ List.hd claims ] in
  let _, out, _ =
    check_replay ~name:"submitResult" s
      ~unit_gas:(total (alg5_gas s ~h_prime:Gas.h_prime_hinted first))
      (fun ~ac ->
        submit_txn s ~method_:"submitResult"
          [ a5_escrow s tokens; Protocol.user_address s; string_of_int (Protocol.payment s);
            Bigint.to_bytes_be ac; Slicer_contract.encode_claims claims;
            hints_blob hints ])
  in
  Alcotest.(check (result (list string) string)) "an honest settlement pays" (Ok [ "paid" ]) out

let test_replay_submit_result_batched () =
  let s, tokens = a5_system "a5-batched" in
  let claims, hints, witness = Cloud.search_batched (Protocol.cloud s) tokens in
  let _, out, _ =
    check_replay ~name:"submitResultBatched" s
      ~unit_gas:(total (alg5_gas s ~h_prime:Gas.h_prime_hinted claims))
      (fun ~ac ->
        submit_txn s ~method_:"submitResultBatched"
          [ a5_escrow s tokens; Protocol.user_address s; string_of_int (Protocol.payment s);
            Bigint.to_bytes_be ac; Slicer_contract.encode_claims claims;
            Bigint.to_bytes_be witness;
            hints_blob hints ])
  in
  Alcotest.(check (result (list string) string)) "an honest settlement pays" (Ok [ "paid" ]) out

(* Commits one leaf over [claims] in a batch of its own and returns the
   dispute call on it, as [Slicer_contract.dispute_leaf] encodes it. *)
let committed_leaf s tokens claims ~batch_witness =
  let ledger = Protocol.ledger s and contract = Protocol.contract_address s in
  let id = a5_escrow s tokens in
  ignore (Slicer_contract.post_deposit ledger ~cloud:(Protocol.cloud_address s) ~contract ~amount:9_000);
  let leaf =
    Slicer_contract.encode_leaf
      (Slicer_contract.receipt_leaf ~client:"a5" ~request:id ~claims ~batch_witness)
  in
  let tree = Merkle.build [ leaf ] in
  let members =
    [ { Slicer_contract.es_request = id; es_user = Protocol.user_address s;
        es_amount = Protocol.payment s;
        es_digest = Slicer_contract.tokens_digest (List.map Slicer_types.token_bytes tokens) } ]
  in
  let batch_id = "a5-batch-" ^ id in
  (match
     (Slicer_contract.commit_batch ledger ~cloud:(Protocol.cloud_address s) ~contract ~batch_id
        ~root:(Merkle.root tree) ~members)
       .Vm.r_output
   with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "commit: %s" e);
  fun ~ac ->
    Vm.make_call (Ledger.state ledger) ~sender:(Protocol.user_address s) ~to_:contract "dispute"
      [ batch_id; "0"; leaf; Merkle.proof_to_bytes (Merkle.prove tree 0);
        Slicer_contract.encode_claims claims;
        (match batch_witness with None -> "" | Some w -> Bigint.to_bytes_be w);
        Slicer_contract.encode_escrows members; Bigint.to_bytes_be ac ]

let dispute_rejected (_, out, _) =
  match out with
  | Error e -> String.length e >= 16 && String.sub e 0 16 = "dispute rejected"
  | Ok _ -> false

let test_replay_dispute_per_claim () =
  let s, tokens = a5_system "a5-dispute" in
  let claims, _ = Cloud.search (Protocol.cloud s) tokens in
  let full =
    check_replay ~name:"dispute" s
      ~unit_gas:(total (alg5_gas s ~h_prime:Gas.h_prime [ List.hd claims ]))
      (committed_leaf s tokens claims ~batch_witness:None)
  in
  Alcotest.(check bool) "an honest leaf's dispute is rejected" true (dispute_rejected full)

let test_replay_dispute_shared () =
  let s, tokens = a5_system "a5-dispute-shared" in
  let claims, _, witness = Cloud.search_batched (Protocol.cloud s) tokens in
  let full =
    check_replay ~name:"shared-witness dispute" s
      ~unit_gas:(total (alg5_gas s ~h_prime:Gas.h_prime claims))
      (committed_leaf s tokens claims ~batch_witness:(Some witness))
  in
  Alcotest.(check bool) "an honest leaf's dispute is rejected" true (dispute_rejected full)

(* The user's check stores entries, charges included, that the chain's
   dispute of the same claims then hits: n hits, and exactly the gas of
   a cold dispute, label by label. *)
let test_user_entries_serve_disputes () =
  let s, tokens = a5_system "a5-user-then-dispute" in
  let claims, _ = Cloud.search (Protocol.cloud s) tokens in
  let n = List.length claims in
  let ac = Cloud.current_ac (Protocol.cloud s) in
  let m0 = verify_misses () in
  Alcotest.(check bool) "the user verifies" true
    (Verifier.verify_claims (Owner.acc_params (Protocol.owner s)) ~ac claims);
  Alcotest.(check int) "the user's lookups miss" (m0 + n) (verify_misses ());
  let dispute = committed_leaf s tokens claims ~batch_witness:None in
  let state = Ledger.state (Protocol.ledger s) in
  let h0 = verify_hits () and m1 = verify_misses () in
  let r = Vm.execute ~height:(Ledger.height (Protocol.ledger s)) state (dispute ~ac) in
  Alcotest.(check bool) "an honest leaf's dispute is rejected" true
    (dispute_rejected (r.Vm.r_gas_used, r.Vm.r_output, []));
  Alcotest.(check int) "the dispute hits the user's entries" (h0 + n) (verify_hits ());
  Alcotest.(check int) "and misses none" m1 (verify_misses ());
  let split = Vm.last_breakdown state in
  List.iter
    (fun (label, gas) ->
      Alcotest.(check (option int)) ("a cold dispute's " ^ label) (Some gas) (List.assoc_opt label split))
    (alg5_gas s ~h_prime:Gas.h_prime claims)

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
          Alcotest.test_case "unknown method" `Quick test_unknown_method;
          Alcotest.test_case "storage priced per word" `Quick test_storage_priced_per_word;
          Alcotest.test_case "intrinsic gas over the limit refused" `Quick
            test_intrinsic_over_limit_refused ] );
      ( "ledger",
        [ Alcotest.test_case "grows and validates" `Quick test_chain_grows_and_validates;
          Alcotest.test_case "tamper detected" `Quick test_tamper_detected;
          Alcotest.test_case "tx inclusion proof" `Quick test_tx_inclusion_proof;
          Alcotest.test_case "receipt lookup" `Quick test_receipt_lookup;
          Alcotest.test_case "blocks record their gas" `Quick test_block_records_gas;
          Alcotest.test_case "a block never passes its gas limit" `Quick test_block_gas_limit ] );
      ( "slicer_contract",
        [ Alcotest.test_case "deploy and read Ac" `Quick test_deploy_and_read_ac;
          Alcotest.test_case "honest cloud paid" `Quick test_honest_cloud_gets_paid;
          Alcotest.test_case "tampered results refunded" `Quick test_tampered_results_refunded;
          Alcotest.test_case "forged witness refunded" `Quick test_forged_witness_refunded;
          Alcotest.test_case "wrong token set rejected" `Quick test_wrong_token_set_rejected;
          Alcotest.test_case "updateAc only owner" `Quick test_update_ac_only_owner;
          Alcotest.test_case "requestSearch charges its hashes" `Quick
            test_request_search_charges_its_hashes;
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
          Alcotest.test_case "leaf codec" `Quick test_leaf_codec_roundtrip;
          Alcotest.test_case "every cell is one word" `Quick test_every_cell_one_word ] );
      ("contract properties", claims_props @ forgery_props);
      ( "prime hints",
        hint_props
        @ [ Alcotest.test_case "h-prime gas by path, memo cold and warm" `Quick
              test_hprime_gas_by_path;
            Alcotest.test_case "of_offset and the prime memo" `Quick test_of_offset_memo ] );
      ( "one algorithm 5",
        [ Alcotest.test_case "submitResult replays exactly" `Quick test_replay_submit_result;
          Alcotest.test_case "submitResultBatched replays exactly" `Quick
            test_replay_submit_result_batched;
          Alcotest.test_case "per-claim dispute replays exactly" `Quick
            test_replay_dispute_per_claim;
          Alcotest.test_case "shared-witness dispute replays exactly" `Quick
            test_replay_dispute_shared;
          Alcotest.test_case "a dispute hits the user's entries" `Quick
            test_user_entries_serve_disputes ] ) ]
