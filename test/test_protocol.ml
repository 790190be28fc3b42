(* End-to-end tests of the Slicer core: Build/Insert/Search protocols
   against a plaintext oracle, forward security, the fairness escrow
   under every misbehaviour in the threat model, multi-attribute data,
   and the deletion extension. *)

let q = Slicer_types.query
let sorted = List.sort String.compare

let check_ids msg expected actual =
  Alcotest.(check (list string)) msg (sorted expected) (sorted actual)

(* One modest shared system (width 6, 40 records) with precomputed
   witnesses keeps the suite brisk; accumulator work is the bottleneck. *)
let width = 6

let db =
  let rng = Drbg.create ~seed:"protocol-db" in
  Gen.uniform_records ~rng ~width 40

let system =
  lazy
    (let s = Protocol.setup ~width ~seed:"protocol-tests" db in
     Cloud.precompute_witnesses (Protocol.cloud s);
     s)

let all_conditions v = [ q v Slicer_types.Eq; q v Slicer_types.Gt; q v Slicer_types.Lt ]

let test_oracle_equality () =
  let s = Lazy.force system in
  (* A value present in the data plus one absent. *)
  let present = (match db with r :: _ -> List.assoc "" r.Slicer_types.fields | [] -> 0) in
  List.iter
    (fun v ->
      let query = q v Slicer_types.Eq in
      let out = Protocol.search s query in
      Alcotest.(check bool) "verified" true out.Protocol.so_verified;
      check_ids (Printf.sprintf "= %d" v) (Slicer_types.reference_search db query) out.Protocol.so_ids)
    [ present; 63 ]

let test_oracle_order_sweep () =
  let s = Lazy.force system in
  List.iter
    (fun v ->
      List.iter
        (fun query ->
          let out = Protocol.search s query in
          Alcotest.(check bool) "verified" true out.Protocol.so_verified;
          check_ids
            (Format.asprintf "%d %a" v Slicer_types.pp_condition query.Slicer_types.q_cond)
            (Slicer_types.reference_search db query)
            out.Protocol.so_ids)
        (all_conditions v))
    [ 0; 1; 17; 31; 32; 62; 63 ]

let test_token_counts () =
  let s = Lazy.force system in
  let eq = Protocol.search s (q 17 Slicer_types.Eq) in
  Alcotest.(check bool) "equality: at most one token" true (eq.Protocol.so_token_count <= 1);
  let ord = Protocol.search s (q 17 Slicer_types.Gt) in
  Alcotest.(check bool) "order: at most width tokens" true (ord.Protocol.so_token_count <= width);
  Alcotest.(check bool) "order: at least one token" true (ord.Protocol.so_token_count >= 1)

let test_offchain_agrees () =
  let s = Lazy.force system in
  let query = q 30 Slicer_types.Lt in
  let claims, ok = Protocol.search_offchain s query in
  Alcotest.(check bool) "offchain verifies" true ok;
  let onchain = Protocol.search s query in
  Alcotest.(check bool) "onchain verifies" true onchain.Protocol.so_verified;
  let offchain_ids =
    User.decrypt_results (Protocol.user s)
      (List.concat_map (fun (c : Slicer_contract.claim) -> c.Slicer_contract.results) claims)
  in
  check_ids "same ids" onchain.Protocol.so_ids offchain_ids

let test_result_sizes () =
  let s = Lazy.force system in
  let query = q 40 Slicer_types.Lt in
  let out = Protocol.search s query in
  let n = List.length (Slicer_types.reference_search db query) in
  Alcotest.(check int) "16 bytes per result" (16 * n) out.Protocol.so_result_bytes;
  Alcotest.(check bool) "constant-size VOs" true
    (out.Protocol.so_vo_bytes <= 64 * out.Protocol.so_token_count)

(* --- fairness under the threat model ---------------------------------- *)

let fresh_system seed = Protocol.setup ~width ~seed (List.filteri (fun i _ -> i < 25) db)

let test_misbehaviors_refunded () =
  let s = fresh_system "misbehavior" in
  let small_db = List.filteri (fun i _ -> i < 25) db in
  (* Pick a populated query so tampering has something to tamper with. *)
  let query = q 32 Slicer_types.Lt in
  Alcotest.(check bool) "query has matches" true (Slicer_types.reference_search small_db query <> []);
  List.iter
    (fun (mode, name) ->
      Protocol.set_cloud_behavior s mode;
      let user_before = Protocol.user_balance s in
      let cloud_before = Protocol.cloud_balance s in
      let out = Protocol.search s query in
      Alcotest.(check bool) (name ^ ": rejected") false out.Protocol.so_verified;
      Alcotest.(check int) (name ^ ": user refunded") user_before (Protocol.user_balance s);
      Alcotest.(check int) (name ^ ": cloud unpaid") cloud_before (Protocol.cloud_balance s))
    [ (Cloud.Drop_result, "drop");
      (Cloud.Inject_result, "inject");
      (Cloud.Tamper_result, "tamper");
      (Cloud.Forge_witness, "forge") ];
  (* Honesty restored: payment flows. *)
  Protocol.set_cloud_behavior s Cloud.Honest;
  let user_before = Protocol.user_balance s in
  let cloud_before = Protocol.cloud_balance s in
  let out = Protocol.search s query in
  Alcotest.(check bool) "honest verified" true out.Protocol.so_verified;
  Alcotest.(check int) "user paid fee" (user_before - 1000) (Protocol.user_balance s);
  Alcotest.(check int) "cloud earned fee" (cloud_before + 1000) (Protocol.cloud_balance s)

let test_stale_cloud_rejected () =
  let s = fresh_system "stale" in
  let query = q 20 Slicer_types.Gt in
  ignore (Protocol.search s query);
  (* Insert matching data, then let the cloud answer from its pre-insert
     snapshot: freshness must be enforced. *)
  Protocol.insert s [ Slicer_types.record_of_value "fresh-1" 3; Slicer_types.record_of_value "fresh-2" 5 ];
  Protocol.set_cloud_behavior s Cloud.Stale_results;
  let out = Protocol.search s query in
  Alcotest.(check bool) "stale answer rejected" false out.Protocol.so_verified;
  Protocol.set_cloud_behavior s Cloud.Honest;
  let out2 = Protocol.search s query in
  Alcotest.(check bool) "fresh answer accepted" true out2.Protocol.so_verified;
  Alcotest.(check bool) "fresh records present" true
    (List.mem "fresh-1" out2.Protocol.so_ids && List.mem "fresh-2" out2.Protocol.so_ids)

(* --- dynamics ------------------------------------------------------------ *)

let test_insert_then_search () =
  let s = fresh_system "dynamics" in
  let small_db = List.filteri (fun i _ -> i < 25) db in
  let ac_before = Protocol.onchain_ac_digest s in
  Protocol.insert s
    [ Slicer_types.record_of_value "new-a" 11; Slicer_types.record_of_value "new-b" 11 ];
  let ac_after = Protocol.onchain_ac_digest s in
  (match (ac_before, ac_after) with
   | Some a, Some b -> Alcotest.(check bool) "on-chain Ac refreshed" false (String.equal a b)
   | _ -> Alcotest.fail "Ac missing on chain");
  let out = Protocol.search s (q 11 Slicer_types.Eq) in
  Alcotest.(check bool) "verified" true out.Protocol.so_verified;
  let expected =
    Slicer_types.reference_search
      (small_db
      @ [ Slicer_types.record_of_value "new-a" 11; Slicer_types.record_of_value "new-b" 11 ])
      (q 11 Slicer_types.Eq)
  in
  check_ids "insert visible" expected out.Protocol.so_ids;
  (* Order search must also see the fresh records. *)
  let out2 = Protocol.search s (q 12 Slicer_types.Gt) in
  Alcotest.(check bool) "order verified" true out2.Protocol.so_verified;
  Alcotest.(check bool) "order sees inserts" true
    (List.mem "new-a" out2.Protocol.so_ids && List.mem "new-b" out2.Protocol.so_ids)

let test_forward_security_old_tokens_blind () =
  let s = fresh_system "forward-security" in
  (* Capture tokens for a query, then insert matching data. The old
     tokens walk only generations <= j, so the new entries stay
     invisible — the cloud learns nothing linking them to past queries. *)
  let query = q 2 Slicer_types.Eq in
  let old_tokens = User.gen_tokens ~rng:(Protocol.rng s) (Protocol.user s) query in
  let before = Cloud.search (Protocol.cloud s) old_tokens in
  let count_results claims =
    List.fold_left (fun n (c : Slicer_contract.claim) -> n + List.length c.Slicer_contract.results) 0 claims
  in
  Protocol.insert s [ Slicer_types.record_of_value "hidden" 2 ];
  let after = Cloud.search (Protocol.cloud s) old_tokens in
  Alcotest.(check int) "old tokens see nothing new" (count_results before) (count_results after);
  (* A fresh token (post-insert T) does see the record. *)
  let out = Protocol.search s query in
  Alcotest.(check bool) "fresh token finds it" true (List.mem "hidden" out.Protocol.so_ids)

let test_duplicate_id_rejected () =
  let s = fresh_system "dup" in
  Protocol.insert s [ Slicer_types.record_of_value "unique-1" 9 ];
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Owner: duplicate record id \"unique-1\"") (fun () ->
      Protocol.insert s [ Slicer_types.record_of_value "unique-1" 10 ])

(* --- multi-attribute ------------------------------------------------------ *)

let test_multiattr () =
  let rng = Drbg.create ~seed:"ma" in
  let records = Gen.multiattr_records ~rng ~width ~attrs:[ "age"; "dose" ] 25 in
  let s = Protocol.setup ~width ~seed:"multiattr" records in
  Cloud.precompute_witnesses (Protocol.cloud s);
  List.iter
    (fun query ->
      let out = Protocol.search s query in
      Alcotest.(check bool) "verified" true out.Protocol.so_verified;
      check_ids
        (Format.asprintf "%s %a %d" query.Slicer_types.q_attr Slicer_types.pp_condition
           query.Slicer_types.q_cond query.Slicer_types.q_value)
        (Slicer_types.reference_search records query)
        out.Protocol.so_ids)
    [ q ~attr:"age" 30 Slicer_types.Gt;
      q ~attr:"age" 30 Slicer_types.Lt;
      q ~attr:"dose" 30 Slicer_types.Gt;
      q ~attr:"dose" 12 Slicer_types.Eq ];
  (* Cross-attribute isolation: same value, different attribute. *)
  let age_ids = (Protocol.search s (q ~attr:"age" 20 Slicer_types.Lt)).Protocol.so_ids in
  let expected = Slicer_types.reference_search records (q ~attr:"age" 20 Slicer_types.Lt) in
  check_ids "attr isolation" expected age_ids

(* --- deletion extension ---------------------------------------------------- *)

let test_dual_delete () =
  let records =
    [ Slicer_types.record_of_value "a" 5;
      Slicer_types.record_of_value "b" 5;
      Slicer_types.record_of_value "c" 9 ]
  in
  let d = Dual.setup ~width ~seed:"dual" records in
  let out = Dual.search d (q 5 Slicer_types.Eq) in
  Alcotest.(check bool) "verified" true out.Dual.verified;
  check_ids "before delete" [ "a"; "b" ] out.Dual.ids;
  Dual.delete d [ Slicer_types.record_of_value "a" 5 ];
  let out2 = Dual.search d (q 5 Slicer_types.Eq) in
  Alcotest.(check bool) "verified after delete" true out2.Dual.verified;
  check_ids "after delete" [ "b" ] out2.Dual.ids;
  Alcotest.(check int) "live count" 2 (Dual.live_count d);
  (* Order search respects deletion too. *)
  let out3 = Dual.search d (q 6 Slicer_types.Lt) in
  check_ids "order after delete" [ "c" ] out3.Dual.ids

let test_dual_guards () =
  let d = Dual.setup ~width ~seed:"dual-guards" [ Slicer_types.record_of_value "a" 5 ] in
  Alcotest.(check bool) "delete unknown raises" true
    (try
       Dual.delete d [ Slicer_types.record_of_value "zz" 5 ];
       false
     with Invalid_argument _ -> true);
  Dual.delete d [ Slicer_types.record_of_value "a" 5 ];
  Alcotest.(check bool) "double delete raises" true
    (try
       Dual.delete d [ Slicer_types.record_of_value "a" 5 ];
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "reinsert deleted id raises" true
    (try
       Dual.insert d [ Slicer_types.record_of_value "a" 7 ];
       false
     with Invalid_argument _ -> true)

let test_dual_update () =
  let d = Dual.setup ~width ~seed:"dual-update" [ Slicer_types.record_of_value "v1" 5 ] in
  Dual.update d ~old_record:(Slicer_types.record_of_value "v1" 5)
    (Slicer_types.record_of_value "v2" 9);
  check_ids "old value gone" [] (Dual.search d (q 5 Slicer_types.Eq)).Dual.ids;
  check_ids "new value present" [ "v2" ] (Dual.search d (q 9 Slicer_types.Eq)).Dual.ids

let test_dual_update_rejects_replayed_id () =
  (* The natural "overwrite in place" mistake: updating a record while
     keeping its ID replays the old ID, which the paper's no-repeated-ID
     rule forbids. The rejection must be all-or-nothing — validation
     happens before either instance is touched, so the old record is
     still live and searchable afterwards. *)
  let d = Dual.setup ~width ~seed:"dual-replay" [ Slicer_types.record_of_value "v1" 5 ] in
  Alcotest.(check bool) "replayed old ID rejected" true
    (try
       Dual.update d ~old_record:(Slicer_types.record_of_value "v1" 5)
         (Slicer_types.record_of_value "v1" 9);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "previously used ID rejected" true
    (try
       Dual.insert d [ Slicer_types.record_of_value "other" 7 ];
       Dual.update d ~old_record:(Slicer_types.record_of_value "v1" 5)
         (Slicer_types.record_of_value "other" 9);
       false
     with Invalid_argument _ -> true);
  (* Nothing was half-applied: the old record still answers, the
     aborted new value does not. *)
  check_ids "old record untouched" [ "v1" ] (Dual.search d (q 5 Slicer_types.Eq)).Dual.ids;
  check_ids "aborted update left no trace" [] (Dual.search d (q 9 Slicer_types.Eq)).Dual.ids;
  Alcotest.(check int) "live count unchanged" 2 (Dual.live_count d)

(* --- extensions: batched settlement, interval search, leakage ------------- *)

let test_batched_search_agrees () =
  let s = Lazy.force system in
  let query = q 25 Slicer_types.Gt in
  let plain = Protocol.search s query in
  let batched = Protocol.search_batched s query in
  Alcotest.(check bool) "batched verified" true batched.Protocol.so_verified;
  check_ids "same ids" plain.Protocol.so_ids batched.Protocol.so_ids;
  Alcotest.(check bool) "one 64B VO instead of per-token" true
    (batched.Protocol.so_vo_bytes <= 64 && plain.Protocol.so_vo_bytes >= batched.Protocol.so_vo_bytes)

let test_batched_rejects_tampering () =
  let s = fresh_system "batched-tamper" in
  Protocol.set_cloud_behavior s Cloud.Drop_result;
  let out = Protocol.search_batched s (q 32 Slicer_types.Lt) in
  Alcotest.(check bool) "tampered batch refunded" false out.Protocol.so_verified;
  Protocol.set_cloud_behavior s Cloud.Forge_witness;
  let out2 = Protocol.search_batched s (q 32 Slicer_types.Lt) in
  Alcotest.(check bool) "forged batch witness refunded" false out2.Protocol.so_verified;
  Protocol.set_cloud_behavior s Cloud.Honest;
  let out3 = Protocol.search_batched s (q 32 Slicer_types.Lt) in
  Alcotest.(check bool) "honest batch paid" true out3.Protocol.so_verified

let test_witnesses_match_reference () =
  (* The witness tree is the cloud's one witness path: every VO it
     serves must equal the from-scratch reference over the cloud's own
     prime list, per claim and batched. And the threat model must
     survive it: misbehaviour is still caught. *)
  let records = List.filteri (fun i _ -> i < 25) db in
  let s = Protocol.setup ~width ~seed:"windex-reference" records in
  let cloud = Protocol.cloud s in
  let params = Owner.acc_params (Protocol.owner s) in
  let query = q 30 Slicer_types.Lt in
  let tokens = User.gen_tokens ~rng:(Protocol.rng s) (Protocol.user s) query in
  let prime_of (c : Slicer_contract.claim) =
    let h = Mset_hash.of_list c.Slicer_contract.results in
    Prime_rep.to_prime (Bytesutil.concat [ c.Slicer_contract.token_bytes; Mset_hash.to_bytes h ])
  in
  let claims = Cloud.search cloud tokens in
  Alcotest.(check bool) "some claims" true (claims <> []);
  List.iter
    (fun (c : Slicer_contract.claim) ->
      Alcotest.(check bool) "witness = mem_witness" true
        (Bigint.equal c.Slicer_contract.witness
           (Rsa_acc.mem_witness params (Cloud.primes cloud) (prime_of c))))
    claims;
  let batched, witness = Cloud.search_batched cloud tokens in
  Alcotest.(check bool) "batch witness = batch_witness" true
    (Bigint.equal witness
       (Rsa_acc.batch_witness params (Cloud.primes cloud) (List.map prime_of batched)));
  Alcotest.(check bool) "honest search verified" true (Protocol.search s query).Protocol.so_verified;
  Protocol.set_cloud_behavior s Cloud.Forge_witness;
  Alcotest.(check bool) "forged witness refunded" false
    (Protocol.search s query).Protocol.so_verified;
  Protocol.set_cloud_behavior s Cloud.Drop_result;
  Alcotest.(check bool) "dropped result refunded" false
    (Protocol.search s query).Protocol.so_verified

let test_search_conj () =
  let rng = Drbg.create ~seed:"conj" in
  let records = Gen.multiattr_records ~rng ~width ~attrs:[ "age"; "dose" ] 30 in
  let s = Protocol.setup ~width ~seed:"conj" records in
  Cloud.precompute_witnesses (Protocol.cloud s);
  let q1 = q ~attr:"age" 30 Slicer_types.Gt and q2 = q ~attr:"dose" 30 Slicer_types.Lt in
  let out = Protocol.search_conj s [ q1; q2 ] in
  Alcotest.(check bool) "verified" true out.Protocol.so_verified;
  let expected =
    List.filter
      (fun id -> List.mem id (Slicer_types.reference_search records q2))
      (Slicer_types.reference_search records q1)
  in
  check_ids "conjunction oracle" expected out.Protocol.so_ids;
  Alcotest.check_raises "empty conjunction"
    (Invalid_argument "Protocol.search_conj: empty conjunction") (fun () ->
      ignore (Protocol.search_conj s []))

let test_search_between () =
  let s = Lazy.force system in
  let out = Protocol.search_between s ~lo:10 ~hi:40 () in
  Alcotest.(check bool) "verified" true out.Protocol.so_verified;
  let expected =
    List.filter
      (fun id -> List.mem id (Slicer_types.reference_search db (q 40 Slicer_types.Gt)))
      (Slicer_types.reference_search db (q 10 Slicer_types.Lt))
  in
  check_ids "interval oracle" expected out.Protocol.so_ids

let test_leakage_shape_only () =
  (* Forward security, stated as the paper states it: two same-shape
     insertions of different records produce identical insert leakage. *)
  let sa = fresh_system "leak-a" and sb = fresh_system "leak-b" in
  let batch_a = [ Slicer_types.record_of_value "alpha" 13; Slicer_types.record_of_value "beta" 13 ] in
  let batch_b = [ Slicer_types.record_of_value "gamma" 46; Slicer_types.record_of_value "delta" 46 ] in
  let ship_a = Owner.insert (Protocol.owner sa) batch_a in
  let ship_b = Owner.insert (Protocol.owner sb) batch_b in
  Alcotest.(check bool) "identical insert leakage" true
    (Leakage.equal_build (Leakage.of_shipment ship_a) (Leakage.of_shipment ship_b))

let test_leakage_search_counts () =
  let s = Lazy.force system in
  let query = q 20 Slicer_types.Lt in
  let tokens = User.gen_tokens ~rng:(Protocol.rng s) (Protocol.user s) query in
  let claims = Cloud.search (Protocol.cloud s) tokens in
  let leak = Leakage.of_search tokens claims in
  Alcotest.(check int) "token count matches" (List.length tokens) leak.Leakage.sl_token_count;
  Alcotest.(check int) "per-token counts" (List.length claims) (List.length leak.Leakage.sl_result_counts);
  Alcotest.(check int) "result width is one AES block" 128 leak.Leakage.sl_result_bits;
  let total = List.fold_left ( + ) 0 leak.Leakage.sl_result_counts in
  Alcotest.(check int) "counts sum to matches"
    (List.length (Slicer_types.reference_search db query)) total

let test_repeat_matrix () =
  let s = fresh_system "repeat" in
  (* Query two values that are certainly indexed: read them off the data. *)
  let v1, v2 =
    match
      List.sort_uniq compare
        (List.filter_map (fun r -> List.assoc_opt "" r.Slicer_types.fields)
           (List.filteri (fun i _ -> i < 25) db))
    with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "dataset too uniform"
  in
  let tokens q' = User.gen_tokens ~rng:(Protocol.rng s) (Protocol.user s) q' in
  let t1 = tokens (q v1 Slicer_types.Eq) in
  let t2 = tokens (q v1 Slicer_types.Eq) in
  let t3 = tokens (q v2 Slicer_types.Eq) in
  (match (t1, t2, t3) with
   | [ a ], [ b ], [ c ] ->
     let m = Leakage.repeat_matrix [ a; b; c ] in
     Alcotest.(check bool) "same query repeats" true m.(0).(1);
     Alcotest.(check bool) "diagonal" true m.(2).(2);
     Alcotest.(check bool) "different query distinct" false m.(0).(2)
   | _ -> Alcotest.fail "expected singleton token lists for indexed values")

let test_stale_user_sees_past () =
  (* The paper's freshness guarantee rides on the owner -> user channel:
     old primes stay in X (Alg. 2 line 24), so a user with a stale
     trapdoor state gets verifiably-correct *historical* results. A user
     with the updated state sees everything. This pins that faithful
     quirk of the design. *)
  let s = fresh_system "stale-user" in
  let stale_state = Owner.export_trapdoor_state (Protocol.owner s) in
  let keys = Keys.for_user (Owner.keys (Protocol.owner s)) in
  let stale_user = User.create ~keys ~width stale_state in
  Protocol.insert s [ Slicer_types.record_of_value "late" 3 ];
  let query = q 3 Slicer_types.Eq in
  let stale_tokens = User.gen_tokens ~rng:(Protocol.rng s) stale_user query in
  let claims = Cloud.search (Protocol.cloud s) stale_tokens in
  (* Old-generation claims still verify against the new Ac... *)
  Alcotest.(check bool) "historical claim verifies" true
    (Verifier.verify_claims (Owner.acc_params (Protocol.owner s))
       ~ac:(Owner.current_ac (Protocol.owner s)) claims);
  (* ...but do not contain the fresh record. *)
  let ids =
    User.decrypt_results stale_user
      (List.concat_map (fun (c : Slicer_contract.claim) -> c.Slicer_contract.results) claims)
  in
  Alcotest.(check bool) "fresh record invisible to stale user" false (List.mem "late" ids);
  (* After the owner re-exports T, the same user sees it. *)
  User.update_state stale_user (Owner.export_trapdoor_state (Protocol.owner s));
  let fresh_tokens = User.gen_tokens ~rng:(Protocol.rng s) stale_user query in
  let claims2 = Cloud.search (Protocol.cloud s) fresh_tokens in
  let ids2 =
    User.decrypt_results stale_user
      (List.concat_map (fun (c : Slicer_contract.claim) -> c.Slicer_contract.results) claims2)
  in
  Alcotest.(check bool) "fresh record visible after state update" true (List.mem "late" ids2)

let test_no_double_settlement () =
  let s = fresh_system "double" in
  let query = q 32 Slicer_types.Lt in
  let out = Protocol.search s query in
  Alcotest.(check bool) "first settles" true out.Protocol.so_verified;
  (* Replaying the settlement against the same request must fail: the
     escrow is gone and the status is no longer pending. *)
  let tokens = User.gen_tokens ~rng:(Protocol.rng s) (Protocol.user s) query in
  let claims = Cloud.search (Protocol.cloud s) tokens in
  let sr =
    Slicer_contract.submit_result (Protocol.ledger s) ~cloud:(Protocol.cloud_address s)
      ~contract:(Protocol.contract_address s) ~request_id:"req-1"
      ~user:(Protocol.user_address s) ~amount:(Protocol.payment s)
      ~ac:(Cloud.current_ac (Protocol.cloud s)) claims
  in
  (match sr.Vm.r_output with
   | Error "no pending request" -> ()
   | Ok o -> Alcotest.failf "double settlement succeeded: [%s]" (String.concat ";" o)
   | Error e -> Alcotest.failf "unexpected error: %s" e)

let test_simulator_shapes () =
  (* The Theorem 2 structure, executably: transcripts fabricated from
     leakage alone are shape-identical to real ones. *)
  let s = fresh_system "simulator" in
  let rng = Drbg.create ~seed:"sim" in
  (* Build phase: a Build shipment, which carries one witness per
     prime, and an Insert's, which carries none. *)
  let _, build, _ =
    Protocol.seeded_owner ~width ~tdp_bits:256 ~acc_bits:256 ~seed:"sim-build"
      (List.filteri (fun i _ -> i < 12) db)
  in
  let insert = Owner.insert (Protocol.owner s) [ Slicer_types.record_of_value "sim-1" 9 ] in
  List.iter
    (fun (what, real_shipment, witnesses) ->
      let leak = Leakage.of_shipment real_shipment in
      Alcotest.(check int) (what ^ ": witnesses counted") witnesses leak.Leakage.bl_witness_count;
      let fake_shipment = Simulator.simulate_build ~rng leak in
      Alcotest.(check bool) (what ^ ": shapes agree") true
        (Leakage.equal_build leak (Leakage.of_shipment fake_shipment)))
    [ ("build", build, List.length build.Owner.sh_groups); ("insert", insert, 0) ];
  (* Search phase. *)
  let query = q 32 Slicer_types.Lt in
  let tokens = User.gen_tokens ~rng:(Protocol.rng s) (Protocol.user s) query in
  let claims = Cloud.search (Protocol.cloud s) tokens in
  let sleak = Leakage.of_search tokens claims in
  let fake_tokens, fake_claims = Simulator.simulate_search ~rng sleak in
  let fake_leak = Leakage.of_search fake_tokens fake_claims in
  Alcotest.(check bool) "search shapes agree" true (sleak = fake_leak);
  (* A hint is public: each fake claim's is the offset of its own walk's
     prime, as the cloud derives it. *)
  Alcotest.(check bool) "fake hints are their claims' walk offsets" true
    (List.for_all
       (fun (c : Slicer_contract.claim) ->
         c.hint
         = Prime_rep.offset
             (Prime_rep.to_prime (Slicer_contract.claim_input ~token_bytes:c.token_bytes c.results)))
       fake_claims);
  (* And the fabricated transcript is not accidentally the real one. *)
  Alcotest.(check bool) "contents differ" false
    (List.equal
       (fun (a : Slicer_contract.claim) b ->
         String.equal a.Slicer_contract.token_bytes b.Slicer_contract.token_bytes)
       claims fake_claims
    && claims <> [])

(* --- soundness fuzzing ------------------------------------------------------ *)

(* Honest claims for a fixed populated query, mutated randomly: no
   mutation that changes the result multiset, the hint or the witness
   may verify, while permutations of the result list (a multiset no-op)
   must. *)
let soundness_claims =
  lazy
    (let s = Lazy.force system in
     let query = q 32 Slicer_types.Lt in
     let tokens = User.gen_tokens ~rng:(Protocol.rng s) (Protocol.user s) query in
     let claims = Cloud.search (Protocol.cloud s) tokens in
     let params = Owner.acc_params (Protocol.owner s) in
     let ac = Owner.current_ac (Protocol.owner s) in
     (claims, params, ac))

let mutate_claim ~kind ~index (c : Slicer_contract.claim) =
  let flip s i =
    if String.length s = 0 then s
    else String.mapi (fun k ch -> if k = i mod String.length s then Char.chr (Char.code ch lxor 0x40) else ch) s
  in
  match kind with
  | 0 -> { c with Slicer_contract.token_bytes = flip c.Slicer_contract.token_bytes index }
  | 1 ->
    { c with
      Slicer_contract.results =
        (match c.Slicer_contract.results with [] -> [ "ghost-entry-16b!" ] | _ :: rest -> rest) }
  | 2 -> { c with Slicer_contract.results = String.make 16 'Z' :: c.Slicer_contract.results }
  | 3 when c.Slicer_contract.results <> [] ->
    { c with
      Slicer_contract.results =
        List.mapi
          (fun i r -> if i = index mod List.length c.Slicer_contract.results then flip r 0 else r)
          c.Slicer_contract.results }
  | 4 -> { c with Slicer_contract.hint = c.Slicer_contract.hint lxor (2 * (1 + (index mod 8))) }
  | _ -> { c with Slicer_contract.witness = Bigint.add_int c.Slicer_contract.witness (1 + (index mod 5)) }

let soundness_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"no mutated claim verifies" ~count:100
         QCheck2.Gen.(pair (int_range 0 5) (int_range 0 1000))
         (fun (kind, index) ->
           let claims, params, ac = Lazy.force soundness_claims in
           match claims with
           | [] -> true
           | first :: _ -> not (Verifier.verify_claims params ~ac [ mutate_claim ~kind ~index first ])));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"result permutation still verifies (multiset)" ~count:20
         QCheck2.Gen.(int_range 0 1000)
         (fun _ ->
           let claims, params, ac = Lazy.force soundness_claims in
           List.for_all
             (fun (c : Slicer_contract.claim) ->
               Verifier.verify_claims params ~ac
                 [ { c with Slicer_contract.results = List.rev c.Slicer_contract.results } ])
             claims)) ]

(* --- misc ------------------------------------------------------------------ *)

let test_empty_query () =
  let s = Lazy.force system in
  (* Query an attribute that does not exist: no tokens, empty result,
     verification trivially passes. *)
  let out = Protocol.search s (q ~attr:"nope" 3 Slicer_types.Gt) in
  Alcotest.(check (list string)) "no ids" [] out.Protocol.so_ids;
  Alcotest.(check int) "no tokens" 0 out.Protocol.so_token_count;
  Alcotest.(check bool) "verified" true out.Protocol.so_verified

(* Nothing below 5 among values 100-109: the user's keyword state holds
   no token for the query, so it is answered with no escrow, no block
   and no fee for an empty claim set. *)
let test_tokenless_query_escrows_nothing () =
  let s =
    Protocol.setup ~width:8 ~seed:"tokenless"
      (List.init 10 (fun i -> Slicer_types.record_of_value (Printf.sprintf "t%d" i) (100 + i)))
  in
  let ledger = Protocol.ledger s in
  let before () = (Ledger.height ledger, Protocol.user_balance s, Protocol.cloud_balance s) in
  let height, user, cloud = before () in
  List.iter
    (fun (name, search) ->
      let out = search s (q 5 Slicer_types.Gt) in
      Alcotest.(check bool) (name ^ ": the empty outcome") true (out = Protocol.no_tokens);
      Alcotest.(check (triple int int int)) (name ^ ": height and balances unchanged")
        (height, user, cloud) (before ()))
    [ ("search", Protocol.search); ("search_batched", Protocol.search_batched) ]

let test_features_table () =
  Alcotest.(check bool) "slicer row all yes" true
    Features.(
      slicer.dynamics = Yes && slicer.numerical = Yes && slicer.freshness = Yes
      && slicer.forward_security = Yes && slicer.public_verifiability = Yes);
  Alcotest.(check int) "twelve rows" 12 (List.length Features.all);
  let rendered = Features.render () in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions Ours" true (contains "Ours" rendered)

let test_reference_search () =
  let records =
    [ Slicer_types.record_of_value "x" 3;
      Slicer_types.record_of_value "y" 7;
      { Slicer_types.id = "z"; fields = [ ("other", 3) ] } ]
  in
  check_ids "eq" [ "x" ] (Slicer_types.reference_search records (q 3 Slicer_types.Eq));
  check_ids "gt" [ "x" ] (Slicer_types.reference_search records (q 5 Slicer_types.Gt));
  check_ids "lt" [ "y" ] (Slicer_types.reference_search records (q 5 Slicer_types.Lt));
  check_ids "attr" [ "z" ] (Slicer_types.reference_search records (q ~attr:"other" 3 Slicer_types.Eq))

let test_record_validation () =
  Alcotest.check_raises "long id" (Invalid_argument "Slicer_types: record id exceeds 15 bytes")
    (fun () -> Slicer_types.check_record ~width:8 (Slicer_types.record_of_value (String.make 16 'x') 1));
  Alcotest.check_raises "no fields" (Invalid_argument "Slicer_types: record has no fields")
    (fun () -> Slicer_types.check_record ~width:8 { Slicer_types.id = "a"; fields = [] })

(* --- the cloud's claim step --------------------------------------------- *)

let collect_count () =
  match Obs.find_span_histogram "cloud.collect" with
  | Some h -> (Obs.Histogram.snapshot h).Obs.Histogram.sn_count
  | None -> 0

let prime_lookups () =
  let st = Prime_rep.cache_stats () in
  st.Prime_rep.cs_hits + st.Prime_rep.cs_misses

let prime_misses () = (Prime_rep.cache_stats ()).Prime_rep.cs_misses

let with_domains d f =
  Parallel.set_domains d;
  Fun.protect ~finally:(fun () -> Parallel.set_domains 1) f

(* A system and one order query's tokens, several of them. *)
let claim_system seed =
  let s = Protocol.setup ~width ~seed db in
  let tokens = User.gen_tokens ~rng:(Protocol.rng s) (Protocol.user s) (q 40 Slicer_types.Lt) in
  Alcotest.(check bool) "several tokens" true (List.length tokens > 1);
  (s, tokens)

(* The claim step runs once per fresh token: a search over k fresh
   tokens runs Algorithm 4 k times and looks each of its k distinct
   claim inputs up in the prime memo once, and a repeat, answered by the
   claim cache, adds nothing to either. The owner's Build walked the
   honest primes already; a misbehaving cloud's claim inputs are new, so
   its first search misses the prime memo once per claim input and its
   second, which answers every token afresh, misses none. *)
let test_claim_step_once () =
  let s, tokens = claim_system "claim-step" in
  let cloud = Protocol.cloud s in
  let k = List.length tokens in
  let step () = (collect_count (), prime_lookups (), prime_misses ()) in
  let delta (c0, l0, m0) =
    let c1, l1, m1 = step () in
    (c1 - c0, l1 - l0, m1 - m0)
  in
  let counts = Alcotest.(triple int int int) in
  let before = step () in
  let first = Cloud.search cloud tokens in
  Alcotest.check counts "fresh tokens: k collects, k lookups, no walk" (k, k, 0) (delta before);
  let before = step () in
  let again = Cloud.search cloud tokens in
  Alcotest.check counts "repeated tokens: nothing" (0, 0, 0) (delta before);
  Alcotest.(check string) "the claim cache answers the same claims, hints included"
    (Slicer_contract.encode_claims first) (Slicer_contract.encode_claims again);
  Protocol.set_cloud_behavior s Cloud.Inject_result;
  let before = step () in
  ignore (Cloud.search cloud tokens);
  Alcotest.check counts "new claim inputs: one walk each" (k, k, k) (delta before);
  let before = step () in
  ignore (Cloud.search cloud tokens);
  Alcotest.check counts "misbehaving: afresh, from the prime memo" (k, k, 0) (delta before)

(* Claims and hints do not depend on the pool size, whether the prime
   walks fan out across two domains or run in one: each hint is the
   offset of the prime a sequential walk finds. *)
let test_claim_step_pool_sizes () =
  let s, tokens = claim_system "claim-step-pools" in
  let cloud = Protocol.cloud s in
  let search d = with_domains d (fun () -> Cloud.search cloud tokens) in
  let same what c1 c2 =
    Alcotest.(check string) (what ^ ": claims, hints included") (Slicer_contract.encode_claims c1)
      (Slicer_contract.encode_claims c2)
  in
  (* Each behaviour change resets the claim cache, so every search
     below runs the claim step. *)
  List.iter
    (fun mode ->
      Protocol.set_cloud_behavior s mode;
      let m0 = prime_misses () in
      let two = search 2 in
      Protocol.set_cloud_behavior s Cloud.Forge_witness;
      Protocol.set_cloud_behavior s mode;
      let one = search 1 in
      same "pool sizes 1 and 2" one two;
      Alcotest.(check (list int)) "hints are the sequential walk's offsets"
        (List.map
           (fun (c : Slicer_contract.claim) ->
             Prime_rep.offset
               (Prime_rep.to_prime_uncached
                  (Slicer_contract.claim_input ~token_bytes:c.token_bytes c.results)))
           two)
        (List.map (fun (c : Slicer_contract.claim) -> c.hint) two);
      if mode = Cloud.Tamper_result then
        Alcotest.(check int) "fresh walks ran on the two-domain pool" (List.length tokens)
          (prime_misses () - m0))
    [ Cloud.Honest; Cloud.Tamper_result ]

let () =
  Alcotest.run "protocol"
    [ ( "search oracle",
        [ Alcotest.test_case "equality" `Quick test_oracle_equality;
          Alcotest.test_case "order sweep" `Quick test_oracle_order_sweep;
          Alcotest.test_case "token counts" `Quick test_token_counts;
          Alcotest.test_case "offchain agrees with onchain" `Quick test_offchain_agrees;
          Alcotest.test_case "result sizes" `Quick test_result_sizes;
          Alcotest.test_case "empty query" `Quick test_empty_query;
          Alcotest.test_case "a tokenless query escrows nothing" `Quick
            test_tokenless_query_escrows_nothing ] );
      ( "fairness",
        [ Alcotest.test_case "misbehaviours refunded" `Quick test_misbehaviors_refunded;
          Alcotest.test_case "stale cloud rejected" `Quick test_stale_cloud_rejected ] );
      ( "dynamics",
        [ Alcotest.test_case "insert then search" `Quick test_insert_then_search;
          Alcotest.test_case "forward security" `Quick test_forward_security_old_tokens_blind;
          Alcotest.test_case "duplicate id rejected" `Quick test_duplicate_id_rejected ] );
      ("multi-attribute", [ Alcotest.test_case "per-attribute queries" `Quick test_multiattr ]);
      ( "deletion",
        [ Alcotest.test_case "delete" `Quick test_dual_delete;
          Alcotest.test_case "guards" `Quick test_dual_guards;
          Alcotest.test_case "update" `Quick test_dual_update;
          Alcotest.test_case "update rejects a replayed ID" `Quick
            test_dual_update_rejects_replayed_id ] );
      ( "extensions",
        [ Alcotest.test_case "batched settlement agrees" `Quick test_batched_search_agrees;
          Alcotest.test_case "batched rejects tampering" `Quick test_batched_rejects_tampering;
          Alcotest.test_case "witnesses match the reference" `Quick test_witnesses_match_reference;
          Alcotest.test_case "interval search" `Quick test_search_between;
          Alcotest.test_case "conjunctive search" `Quick test_search_conj;
          Alcotest.test_case "insert leakage is shape-only" `Quick test_leakage_shape_only;
          Alcotest.test_case "search leakage counts" `Quick test_leakage_search_counts;
          Alcotest.test_case "repeat matrix" `Quick test_repeat_matrix;
          Alcotest.test_case "stale user sees verified past" `Quick test_stale_user_sees_past;
          Alcotest.test_case "no double settlement" `Quick test_no_double_settlement;
          Alcotest.test_case "theorem-2 simulator shapes" `Quick test_simulator_shapes ] );
      ("soundness", soundness_props);
      ( "claim step",
        [ Alcotest.test_case "once per fresh token" `Quick test_claim_step_once;
          Alcotest.test_case "pool sizes 1 and 2 agree" `Quick test_claim_step_pool_sizes ] );
      ( "misc",
        [ Alcotest.test_case "features table" `Quick test_features_table;
          Alcotest.test_case "reference search" `Quick test_reference_search;
          Alcotest.test_case "record validation" `Quick test_record_validation ] ) ]
