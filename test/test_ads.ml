(* Tests for the authenticated-data-structure substrates: multiset hash,
   prime representatives, RSA accumulator, Merkle tree, and the RSA
   trapdoor permutation. *)

let rng () = Drbg.create ~seed:"ads-tests"

let prop name ?(count = 100) gen p =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen p)

let gen_strings =
  let open QCheck2.Gen in
  let* n = int_range 0 12 in
  list_size (return n) (string_size ~gen:printable (int_range 0 8))

(* Small test parameters keep exponentiations fast. *)
let small_params = Rsa_acc.setup ~rng:(Drbg.create ~seed:"acc-params") ~bits:256 ()

(* --- multiset hash ---------------------------------------------------- *)

let test_mset_identity () =
  Alcotest.(check bool) "H(M) = H(M)" true (Mset_hash.equal (Mset_hash.of_list [ "a"; "b" ]) (Mset_hash.of_list [ "a"; "b" ]));
  Alcotest.(check bool) "empty" true (Mset_hash.equal Mset_hash.empty (Mset_hash.of_list []))

let test_mset_order_independent () =
  Alcotest.(check bool) "permutation" true
    (Mset_hash.equal (Mset_hash.of_list [ "a"; "b"; "c" ]) (Mset_hash.of_list [ "c"; "a"; "b" ]))

let test_mset_multiplicity () =
  Alcotest.(check bool) "multiset, not set" false
    (Mset_hash.equal (Mset_hash.of_list [ "a" ]) (Mset_hash.of_list [ "a"; "a" ]))

let test_mset_union_homomorphism () =
  let m = [ "x"; "y" ] and n = [ "y"; "z"; "z" ] in
  Alcotest.(check bool) "H(M∪N) = H(M)+H(N)" true
    (Mset_hash.equal (Mset_hash.of_list (m @ n)) (Mset_hash.combine (Mset_hash.of_list m) (Mset_hash.of_list n)))

let test_mset_remove () =
  let h = Mset_hash.of_list [ "a"; "b"; "b" ] in
  Alcotest.(check bool) "remove one" true (Mset_hash.equal (Mset_hash.remove h "b") (Mset_hash.of_list [ "a"; "b" ]));
  Alcotest.(check bool) "remove to empty" true
    (Mset_hash.equal (Mset_hash.remove (Mset_hash.of_list [ "q" ]) "q") Mset_hash.empty)

let test_mset_bytes () =
  let h = Mset_hash.of_list [ "serialize"; "me" ] in
  Alcotest.(check int) "32 bytes" 32 (String.length (Mset_hash.to_bytes h));
  Alcotest.(check bool) "roundtrip" true (Mset_hash.equal h (Mset_hash.of_bytes (Mset_hash.to_bytes h)))

let test_mset_distinct () =
  Alcotest.(check bool) "different multisets differ" false
    (Mset_hash.equal (Mset_hash.of_list [ "a" ]) (Mset_hash.of_list [ "b" ]))

(* --- prime representatives -------------------------------------------- *)

let test_prime_rep_prime () =
  List.iter
    (fun s ->
      let x = Prime_rep.to_prime s in
      Alcotest.(check bool) ("prime for " ^ s) true (Primegen.is_prime_det x);
      Alcotest.(check int) "width" (256 + Prime_rep.counter_bits) (Bigint.num_bits x))
    [ ""; "a"; "token-1"; String.make 100 'z' ]

let test_prime_rep_deterministic () =
  Alcotest.(check bool) "same input same prime" true
    (Bigint.equal (Prime_rep.to_prime "det") (Prime_rep.to_prime "det"));
  Alcotest.(check bool) "is_representative_of" true (Prime_rep.is_representative_of (Prime_rep.to_prime "det") "det");
  Alcotest.(check bool) "wrong claim rejected" false (Prime_rep.is_representative_of (Prime_rep.to_prime "det") "other")

let test_prime_rep_distinct () =
  Alcotest.(check bool) "distinct inputs distinct primes" false
    (Bigint.equal (Prime_rep.to_prime "input-a") (Prime_rep.to_prime "input-b"))

(* Every party re-derives H_prime, so a change to the primality test
   must not move a single representative: 512 inputs pinned by digest,
   and the first one in full. *)
let test_prime_rep_golden () =
  let primes = List.init 512 (fun i -> Prime_rep.to_prime (Printf.sprintf "golden-%d" i)) in
  Alcotest.(check string) "golden-0"
    "9aa0299dd1580b2043d4072fb034f19ab1352f8e28efdc8598efdc552c4c35130097"
    (Bigint.to_hex (List.hd primes));
  Alcotest.(check string) "sha256 over golden-0 .. golden-511"
    "bc8d7eaa0f21c6cf70feb913dbf79d7b42097747fa910b98ca5d0ef0379a9c88"
    (Bytesutil.to_hex (Sha256.digest (String.concat "" (List.map (Bigint.to_bytes_be ~len:34) primes))))

(* --- RSA accumulator --------------------------------------------------- *)

let primes_of n seed =
  List.init n (fun i -> Prime_rep.to_prime (Printf.sprintf "%s-%d" seed i))

let test_acc_member_verifies () =
  let xs = primes_of 6 "m" in
  let ac = Rsa_acc.accumulate small_params xs in
  List.iter
    (fun x ->
      let w = Rsa_acc.mem_witness small_params xs x in
      Alcotest.(check bool) "member verifies" true (Rsa_acc.verify_mem small_params ~ac ~x ~witness:w))
    xs

let test_acc_nonmember_fails () =
  let xs = primes_of 5 "n" in
  let ac = Rsa_acc.accumulate small_params xs in
  let outsider = Prime_rep.to_prime "outsider" in
  let w = Rsa_acc.mem_witness small_params xs (List.hd xs) in
  Alcotest.(check bool) "outsider fails" false (Rsa_acc.verify_mem small_params ~ac ~x:outsider ~witness:w)

let test_acc_wrong_witness_fails () =
  let xs = primes_of 5 "w" in
  let ac = Rsa_acc.accumulate small_params xs in
  let x0 = List.nth xs 0 and x1 = List.nth xs 1 in
  let w1 = Rsa_acc.mem_witness small_params xs x1 in
  Alcotest.(check bool) "mismatched witness fails" false (Rsa_acc.verify_mem small_params ~ac ~x:x0 ~witness:w1)

let test_acc_order_independent () =
  let xs = primes_of 5 "o" in
  Alcotest.(check bool) "permutation invariant" true
    (Bigint.equal (Rsa_acc.accumulate small_params xs) (Rsa_acc.accumulate small_params (List.rev xs)))

let test_acc_incremental_add () =
  let xs = primes_of 4 "i" in
  let extra = Prime_rep.to_prime "i-extra" in
  let direct = Rsa_acc.accumulate small_params (xs @ [ extra ]) in
  let incremental = Rsa_acc.add small_params (Rsa_acc.accumulate small_params xs) extra in
  Alcotest.(check bool) "incremental = direct" true (Bigint.equal direct incremental)

let test_acc_all_witnesses () =
  let xs = primes_of 9 "aw" in
  let ac = Rsa_acc.accumulate small_params xs in
  let pairs = Rsa_acc.all_witnesses small_params xs in
  Alcotest.(check int) "count" (List.length xs) (List.length pairs);
  List.iter2
    (fun x (x', w) ->
      Alcotest.(check bool) "order kept" true (Bigint.equal x x');
      Alcotest.(check bool) "verifies" true (Rsa_acc.verify_mem small_params ~ac ~x ~witness:w);
      Alcotest.(check bool) "matches naive" true (Bigint.equal w (Rsa_acc.mem_witness small_params xs x)))
    xs pairs

let test_acc_batch_witness () =
  let xs = primes_of 8 "batch" in
  let ac = Rsa_acc.accumulate small_params xs in
  let subset = [ List.nth xs 1; List.nth xs 4; List.nth xs 6 ] in
  let w = Rsa_acc.batch_witness small_params xs subset in
  Alcotest.(check bool) "batch verifies" true (Rsa_acc.verify_mem_batch small_params ~ac ~xs:subset ~witness:w);
  Alcotest.(check bool) "order-insensitive" true
    (Rsa_acc.verify_mem_batch small_params ~ac ~xs:(List.rev subset) ~witness:w);
  (* A subset with a non-member prime cannot verify. *)
  let outsider = Prime_rep.to_prime "batch-outsider" in
  Alcotest.(check bool) "outsider poisons batch" false
    (Rsa_acc.verify_mem_batch small_params ~ac ~xs:(outsider :: subset) ~witness:w);
  (* Dropping an element of the subset breaks the exponent product. *)
  Alcotest.(check bool) "partial subset fails" false
    (Rsa_acc.verify_mem_batch small_params ~ac ~xs:(List.tl subset) ~witness:w);
  (* Full-set batch = the accumulation itself from g. *)
  let w_all = Rsa_acc.batch_witness small_params xs xs in
  Alcotest.(check bool) "full-set witness is g" true (Bigint.equal w_all small_params.Rsa_acc.generator);
  Alcotest.(check bool) "full-set verifies" true (Rsa_acc.verify_mem_batch small_params ~ac ~xs ~witness:w_all);
  (* Singleton batch agrees with the plain witness. *)
  let x0 = List.hd xs in
  Alcotest.(check bool) "singleton = mem_witness" true
    (Bigint.equal (Rsa_acc.batch_witness small_params xs [ x0 ]) (Rsa_acc.mem_witness small_params xs x0));
  Alcotest.check_raises "missing element" (Invalid_argument "Rsa_acc.batch_witness: element not in set")
    (fun () -> ignore (Rsa_acc.batch_witness small_params xs [ outsider ]))

let test_acc_non_membership () =
  let xs = primes_of 6 "nonmem" in
  let ac = Rsa_acc.accumulate small_params xs in
  let outsider = Prime_rep.to_prime "nonmem-outsider" in
  let w = Rsa_acc.non_mem_witness small_params xs outsider in
  Alcotest.(check bool) "non-member verifies" true
    (Rsa_acc.verify_non_mem small_params ~ac ~x:outsider ~witness:w);
  (* A member cannot get a non-membership witness. *)
  Alcotest.(check bool) "member rejected at creation" true
    (try ignore (Rsa_acc.non_mem_witness small_params xs (List.hd xs)); false
     with Invalid_argument _ -> true);
  (* The witness is bound to its element. *)
  let other = Prime_rep.to_prime "nonmem-other" in
  Alcotest.(check bool) "wrong element fails" false
    (Rsa_acc.verify_non_mem small_params ~ac ~x:other ~witness:w);
  (* Tampered witness components fail. *)
  let bad = { w with Rsa_acc.nw_d = Bigint.mod_mul w.Rsa_acc.nw_d Bigint.two small_params.Rsa_acc.modulus } in
  Alcotest.(check bool) "tampered d fails" false
    (Rsa_acc.verify_non_mem small_params ~ac ~x:outsider ~witness:bad);
  (* Empty set: everything is absent. *)
  let ac0 = Rsa_acc.accumulate small_params [] in
  let w0 = Rsa_acc.non_mem_witness small_params [] outsider in
  Alcotest.(check bool) "absent from empty set" true
    (Rsa_acc.verify_non_mem small_params ~ac:ac0 ~x:outsider ~witness:w0)

let test_acc_tampered_ac_fails () =
  let xs = primes_of 3 "t" in
  let ac = Rsa_acc.accumulate small_params xs in
  let bad_ac = Bigint.mod_mul ac Bigint.two small_params.Rsa_acc.modulus in
  let x = List.hd xs in
  let w = Rsa_acc.mem_witness small_params xs x in
  Alcotest.(check bool) "tampered Ac fails" false (Rsa_acc.verify_mem small_params ~ac:bad_ac ~x ~witness:w)

(* --- witness tree (persistent witness index) ---------------------------- *)

let test_wt_matches_rebuild () =
  (* Incremental appends with interleaved queries (so bases exist at
     many different generations) must agree with a from-scratch
     all_witnesses rebuild and the direct accumulation. *)
  let batches = [ primes_of 3 "wt-a"; primes_of 1 "wt-b"; primes_of 5 "wt-c"; primes_of 2 "wt-d" ] in
  let wt = Witness_tree.create small_params in
  List.iter
    (fun batch ->
      Witness_tree.append wt batch;
      (* Touch one element so its cached base goes stale on the next append. *)
      ignore (Witness_tree.witness wt (List.hd batch)))
    batches;
  let all = List.concat batches in
  Alcotest.(check int) "leaf count" (List.length all) (Witness_tree.leaf_count wt);
  Alcotest.(check bool) "ac matches accumulate" true
    (Bigint.equal (Witness_tree.ac wt) (Rsa_acc.accumulate small_params all));
  List.iter2
    (fun x (x', w_rebuild) ->
      Alcotest.(check bool) "rebuild order" true (Bigint.equal x x');
      match Witness_tree.witness wt x with
      | None -> Alcotest.fail "member prime missing from index"
      | Some w -> Alcotest.(check bool) "witness = all_witnesses" true (Bigint.equal w w_rebuild))
    all
    (Rsa_acc.all_witnesses small_params all);
  Alcotest.(check bool) "non-member misses" true (Witness_tree.witness wt (Prime_rep.to_prime "wt-outsider") = None)

let test_wt_warm_all () =
  let xs = primes_of 11 "wt-warm" in
  let wt = Witness_tree.create small_params in
  Witness_tree.append wt xs;
  Witness_tree.warm_all wt;
  let stats = Witness_tree.stats wt in
  Alcotest.(check int) "all leaves cached" (List.length xs) stats.Witness_tree.ws_cached;
  Alcotest.(check int) "all leaves fresh" (List.length xs) stats.Witness_tree.ws_fresh;
  List.iter2
    (fun x (_, w_rebuild) ->
      match Witness_tree.witness wt x with
      | None -> Alcotest.fail "missing after warm_all"
      | Some w -> Alcotest.(check bool) "warm witness identical" true (Bigint.equal w w_rebuild))
    xs
    (Rsa_acc.all_witnesses small_params xs);
  (* Every query after warm_all must be a pure cache hit. *)
  let stats' = Witness_tree.stats wt in
  Alcotest.(check int) "queries were hits" (List.length xs) (stats'.Witness_tree.ws_hits - stats.Witness_tree.ws_hits);
  Alcotest.(check int) "no refresh after warm" stats.Witness_tree.ws_refreshes stats'.Witness_tree.ws_refreshes

let test_wt_batch_witness () =
  let xs = primes_of 8 "wt-batch" in
  let wt = Witness_tree.create small_params in
  Witness_tree.append wt xs;
  let subset = [ List.nth xs 1; List.nth xs 4; List.nth xs 6 ] in
  Alcotest.(check bool) "batch = batch_witness" true
    (Bigint.equal (Witness_tree.batch_witness wt subset) (Rsa_acc.batch_witness small_params xs subset));
  Alcotest.(check bool) "singleton = mem_witness" true
    (Bigint.equal (Witness_tree.batch_witness wt [ List.hd xs ]) (Rsa_acc.mem_witness small_params xs (List.hd xs)));
  Alcotest.(check bool) "empty subset = Ac" true
    (Bigint.equal (Witness_tree.batch_witness wt []) (Rsa_acc.accumulate small_params xs));
  Alcotest.(check bool) "full set = g" true
    (Bigint.equal (Witness_tree.batch_witness wt xs) small_params.Rsa_acc.generator);
  Alcotest.check_raises "missing element" (Invalid_argument "Rsa_acc.batch_witness: element not in set")
    (fun () -> ignore (Witness_tree.batch_witness wt [ Prime_rep.to_prime "wt-batch-outsider" ]));
  (* Duplicates: both in the multiset and in the subset (the division
     fallback path), mirroring batch_witness's multiset semantics. *)
  let dup = List.hd xs in
  let multiset = xs @ [ dup ] in
  let wt2 = Witness_tree.create small_params in
  Witness_tree.append wt2 multiset;
  Alcotest.(check bool) "duplicate subset = batch_witness" true
    (Bigint.equal (Witness_tree.batch_witness wt2 [ dup; dup ])
       (Rsa_acc.batch_witness small_params multiset [ dup; dup ]));
  Alcotest.(check bool) "subset over multiset = batch_witness" true
    (Bigint.equal (Witness_tree.batch_witness wt2 subset)
       (Rsa_acc.batch_witness small_params multiset subset))

let test_wt_export_absorb () =
  let batches = [ primes_of 6 "wt-snap"; primes_of 3 "wt-snap2" ] in
  let all = List.concat batches in
  let wt = Witness_tree.create small_params in
  List.iter (Witness_tree.append wt) batches;
  Witness_tree.warm_all wt;
  let blob = Witness_tree.export wt in
  (* Restore: rebuild products from the primes, graft the witnesses. *)
  let wt' = Witness_tree.create small_params in
  Witness_tree.append wt' all;
  (match Witness_tree.absorb wt' blob with
   | Some n -> Alcotest.(check int) "all leaves absorbed" (List.length all) n
   | None -> Alcotest.fail "export blob rejected");
  let before = Witness_tree.stats wt' in
  List.iter
    (fun x ->
      match (Witness_tree.witness wt x, Witness_tree.witness wt' x) with
      | Some w, Some w' -> Alcotest.(check bool) "restored witness identical" true (Bigint.equal w w')
      | _ -> Alcotest.fail "missing witness after restore")
    all;
  let after = Witness_tree.stats wt' in
  Alcotest.(check int) "restored tree served without cold recompute" before.Witness_tree.ws_cold
    after.Witness_tree.ws_cold;
  Alcotest.(check bool) "garbage blob rejected" true (Witness_tree.absorb wt' "not-a-snapshot" = None)

(* --- Merkle tree -------------------------------------------------------- *)

let test_merkle_roundtrip () =
  let leaves = List.init 7 (fun i -> Printf.sprintf "leaf-%d" i) in
  let t = Merkle.build leaves in
  Alcotest.(check int) "leaf count" 7 (Merkle.leaf_count t);
  List.iteri
    (fun i leaf ->
      let proof = Merkle.prove t i in
      Alcotest.(check bool) (Printf.sprintf "proof %d" i) true (Merkle.verify ~root:(Merkle.root t) ~leaf proof))
    leaves

let test_merkle_rejects () =
  let t = Merkle.build [ "a"; "b"; "c"; "d" ] in
  let proof = Merkle.prove t 1 in
  Alcotest.(check bool) "wrong leaf" false (Merkle.verify ~root:(Merkle.root t) ~leaf:"z" proof);
  let t2 = Merkle.build [ "a"; "b"; "c"; "e" ] in
  Alcotest.(check bool) "wrong root" false (Merkle.verify ~root:(Merkle.root t2) ~leaf:"b" proof)

let test_merkle_single_and_empty () =
  let t1 = Merkle.build [ "only" ] in
  Alcotest.(check bool) "single leaf" true
    (Merkle.verify ~root:(Merkle.root t1) ~leaf:"only" (Merkle.prove t1 0));
  let t0 = Merkle.build [] in
  Alcotest.(check int) "empty count" 0 (Merkle.leaf_count t0);
  Alcotest.(check int) "root is 32 bytes" 32 (String.length (Merkle.root t0))

let test_merkle_out_of_bounds () =
  let t = Merkle.build [ "a" ] in
  Alcotest.check_raises "oob" (Invalid_argument "Merkle.prove: index out of bounds") (fun () ->
      ignore (Merkle.prove t 1))

(* --- trapdoor permutation ----------------------------------------------- *)

let tdp_keys = Rsa_tdp.keygen ~bits:256 ~rng:(Drbg.create ~seed:"tdp-params") ()

let test_tdp_roundtrip () =
  let pk, sk = tdp_keys in
  let r = rng () in
  for _ = 1 to 10 do
    let x = Drbg.uniform_bigint r pk.Rsa_tdp.pn in
    Alcotest.(check bool) "pk(sk^-1(x)) = x" true (Bigint.equal x (Rsa_tdp.forward pk (Rsa_tdp.inverse sk x)));
    Alcotest.(check bool) "sk^-1(pk(x)) = x" true (Bigint.equal x (Rsa_tdp.inverse sk (Rsa_tdp.forward pk x)))
  done

let test_tdp_bytes_roundtrip () =
  let pk, sk = tdp_keys in
  let r = rng () in
  let t0 = Rsa_tdp.random_element ~rng:r pk in
  Alcotest.(check int) "element width" (Rsa_tdp.element_bytes pk) (String.length t0);
  let advanced = Rsa_tdp.inverse_bytes sk pk t0 in
  Alcotest.(check string) "walk back" t0 (Rsa_tdp.forward_bytes pk advanced)

let test_tdp_chain () =
  (* The protocol's chain: owner goes backwards j times, cloud walks
     forward j times and recovers every past trapdoor. *)
  let pk, sk = tdp_keys in
  let r = rng () in
  let t0 = Rsa_tdp.random_element ~rng:r pk in
  let chain = List.fold_left (fun acc _ -> Rsa_tdp.inverse_bytes sk pk (List.hd acc) :: acc) [ t0 ] (List.init 5 Fun.id) in
  (* chain = [t5; t4; ...; t0]; walking forward from t5 must reproduce t4..t0. *)
  (match chain with
   | newest :: older ->
     let _ =
       List.fold_left
         (fun current expected ->
           let prev = Rsa_tdp.forward_bytes pk current in
           Alcotest.(check string) "chain step" expected prev;
           prev)
         newest older
     in
     ()
   | [] -> Alcotest.fail "chain empty")

(* --- properties ----------------------------------------------------------- *)

let props =
  [ prop "mset: concat = combine" gen_strings (fun xs ->
        let k = List.length xs / 2 in
        let l = List.filteri (fun i _ -> i < k) xs and r = List.filteri (fun i _ -> i >= k) xs in
        Mset_hash.equal (Mset_hash.of_list xs) (Mset_hash.combine (Mset_hash.of_list l) (Mset_hash.of_list r)));
    prop "mset: shuffle invariant" gen_strings (fun xs ->
        Mset_hash.equal (Mset_hash.of_list xs) (Mset_hash.of_list (List.rev xs)));
    prop "mset: add/remove cancel" gen_strings (fun xs ->
        let h = Mset_hash.of_list xs in
        Mset_hash.equal h (Mset_hash.remove (Mset_hash.add h "probe") "probe"));
    prop "prime_rep deterministic + prime" ~count:20 (QCheck2.Gen.string_size ~gen:QCheck2.Gen.printable (QCheck2.Gen.int_range 0 40))
      (fun s ->
        let x = Prime_rep.to_prime s in
        Primegen.is_prime_det x && Bigint.equal x (Prime_rep.to_prime s));
    prop "accumulator membership" ~count:10 (QCheck2.Gen.int_range 1 8) (fun n ->
        let xs = primes_of n (Printf.sprintf "p%d" n) in
        let ac = Rsa_acc.accumulate small_params xs in
        List.for_all
          (fun x -> Rsa_acc.verify_mem small_params ~ac ~x ~witness:(Rsa_acc.mem_witness small_params xs x))
          xs);
    prop "witness tree = from-scratch rebuild" ~count:15
      QCheck2.Gen.(list_size (int_range 1 5) (int_range 1 4))
      (fun batch_sizes ->
        (* Any interleaving of appends (with queries in between, so bases
           get stamped at many generations) serves exactly what a
           from-scratch all_witnesses rebuild computes. *)
        let wt = Witness_tree.create small_params in
        let all = ref [] in
        List.iteri
          (fun i n ->
            let batch = primes_of n (Printf.sprintf "wt-prop-%d-%d" i n) in
            Witness_tree.append wt batch;
            all := !all @ batch;
            ignore (Witness_tree.witness wt (List.hd batch)))
          batch_sizes;
        Bigint.equal (Witness_tree.ac wt) (Rsa_acc.accumulate small_params !all)
        && List.for_all2
             (fun x (_, w) ->
               match Witness_tree.witness wt x with
               | Some w' -> Bigint.equal w w'
               | None -> false)
             !all
             (Rsa_acc.all_witnesses small_params !all));
    prop "merkle proofs verify" ~count:30 (QCheck2.Gen.int_range 1 40) (fun n ->
        let leaves = List.init n (fun i -> Printf.sprintf "L%d" i) in
        let t = Merkle.build leaves in
        List.for_all
          (fun i -> Merkle.verify ~root:(Merkle.root t) ~leaf:(List.nth leaves i) (Merkle.prove t i))
          (List.init n Fun.id));
    (prop "merkle proof survives codec, corruption always fails closed" ~count:200
       QCheck2.Gen.(
         tup4 (int_range 2 32) (int_range 0 1000) (int_range 0 2) (int_range 0 10_000))
       (fun (n, pick, mode, bits) ->
         let leaves = List.init n (fun i -> Printf.sprintf "leaf-%d-payload" i) in
         let t = Merkle.build leaves in
         let root = Merkle.root t in
         let i = pick mod n in
         let leaf = List.nth leaves i in
         let proof = Merkle.prove t i in
         let codec_ok =
           match Merkle.proof_of_bytes (Merkle.proof_to_bytes proof) with
           | Some p -> p = proof && Merkle.verify ~root ~leaf p
           | None -> false
         in
         (* One targeted corruption — a flipped bit in the leaf bytes, a
            flipped bit in one path sibling, or a shifted index — must
            make verification return [false], never raise. *)
         let flip_bit s k =
           let b = Bytes.of_string s in
           let byte = k / 8 mod Bytes.length b in
           Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (k mod 8))));
           Bytes.to_string b
         in
         let corrupt_verifies =
           match mode with
           | 0 -> Merkle.verify ~root ~leaf:(flip_bit leaf bits) proof
           | 1 when proof.Merkle.path <> [] ->
             let target = bits mod List.length proof.Merkle.path in
             let path =
               List.mapi
                 (fun j (h, side) -> if j = target then (flip_bit h bits, side) else (h, side))
                 proof.Merkle.path
             in
             Merkle.verify ~root ~leaf { proof with Merkle.path }
           | 1 -> false (* single-leaf tree: no siblings to corrupt *)
           | _ ->
             let index = (proof.Merkle.index + 1 + (bits mod (n - 1))) mod n in
             Merkle.verify ~root ~leaf { proof with Merkle.index }
         in
         codec_ok && not corrupt_verifies))
  ]

let () =
  Alcotest.run "ads"
    [ ( "mset_hash",
        [ Alcotest.test_case "identity" `Quick test_mset_identity;
          Alcotest.test_case "order independent" `Quick test_mset_order_independent;
          Alcotest.test_case "multiplicity" `Quick test_mset_multiplicity;
          Alcotest.test_case "union homomorphism" `Quick test_mset_union_homomorphism;
          Alcotest.test_case "remove" `Quick test_mset_remove;
          Alcotest.test_case "bytes" `Quick test_mset_bytes;
          Alcotest.test_case "distinct" `Quick test_mset_distinct ] );
      ( "prime_rep",
        [ Alcotest.test_case "prime" `Quick test_prime_rep_prime;
          Alcotest.test_case "deterministic" `Quick test_prime_rep_deterministic;
          Alcotest.test_case "distinct" `Quick test_prime_rep_distinct;
          Alcotest.test_case "512-input golden" `Quick test_prime_rep_golden ] );
      ( "rsa_acc",
        [ Alcotest.test_case "member verifies" `Quick test_acc_member_verifies;
          Alcotest.test_case "non-member fails" `Quick test_acc_nonmember_fails;
          Alcotest.test_case "wrong witness fails" `Quick test_acc_wrong_witness_fails;
          Alcotest.test_case "order independent" `Quick test_acc_order_independent;
          Alcotest.test_case "incremental add" `Quick test_acc_incremental_add;
          Alcotest.test_case "all_witnesses" `Quick test_acc_all_witnesses;
          Alcotest.test_case "batch witness" `Quick test_acc_batch_witness;
          Alcotest.test_case "non-membership" `Quick test_acc_non_membership;
          Alcotest.test_case "tampered Ac" `Quick test_acc_tampered_ac_fails ] );
      ( "witness_tree",
        [ Alcotest.test_case "matches rebuild" `Quick test_wt_matches_rebuild;
          Alcotest.test_case "warm_all" `Quick test_wt_warm_all;
          Alcotest.test_case "batch witness" `Quick test_wt_batch_witness;
          Alcotest.test_case "export/absorb" `Quick test_wt_export_absorb ] );
      ( "merkle",
        [ Alcotest.test_case "roundtrip" `Quick test_merkle_roundtrip;
          Alcotest.test_case "rejects" `Quick test_merkle_rejects;
          Alcotest.test_case "single and empty" `Quick test_merkle_single_and_empty;
          Alcotest.test_case "out of bounds" `Quick test_merkle_out_of_bounds ] );
      ( "rsa_tdp",
        [ Alcotest.test_case "roundtrip" `Quick test_tdp_roundtrip;
          Alcotest.test_case "bytes roundtrip" `Quick test_tdp_bytes_roundtrip;
          Alcotest.test_case "chain walk" `Quick test_tdp_chain ] );
      ("properties", props) ]
