(* Known-answer tests (FIPS 180-4, RFC 4231, FIPS 197) and properties for
   the crypto substrate. *)

let hex = Bytesutil.of_hex

let check_hex msg expected actual =
  Alcotest.(check string) msg expected (Bytesutil.to_hex actual)

let prop name ?(count = 200) gen p =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen p)

let gen_bytes ?(max_len = 200) () =
  let open QCheck2.Gen in
  let* n = int_range 0 max_len in
  map (fun l -> String.init (List.length l) (List.nth l)) (list_size (return n) (map Char.chr (int_range 0 255)))

let gen_block = QCheck2.Gen.map (fun s -> s) (gen_bytes ~max_len:0 ())

(* --- Bytesutil ------------------------------------------------------ *)

let test_hex_roundtrip () =
  Alcotest.(check string) "hex" "00ff10" (Bytesutil.to_hex "\x00\xff\x10");
  Alcotest.(check string) "unhex" "\x00\xff\x10" (Bytesutil.of_hex "00ff10");
  Alcotest.check_raises "odd" (Invalid_argument "Bytesutil.of_hex: odd length") (fun () ->
      ignore (Bytesutil.of_hex "abc"))

let test_xor () =
  Alcotest.(check string) "xor" "\x01\x01" (Bytesutil.xor "\x00\xff" "\x01\xfe");
  Alcotest.(check string) "self-inverse" "ab" (Bytesutil.xor (Bytesutil.xor "ab" "xy") "xy")

let test_const_equal () =
  Alcotest.(check bool) "eq" true (Bytesutil.const_equal "abc" "abc");
  Alcotest.(check bool) "neq" false (Bytesutil.const_equal "abc" "abd");
  Alcotest.(check bool) "len" false (Bytesutil.const_equal "abc" "ab")

let test_concat_injective () =
  (* ("ab","c") and ("a","bc") must encode differently. *)
  Alcotest.(check bool) "no collision" false
    (String.equal (Bytesutil.concat [ "ab"; "c" ]) (Bytesutil.concat [ "a"; "bc" ]))

(* --- SHA-256 (FIPS 180-4 + NIST CAVS vectors) ----------------------- *)

let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" (Sha256.digest "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" (Sha256.digest "abc");
  check_hex "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest (String.make 1_000_000 'a'));
  (* Lengths around the 55/56/64-byte padding boundaries. *)
  check_hex "55 bytes"
    "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"
    (Sha256.digest (String.make 55 'a'));
  check_hex "56 bytes"
    "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"
    (Sha256.digest (String.make 56 'a'));
  check_hex "64 bytes"
    "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
    (Sha256.digest (String.make 64 'a'))

let test_sha256_streaming () =
  let whole = Sha256.digest "hello streaming world" in
  let ctx = Sha256.init () in
  Sha256.update ctx "hello ";
  Sha256.update ctx "streaming";
  Sha256.update ctx " world";
  Alcotest.(check string) "streamed = one-shot" (Bytesutil.to_hex whole)
    (Bytesutil.to_hex (Sha256.finalize ctx))

let test_sha256_copy () =
  (* A copied context forks the stream: both sides must finalize to the
     digest of their own full input, independently. *)
  let ctx = Sha256.init () in
  Sha256.update ctx "common prefix|";
  let fork = Sha256.copy ctx in
  Sha256.update ctx "left";
  Sha256.update fork "right branch that is much longer than one block ";
  Sha256.update fork (String.make 100 'r');
  check_hex "left" (Bytesutil.to_hex (Sha256.digest "common prefix|left")) (Sha256.finalize ctx);
  check_hex "right"
    (Bytesutil.to_hex
       (Sha256.digest
          ("common prefix|right branch that is much longer than one block " ^ String.make 100 'r')))
    (Sha256.finalize fork)

let test_sha256_finalize_trunc () =
  let full = Sha256.digest "truncate me" in
  List.iter
    (fun n ->
      let ctx = Sha256.init () in
      Sha256.update ctx "truncate me";
      Alcotest.(check string)
        (Printf.sprintf "trunc %d" n)
        (Bytesutil.to_hex (String.sub full 0 n))
        (Bytesutil.to_hex (Sha256.finalize_trunc ctx n)))
    [ 1; 16; 31; 32 ];
  Alcotest.check_raises "trunc 0" (Invalid_argument "Sha256.finalize_trunc: need 1 <= n <= 32")
    (fun () -> ignore (Sha256.finalize_trunc (Sha256.init ()) 0))

(* The Obs counter sees every block compression: 1 KiB is 16 blocks
   plus the padding block. *)
let test_sha256_compression_counter () =
  let compressions f =
    let before = Obs.counter_value "slicer_sha256_compressions_total" in
    f ();
    Obs.counter_value "slicer_sha256_compressions_total" - before
  in
  Alcotest.(check int) "1 KiB" 17
    (compressions (fun () -> ignore (Sha256.digest (String.make 1024 'x'))));
  Alcotest.(check int) "1 KiB streamed in odd pieces" 17
    (compressions (fun () ->
         let ctx = Sha256.init () in
         Sha256.update ctx (String.make 100 'x');
         Sha256.update ctx (String.make 924 'x');
         ignore (Sha256.finalize ctx)));
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int) (Printf.sprintf "%d bytes" n) expected
        (compressions (fun () -> ignore (Sha256.digest (String.make n 'x')))))
    [ (0, 1); (55, 1); (56, 2); (64, 2); (119, 2); (120, 3) ]

(* --- HMAC-SHA256 (RFC 4231) ----------------------------------------- *)

let test_hmac_vectors () =
  (* RFC 4231 test case 1 *)
  check_hex "tc1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.sha256 ~key:(String.make 20 '\x0b') "Hi There");
  (* test case 2 *)
  check_hex "tc2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.sha256 ~key:"Jefe" "what do ya want for nothing?");
  (* test case 3 *)
  check_hex "tc3" "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.sha256 ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'));
  (* test case 4 *)
  check_hex "tc4" "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
    (Hmac.sha256
       ~key:(hex "0102030405060708090a0b0c0d0e0f10111213141516171819")
       (String.make 50 '\xcd'));
  (* test case 6: key longer than the block size *)
  check_hex "tc6" "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.sha256 ~key:(String.make 131 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First");
  (* truncated PRF variant *)
  Alcotest.(check int) "prf128 length" 16 (String.length (Hmac.prf128 ~key:"k" "m"))

(* The same RFC 4231 vectors through a reusable keyed context — and the
   context must stay reusable: evaluating other messages in between must
   not perturb later tags. *)
let test_hmac_keyed_vectors () =
  let cases =
    [ ( String.make 20 '\x0b',
        "Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
      ( "Jefe",
        "what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" );
      ( String.make 20 '\xaa',
        String.make 50 '\xdd',
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
      ( String.make 131 '\xaa',
        "Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" ) ]
  in
  List.iter
    (fun (key, msg, expected) ->
      let kd = Hmac.create ~key in
      check_hex "keyed tc" expected (Hmac.sha256_keyed kd msg);
      ignore (Hmac.sha256_keyed kd "interleaved message");
      ignore (Hmac.prf128_keyed kd "another");
      check_hex "keyed tc repeat" expected (Hmac.sha256_keyed kd msg);
      check_hex "keyed prf128 = prefix" (Bytesutil.to_hex (String.sub (Bytesutil.of_hex expected) 0 16))
        (Hmac.prf128_keyed kd msg))
    cases

(* --- AES-128 (FIPS 197 appendix + NIST SP 800-38A) ------------------ *)

(* Appendix C.1's AES-128 example, and Appendix B's cipher example
   traced round by round, in both directions. *)
let test_aes_fips197 () =
  List.iter
    (fun (name, key, pt, ct) ->
      let key = Aes128.expand (hex key) in
      check_hex (name ^ " encrypt") ct (Aes128.encrypt_block key (hex pt));
      check_hex (name ^ " decrypt") pt (Aes128.decrypt_block key (hex ct)))
    [ ("C.1", "000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
       "69c4e0d86a7b0430d8cdb78070b4c55a");
      ("B", "2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
       "3925841d02dc09fbdc118597196a0b32") ]

(* F.1.1 encrypts the four blocks; F.1.2 decrypts them back. *)
let test_aes_sp80038a_ecb () =
  let key = Aes128.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let blocks =
    [ ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97");
      ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf");
      ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688");
      ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4") ]
  in
  List.iter
    (fun (pt, ct) ->
      check_hex ("F.1.1 " ^ pt) ct (Aes128.encrypt_block key (hex pt));
      check_hex ("F.1.2 " ^ ct) pt (Aes128.decrypt_block key (hex ct)))
    blocks

let test_aes_sp80038a_ctr () =
  let key = Aes128.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let nonce = hex "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
  let pt =
    hex
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
  in
  let expected =
    "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee"
  in
  check_hex "ctr" expected (Aes128.ctr_encrypt key ~nonce pt)

let test_aes_string_padding () =
  let key = Aes128.expand (String.make 16 'k') in
  List.iter
    (fun s ->
      let ct = Aes128.encrypt_string key s in
      Alcotest.(check int) "one block" 16 (String.length ct);
      Alcotest.(check string) ("roundtrip " ^ s) s (Aes128.decrypt_string key ct))
    [ ""; "a"; "record-7"; String.make 15 'x' ];
  Alcotest.check_raises "too long" (Invalid_argument "Aes128.encrypt_string: at most 15 bytes")
    (fun () -> ignore (Aes128.encrypt_string key (String.make 16 'y')))

(* --- DRBG ------------------------------------------------------------ *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:"seed-1" and b = Drbg.create ~seed:"seed-1" in
  Alcotest.(check string) "same seed, same stream"
    (Bytesutil.to_hex (Drbg.generate a 64))
    (Bytesutil.to_hex (Drbg.generate b 64));
  let c = Drbg.create ~seed:"seed-2" in
  Alcotest.(check bool) "different seed, different stream" false
    (String.equal (Drbg.generate (Drbg.create ~seed:"seed-1") 64) (Drbg.generate c 64))

let test_drbg_reseed () =
  let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
  Drbg.reseed a "extra";
  Alcotest.(check bool) "reseed diverges" false
    (String.equal (Drbg.generate a 32) (Drbg.generate b 32))

let test_uniform_int_range () =
  let rng = Drbg.create ~seed:"u" in
  for _ = 1 to 500 do
    let v = Drbg.uniform_int rng 7 in
    if v < 0 || v >= 7 then Alcotest.fail "out of range"
  done;
  Alcotest.(check int) "bound 1" 0 (Drbg.uniform_int rng 1)

let test_bits_width () =
  let rng = Drbg.create ~seed:"b" in
  List.iter
    (fun n -> Alcotest.(check int) (Printf.sprintf "%d bits" n) n (Bigint.num_bits (Drbg.bits rng n)))
    [ 1; 2; 8; 31; 32; 64; 127; 256 ]

(* --- properties ------------------------------------------------------ *)

let props =
  [ prop "hex roundtrip" (gen_bytes ()) (fun s -> String.equal s (Bytesutil.of_hex (Bytesutil.to_hex s)));
    prop "xor involutive" (QCheck2.Gen.pair (gen_bytes ~max_len:64 ()) (gen_bytes ~max_len:64 ()))
      (fun (a, b) ->
        let n = Stdlib.min (String.length a) (String.length b) in
        let a = String.sub a 0 n and b = String.sub b 0 n in
        String.equal a (Bytesutil.xor (Bytesutil.xor a b) b));
    prop "sha256 streaming split-invariant" (QCheck2.Gen.pair (gen_bytes ~max_len:300 ()) (QCheck2.Gen.int_range 0 300))
      (fun (s, k) ->
        let k = Stdlib.min k (String.length s) in
        let ctx = Sha256.init () in
        Sha256.update ctx (String.sub s 0 k);
        Sha256.update ctx (String.sub s k (String.length s - k));
        String.equal (Sha256.finalize ctx) (Sha256.digest s));
    (* incremental (random 3-way split), one-shot, and copied-context
       digests must all agree. *)
    prop "sha256 incremental/one-shot/copy agree"
      (QCheck2.Gen.triple (gen_bytes ~max_len:300 ()) (QCheck2.Gen.int_range 0 300) (QCheck2.Gen.int_range 0 300))
      (fun (s, i, j) ->
        let n = String.length s in
        let i = Stdlib.min i n in
        let j = Stdlib.min (Stdlib.max i j) n in
        let ctx = Sha256.init () in
        Sha256.update ctx (String.sub s 0 i);
        let fork = Sha256.copy ctx in
        Sha256.update ctx (String.sub s i (j - i));
        Sha256.update ctx (String.sub s j (n - j));
        Sha256.update fork (String.sub s i (n - i));
        let d = Sha256.digest s in
        String.equal (Sha256.finalize ctx) d && String.equal (Sha256.finalize fork) d);
    prop "hmac keyed-context/one-shot/truncation agree"
      (QCheck2.Gen.pair (gen_bytes ~max_len:200 ()) (gen_bytes ~max_len:200 ()))
      (fun (key, msg) ->
        let kd = Hmac.create ~key in
        let tag = Hmac.sha256 ~key msg in
        String.equal (Hmac.sha256_keyed kd msg) tag
        && String.equal (Hmac.prf128_keyed kd msg) (String.sub tag 0 16)
        && String.equal (Hmac.prf128 ~key msg) (String.sub tag 0 16)
        (* a second evaluation under the same context is unperturbed *)
        && String.equal (Hmac.sha256_keyed kd msg) tag);
    prop "aes block roundtrip" (gen_bytes ~max_len:64 ()) (fun seed ->
        let key = Aes128.expand (Sha256.digest seed |> fun d -> String.sub d 0 16) in
        let block = String.sub (Sha256.digest ("b" ^ seed)) 0 16 in
        String.equal block (Aes128.decrypt_block key (Aes128.encrypt_block key block)));
    prop "aes ctr roundtrip" (gen_bytes ~max_len:200 ()) (fun msg ->
        let key = Aes128.expand (String.make 16 '\x42') in
        let nonce = String.make 16 '\x01' in
        String.equal msg (Aes128.ctr_encrypt key ~nonce (Aes128.ctr_encrypt key ~nonce msg)));
    prop "uniform_bigint below bound" (QCheck2.Gen.int_range 1 1_000_000) (fun b ->
        let rng = Drbg.create ~seed:(string_of_int b) in
        let bound = Bigint.of_int b in
        let v = Drbg.uniform_bigint rng bound in
        Bigint.sign v >= 0 && Bigint.compare v bound < 0)
  ]

let () =
  ignore gen_block;
  Alcotest.run "crypto"
    [ ( "bytesutil",
        [ Alcotest.test_case "hex" `Quick test_hex_roundtrip;
          Alcotest.test_case "xor" `Quick test_xor;
          Alcotest.test_case "const_equal" `Quick test_const_equal;
          Alcotest.test_case "concat injective" `Quick test_concat_injective ] );
      ( "sha256",
        [ Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "streaming" `Quick test_sha256_streaming;
          Alcotest.test_case "copy forks the stream" `Quick test_sha256_copy;
          Alcotest.test_case "finalize_trunc" `Quick test_sha256_finalize_trunc;
          Alcotest.test_case "compression counter" `Quick test_sha256_compression_counter ] );
      ( "hmac",
        [ Alcotest.test_case "RFC 4231" `Quick test_hmac_vectors;
          Alcotest.test_case "RFC 4231 keyed contexts" `Quick test_hmac_keyed_vectors ] );
      ( "aes128",
        [ Alcotest.test_case "FIPS 197" `Quick test_aes_fips197;
          Alcotest.test_case "SP 800-38A ECB" `Quick test_aes_sp80038a_ecb;
          Alcotest.test_case "SP 800-38A CTR" `Quick test_aes_sp80038a_ctr;
          Alcotest.test_case "string padding" `Quick test_aes_string_padding ] );
      ( "drbg",
        [ Alcotest.test_case "deterministic" `Quick test_drbg_deterministic;
          Alcotest.test_case "reseed" `Quick test_drbg_reseed;
          Alcotest.test_case "uniform_int range" `Quick test_uniform_int_range;
          Alcotest.test_case "bits width" `Quick test_bits_width ] );
      ("properties", props) ]
