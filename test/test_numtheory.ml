(* Tests for the primality / prime-generation substrate. *)

let bi = Bigint.of_int
let rng () = Drbg.create ~seed:"numtheory-tests"

let prop name ?(count = 100) gen p =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen p)

(* --- sieve ------------------------------------------------------------ *)

let test_primes_below () =
  Alcotest.(check (list int)) "below 30" [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29 ] (Sieve.primes_below 30);
  Alcotest.(check (list int)) "below 2" [] (Sieve.primes_below 2);
  Alcotest.(check int) "count below 1000" 168 (List.length (Sieve.primes_below 1000))

let test_is_small_prime () =
  Alcotest.(check bool) "2" true (Sieve.is_small_prime 2);
  Alcotest.(check bool) "8191 (mersenne)" true (Sieve.is_small_prime 8191);
  Alcotest.(check bool) "1" false (Sieve.is_small_prime 1);
  Alcotest.(check bool) "0" false (Sieve.is_small_prime 0);
  Alcotest.(check bool) "4096" false (Sieve.is_small_prime 4096)

(* --- primality --------------------------------------------------------- *)

let known_primes =
  [ "2"; "3"; "5"; "104729"; "2147483647" (* 2^31-1 *);
    "162259276829213363391578010288127" (* 2^107-1 *);
    "170141183460469231731687303715884105727" (* 2^127-1 *) ]

let known_composites =
  [ "1"; "4"; "104730"; "2147483649";
    "561"; "41041"; "825265" (* Carmichael numbers *);
    "3825123056546413051" (* strong pseudoprime to bases 2,3,5 *);
    "170141183460469231731687303715884105725" ]

let test_probable_prime () =
  let r = rng () in
  List.iter
    (fun s -> Alcotest.(check bool) ("prime " ^ s) true (Primality.is_probable_prime ~rng:r (Bigint.of_string s)))
    known_primes;
  List.iter
    (fun s -> Alcotest.(check bool) ("composite " ^ s) false (Primality.is_probable_prime ~rng:r (Bigint.of_string s)))
    known_composites

let test_is_prime_det () =
  List.iter
    (fun s -> Alcotest.(check bool) ("prime " ^ s) true (Primegen.is_prime_det (Bigint.of_string s)))
    known_primes;
  List.iter
    (fun s -> Alcotest.(check bool) ("composite " ^ s) false (Primegen.is_prime_det (Bigint.of_string s)))
    known_composites

let test_det_matches_sieve () =
  (* Exhaustive agreement with the sieve on [0, 4000). *)
  for n = 0 to 3999 do
    if Primegen.is_prime_det (bi n) <> Sieve.is_small_prime n then
      Alcotest.failf "disagreement at %d" n
  done

(* --- Baillie–PSW ---------------------------------------------------------- *)

let psi13 = "3317044064679887385961981" (* = 1287836182261 × 2575672364521 *)

(* Strong pseudoprimes to base 2: the Lucas half must reject them. *)
let base2_pseudoprimes =
  [ "2047"; "3277"; "4033"; "3215031751"; "3825123056546413051"; "318665857834031151167461" ]

(* Strong Lucas pseudoprimes (Selfridge parameters): the base-2 half must
   reject them. *)
let lucas_pseudoprimes = [ 5459; 5777; 10877; 16109; 18971 ]

let first_13_bases = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41 ]

let strong_to_base n b = Primality.miller_rabin_base n ~base:(bi b)

(* The strong Lucas half on its own, from the public pieces: Selfridge's
   D by the Jacobi symbol, then the ladder. *)
let strong_lucas n =
  let rec find d = if Primality.jacobi d n = -1 then d else find (if d > 0 then -(d + 2) else 2 - d) in
  let d = find 5 in
  let rec split k s = if Bigint.is_even k then split (Bigint.shift_right k 1) (s + 1) else (k, s) in
  let k, s = split (Bigint.succ n) 0 in
  let q = (1 - d) / 4 in
  let ctx = Bigint.Mont.create n in
  let u, v, qk = Bigint.Mont.lucas ctx ~q k in
  let u, v, qk = (Bigint.Mont.of_mont ctx u, Bigint.Mont.of_mont ctx v, Bigint.Mont.of_mont ctx qk) in
  let rec doubling v qk r =
    Bigint.is_zero v
    || r < s - 1
       && doubling (Bigint.erem (Bigint.sub (Bigint.mul v v) (Bigint.mul_int qk 2)) n)
            (Bigint.erem (Bigint.mul qk qk) n) (r + 1)
  in
  Bigint.is_zero u || doubling v qk 0

let test_bpsw_psi13 () =
  let n = Bigint.of_string psi13 in
  Alcotest.(check bool) "psi13 = 1287836182261 * 2575672364521" true
    (Bigint.equal n (Bigint.mul (Bigint.of_string "1287836182261") (Bigint.of_string "2575672364521")));
  Alcotest.(check bool) "psi13 fools all 13 first-prime Miller-Rabin bases" true
    (List.for_all (strong_to_base n) first_13_bases);
  Alcotest.(check bool) "baillie_psw rejects psi13" false (Primality.baillie_psw n);
  Alcotest.(check bool) "is_prime_det rejects psi13" false (Primegen.is_prime_det n)

let test_bpsw_pseudoprimes () =
  List.iter
    (fun s ->
      let n = Bigint.of_string s in
      Alcotest.(check bool) (s ^ " is a strong pseudoprime to base 2") true (strong_to_base n 2);
      Alcotest.(check bool) (s ^ " rejected") false (Primality.baillie_psw n))
    base2_pseudoprimes;
  List.iter
    (fun v ->
      let n = bi v in
      Alcotest.(check bool) (Printf.sprintf "%d is a strong Lucas pseudoprime" v) true (strong_lucas n);
      Alcotest.(check bool) (Printf.sprintf "%d rejected" v) false (Primality.baillie_psw n))
    lucas_pseudoprimes

let test_bpsw_squares () =
  (* No D with (D/n) = -1 exists for a square: without the guard the
     Selfridge search would never end. 1093² and 3511² are also strong
     pseudoprimes to base 2, so only the guard stands between them and
     a wrong verdict. *)
  let f65537 = Bigint.mul (bi 65537) (bi 65537) in
  Alcotest.(check bool) "65537^2 is a square" true (Primality.is_square f65537);
  Alcotest.(check bool) "65537^2 rejected" false (Primality.baillie_psw f65537);
  Alcotest.(check bool) "65537^2 rejected by is_prime_det" false (Primegen.is_prime_det f65537);
  List.iter
    (fun p ->
      let n = Bigint.mul (bi p) (bi p) in
      Alcotest.(check bool) (Printf.sprintf "%d^2 strong to base 2" p) true (strong_to_base n 2);
      Alcotest.(check bool) (Printf.sprintf "%d^2 rejected" p) false (Primality.baillie_psw n))
    [ 1093; 3511 ];
  Alcotest.(check bool) "65537^2 + 2 is not a square" false
    (Primality.is_square (Bigint.add f65537 Bigint.two))

let test_bpsw_matches_sieve () =
  for n = 0 to 8191 do
    if Primality.baillie_psw (bi n) <> Sieve.is_small_prime n then
      Alcotest.failf "baillie_psw disagrees with the sieve at %d" n
  done

let test_jacobi () =
  (* Euler's criterion on odd primes: (d/p) = d^((p-1)/2) mod p. *)
  List.iter
    (fun p ->
      List.iter
        (fun d ->
          let e = Bigint.mod_pow (bi d) (bi ((p - 1) / 2)) (bi p) in
          let expected = if Bigint.is_zero e then 0 else if Bigint.equal e Bigint.one then 1 else -1 in
          Alcotest.(check int) (Printf.sprintf "(%d/%d)" d p) expected (Primality.jacobi d (bi p)))
        [ 5; -7; 9; -11; 13; -15; 17; -1; 1; 3; -3 ])
    [ 3; 5; 7; 11; 13; 8191; 104729 ]

let test_next_prime () =
  let check n expected =
    Alcotest.(check string) (Printf.sprintf "next_prime %d" n) (string_of_int expected)
      (Bigint.to_string (Primegen.next_prime (bi n)))
  in
  check 0 2;
  check 2 2;
  check 3 3;
  check 4 5;
  check 14 17;
  check 8190 8191;
  check 524288 524309;
  Alcotest.(check string) "next_prime 2^64"
    "18446744073709551629"
    (Bigint.to_string (Primegen.next_prime (Bigint.of_string "18446744073709551616")))

let test_random_prime () =
  let r = rng () in
  List.iter
    (fun bits ->
      let p = Primegen.random_prime ~rng:r ~bits in
      Alcotest.(check int) (Printf.sprintf "%d-bit width" bits) bits (Bigint.num_bits p);
      Alcotest.(check bool) "is prime" true (Primegen.is_prime_det p))
    [ 16; 32; 64; 128; 256 ]

let test_random_safe_prime () =
  let r = rng () in
  let p = Primegen.random_safe_prime ~rng:r ~bits:48 in
  let q = Bigint.shift_right (Bigint.pred p) 1 in
  Alcotest.(check bool) "p prime" true (Primegen.is_prime_det p);
  Alcotest.(check bool) "(p-1)/2 prime" true (Primegen.is_prime_det q);
  Alcotest.(check int) "width" 48 (Bigint.num_bits p)

let test_rsa_modulus () =
  let r = rng () in
  let m = Primegen.random_rsa_modulus ~rng:r ~bits:256 () in
  Alcotest.(check bool) "n = p*q" true (Bigint.equal m.Primegen.n (Bigint.mul m.Primegen.p m.Primegen.q));
  Alcotest.(check bool) "p <> q" false (Bigint.equal m.Primegen.p m.Primegen.q);
  Alcotest.(check bool) "phi" true
    (Bigint.equal m.Primegen.phi (Bigint.mul (Bigint.pred m.Primegen.p) (Bigint.pred m.Primegen.q)));
  (* Euler: a^phi = 1 mod n for gcd(a, n) = 1. *)
  Alcotest.(check bool) "euler" true
    (Bigint.equal Bigint.one (Bigint.mod_pow (bi 7) m.Primegen.phi m.Primegen.n))

(* --- properties --------------------------------------------------------- *)

let props =
  [ prop "next_prime is prime and >= n" (QCheck2.Gen.int_range 0 1_000_000) (fun n ->
        let p = Primegen.next_prime (bi n) in
        Primegen.is_prime_det p && Bigint.compare p (bi n) >= 0);
    prop "no prime skipped by next_prime" ~count:50 (QCheck2.Gen.int_range 2 7000) (fun n ->
        (* next_prime n <= the sieve's smallest prime >= n. *)
        let p = Bigint.to_int_exn (Primegen.next_prime (bi n)) in
        let rec sieve_next m = if m >= 8192 then p else if Sieve.is_small_prime m then m else sieve_next (m + 1) in
        p = sieve_next n);
    prop "baillie_psw agrees with trial division below 2^32" ~count:1000
      (QCheck2.Gen.int_range 0 ((1 lsl 31) - 1))
      (fun h ->
        let n = (2 * h) + 1 in
        let rec trial d = d * d > n || (n mod d <> 0 && trial (d + 2)) in
        Primality.baillie_psw (bi n) = (n > 2 && trial 3));
    prop "fermat holds for generated primes" ~count:10 (QCheck2.Gen.int_range 20 80) (fun bits ->
        let r = Drbg.create ~seed:(string_of_int bits) in
        let p = Primegen.random_prime ~rng:r ~bits in
        Bigint.equal Bigint.one (Bigint.mod_pow Bigint.two (Bigint.pred p) p))
  ]

let () =
  Alcotest.run "numtheory"
    [ ( "sieve",
        [ Alcotest.test_case "primes_below" `Quick test_primes_below;
          Alcotest.test_case "is_small_prime" `Quick test_is_small_prime ] );
      ( "primality",
        [ Alcotest.test_case "probable prime" `Quick test_probable_prime;
          Alcotest.test_case "deterministic" `Quick test_is_prime_det;
          Alcotest.test_case "matches sieve" `Quick test_det_matches_sieve ] );
      ( "baillie_psw",
        [ Alcotest.test_case "psi13 rejected" `Quick test_bpsw_psi13;
          Alcotest.test_case "base-2 and Lucas pseudoprimes" `Quick test_bpsw_pseudoprimes;
          Alcotest.test_case "squares terminate" `Quick test_bpsw_squares;
          Alcotest.test_case "matches sieve below 8192" `Quick test_bpsw_matches_sieve;
          Alcotest.test_case "jacobi symbol" `Quick test_jacobi ] );
      ( "primegen",
        [ Alcotest.test_case "next_prime" `Quick test_next_prime;
          Alcotest.test_case "random prime" `Quick test_random_prime;
          Alcotest.test_case "safe prime" `Slow test_random_safe_prime;
          Alcotest.test_case "rsa modulus" `Quick test_rsa_modulus ] );
      ("properties", props) ]
