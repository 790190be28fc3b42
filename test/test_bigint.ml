(* Unit and property tests for the arbitrary-precision integer substrate.
   Properties cross-check against native [int] arithmetic on small values
   and against algebraic identities on cryptographic-size values. *)

let bi = Bigint.of_int

let check_eq msg expected actual =
  Alcotest.(check string) msg (Bigint.to_string expected) (Bigint.to_string actual)

(* --- generators ---------------------------------------------------- *)

let gen_small = QCheck2.Gen.int_range (-1_000_000_000) 1_000_000_000

(* Random integer of up to [bits] bits, either sign. *)
let gen_big ?(bits = 512) () =
  let open QCheck2.Gen in
  let* nbytes = int_range 1 (bits / 8) in
  let* bytes_list = list_size (return nbytes) (int_range 0 255) in
  let* negative = bool in
  let s = String.init (List.length bytes_list) (fun i -> Char.chr (List.nth bytes_list i)) in
  let v = Bigint.of_bytes_be s in
  return (if negative then Bigint.neg v else v)

let gen_big_pos ?(bits = 512) () = QCheck2.Gen.map Bigint.abs (gen_big ~bits ())

let gen_big_pos_nonzero ?(bits = 512) () =
  QCheck2.Gen.map (fun x -> Bigint.add (Bigint.abs x) Bigint.one) (gen_big ~bits ())

let prop name ?(count = 300) gen p =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen p)

(* --- unit tests ----------------------------------------------------- *)

let test_of_to_int () =
  List.iter
    (fun n -> Alcotest.(check (option int)) "roundtrip" (Some n) (Bigint.to_int_opt (bi n)))
    [ 0; 1; -1; 42; -42; max_int; 1 lsl 40; -(1 lsl 40) ];
  Alcotest.(check string) "min_int" (string_of_int min_int) (Bigint.to_string (bi min_int))

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Bigint.to_string (Bigint.of_string s)))
    [ "0"; "1"; "-1"; "123456789012345678901234567890";
      "-99999999999999999999999999999999999999";
      "340282366920938463463374607431768211456" (* 2^128 *) ]

let test_hex () =
  Alcotest.(check string) "ff" "ff" (Bigint.to_hex (bi 255));
  Alcotest.(check string) "deadbeef" "deadbeef" (Bigint.to_hex (Bigint.of_hex "deadbeef"));
  Alcotest.(check string) "big"
    "123456789abcdef0123456789abcdef"
    (Bigint.to_hex (Bigint.of_hex "0123456789abcdef0123456789abcdef"));
  check_eq "hex value" (bi 255) (Bigint.of_hex "FF")

let test_bytes () =
  let x = Bigint.of_hex "0102030405060708090a" in
  Alcotest.(check string) "to_bytes" "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a" (Bigint.to_bytes_be x);
  check_eq "roundtrip" x (Bigint.of_bytes_be (Bigint.to_bytes_be x));
  Alcotest.(check string) "padded" "\x00\x00\xff" (Bigint.to_bytes_be ~len:3 (bi 255));
  Alcotest.(check string) "zero" "\x00" (Bigint.to_bytes_be Bigint.zero)

let test_arith_basics () =
  check_eq "add" (bi 579) (Bigint.add (bi 123) (bi 456));
  check_eq "sub neg" (bi (-333)) (Bigint.sub (bi 123) (bi 456));
  check_eq "mul" (bi 56088) (Bigint.mul (bi 123) (bi 456));
  check_eq "mul neg" (bi (-56088)) (Bigint.mul (bi (-123)) (bi 456));
  let big = Bigint.of_string "123456789012345678901234567890" in
  check_eq "square"
    (Bigint.of_string "15241578753238836750495351562536198787501905199875019052100")
    (Bigint.mul big big)

let test_divmod () =
  let q, r = Bigint.divmod (bi 17) (bi 5) in
  check_eq "q" (bi 3) q;
  check_eq "r" (bi 2) r;
  let q, r = Bigint.divmod (bi (-17)) (bi 5) in
  check_eq "negative dividend: q" (bi (-4)) q;
  check_eq "negative dividend: r" (bi 3) r;
  let q, r = Bigint.divmod (bi 17) (bi (-5)) in
  check_eq "negative divisor: q" (bi (-3)) q;
  check_eq "negative divisor: r" (bi 2) r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bigint.divmod Bigint.one Bigint.zero))

let test_divmod_large () =
  (* Exercise the Knuth-D path, including the rare add-back branch via
     divisors with a high top limb. *)
  let a = Bigint.of_string "340282366920938463463374607431768211455" in
  let b = Bigint.of_string "18446744073709551616" in
  let q, r = Bigint.divmod a b in
  check_eq "q" (Bigint.of_string "18446744073709551615") q;
  check_eq "r" (Bigint.of_string "18446744073709551615") r

let test_shift () =
  check_eq "shl" (bi 1024) (Bigint.shift_left Bigint.one 10);
  check_eq "shr" (bi 1) (Bigint.shift_right (bi 1024) 10);
  check_eq "shr to zero" Bigint.zero (Bigint.shift_right (bi 1024) 11);
  check_eq "cross-limb" (Bigint.of_string "4835703278458516698824704") (Bigint.shift_left Bigint.one 82)

let test_bits () =
  Alcotest.(check int) "num_bits 0" 0 (Bigint.num_bits Bigint.zero);
  Alcotest.(check int) "num_bits 1" 1 (Bigint.num_bits Bigint.one);
  Alcotest.(check int) "num_bits 255" 8 (Bigint.num_bits (bi 255));
  Alcotest.(check int) "num_bits 256" 9 (Bigint.num_bits (bi 256));
  Alcotest.(check bool) "testbit" true (Bigint.testbit (bi 5) 2);
  Alcotest.(check bool) "testbit" false (Bigint.testbit (bi 5) 1);
  Alcotest.(check bool) "even" true (Bigint.is_even (bi 4));
  Alcotest.(check bool) "odd" true (Bigint.is_odd (bi 5))

let test_pow () =
  check_eq "2^10" (bi 1024) (Bigint.pow Bigint.two 10);
  check_eq "x^0" Bigint.one (Bigint.pow (bi 7) 0);
  check_eq "3^40" (Bigint.of_string "12157665459056928801") (Bigint.pow (bi 3) 40)

let test_mod_pow () =
  check_eq "small" (bi 445) (Bigint.mod_pow (bi 4) (bi 13) (bi 497));
  (* Fermat: a^(p-1) = 1 mod p for prime p. *)
  let p = Bigint.of_string "162259276829213363391578010288127" (* 2^107-1, prime *) in
  check_eq "fermat" Bigint.one (Bigint.mod_pow (bi 3) (Bigint.pred p) p);
  (* Even modulus path. *)
  check_eq "even modulus" (bi 4) (Bigint.mod_pow (bi 2) (bi 10) (bi 60));
  check_eq "zero exponent" Bigint.one (Bigint.mod_pow (bi 12345) Bigint.zero (bi 997))

let test_mod_inv () =
  (match Bigint.mod_inv (bi 3) (bi 11) with
   | Some inv -> check_eq "3^-1 mod 11" (bi 4) inv
   | None -> Alcotest.fail "inverse must exist");
  Alcotest.(check bool) "no inverse" true (Bigint.mod_inv (bi 6) (bi 9) = None)

let test_knuth_add_back () =
  (* Dividends engineered around q*v with v's top limb at the base
     boundary exercise the rare add-back branch of Algorithm D. *)
  let v = Bigint.pred (Bigint.shift_left Bigint.one 93) (* 3 limbs of all-ones *) in
  List.iter
    (fun (qs, rs) ->
      let q = Bigint.of_string qs and r = Bigint.of_string rs in
      let a = Bigint.add (Bigint.mul q v) r in
      let q', r' = Bigint.divmod a v in
      check_eq "quotient" q q';
      check_eq "remainder" r r')
    [ ("1", "0"); ("2147483647", "1"); ("9903520314283042199192993791", "9903520314283042199192993790");
      ("123456789123456789", "0") ]

let test_error_paths () =
  Alcotest.check_raises "negative pow" (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
      ignore (Bigint.pow Bigint.two (-1)));
  Alcotest.check_raises "negative mod_pow exponent"
    (Invalid_argument "Bigint.mod_pow: negative exponent") (fun () ->
      ignore (Bigint.mod_pow Bigint.two Bigint.minus_one (bi 7)));
  Alcotest.check_raises "mod_pow modulus 1" (Invalid_argument "Bigint.mod_pow: modulus <= 1")
    (fun () -> ignore (Bigint.mod_pow Bigint.two Bigint.two Bigint.one));
  Alcotest.check_raises "to_bytes too small"
    (Invalid_argument "Bigint.to_bytes_be: value too large for len") (fun () ->
      ignore (Bigint.to_bytes_be ~len:1 (bi 65536)));
  Alcotest.check_raises "divmod_int zero" (Invalid_argument "Bigint.divmod_int: divisor out of range")
    (fun () -> ignore (Bigint.divmod_int Bigint.one 0));
  Alcotest.check_raises "negative shift" (Invalid_argument "Bigint.shift_left") (fun () ->
      ignore (Bigint.shift_left Bigint.one (-3)));
  (match Bigint.of_string "12x3" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "bad digit accepted")

let test_mod_pow_zero_base () =
  check_eq "0^e mod m" Bigint.zero (Bigint.mod_pow Bigint.zero (bi 5) (bi 97));
  check_eq "b = m" Bigint.zero (Bigint.mod_pow (bi 97) (bi 3) (bi 97));
  check_eq "b > m reduced" (bi 16) (Bigint.mod_pow (bi 100) (bi 2) (bi 96))

let test_gcd () =
  check_eq "gcd" (bi 6) (Bigint.gcd (bi 54) (bi 24));
  check_eq "gcd neg" (bi 6) (Bigint.gcd (bi (-54)) (bi 24));
  check_eq "gcd zero" (bi 7) (Bigint.gcd (bi 7) Bigint.zero)

(* --- properties ----------------------------------------------------- *)

let pair g1 g2 = QCheck2.Gen.pair g1 g2
let triple g1 g2 g3 = QCheck2.Gen.triple g1 g2 g3

(* Odd moduli for the Montgomery kernel, which packs 31-bit limbs into
   64-bit words: every bit length 31j, 64j and 64j + 1 up to
   [kernel_max_bits] is a packing boundary, and 2 bits is the smallest
   modulus, 3. *)
let kernel_max_bits = 2112

let boundary_bits =
  (2 :: List.init (kernel_max_bits / 31) (fun j -> 31 * (j + 1)))
  @ List.init (kernel_max_bits / 64) (fun j -> 64 * (j + 1))
  @ List.init (kernel_max_bits / 64) (fun j -> (64 * (j + 1)) + 1)
  |> List.filter (fun b -> b <= kernel_max_bits)
  |> List.sort_uniq compare |> Array.of_list

(* Run [2 * boundary_cases] cases to cover every boundary. *)
let boundary_cases = Array.length boundary_bits

(* An odd modulus of 2 to [kernel_max_bits] bits. Even-numbered cases
   step through [boundary_bits] in order, so every run of
   [2 * boundary_cases] cases covers all of them; odd-numbered cases
   take a random length. Each property builds its own generator. *)
let gen_kernel_modulus () =
  let case = ref 0 in
  let open QCheck2.Gen in
  let* random_bits = int_range 2 kernel_max_bits in
  let* bytes = string_size ~gen:char (return (kernel_max_bits / 8)) in
  let i = !case in
  incr case;
  let bits = if i land 1 = 0 then boundary_bits.(i / 2 mod boundary_cases) else random_bits in
  (* 2^(bits-1) + 2r + 1 with r < 2^(bits-2): odd, exactly [bits] bits. *)
  let r = Bigint.erem (Bigint.of_bytes_be bytes) (Bigint.shift_left Bigint.one (bits - 2)) in
  return
    (Bigint.add (Bigint.shift_left Bigint.one (bits - 1)) (Bigint.add (Bigint.mul_int r 2) Bigint.one))

(* A modulus with a base: 0, 1, m - 1, or random up to [kernel_max_bits]
   bits (often above m). *)
let gen_kernel_case () =
  let open QCheck2.Gen in
  let* m = gen_kernel_modulus () in
  let* b = oneof [ return Bigint.zero; return Bigint.one; return (Bigint.pred m); gen_big_pos ~bits:kernel_max_bits () ] in
  return (m, b)

(* --- product kernel ---------------------------------------------------- *)

(* A magnitude from little-endian 31-bit limbs, packed into big-endian
   bytes. *)
let of_limbs limbs =
  let nbytes = ((31 * Array.length limbs) + 7) / 8 in
  let b = Bytes.make nbytes '\000' in
  let acc = ref 0 and accbits = ref 0 and pos = ref (nbytes - 1) in
  Array.iter
    (fun l ->
      acc := !acc lor (l lsl !accbits);
      accbits := !accbits + 31;
      while !accbits >= 8 do
        Bytes.set b !pos (Char.chr (!acc land 0xff));
        acc := !acc lsr 8;
        accbits := !accbits - 8;
        decr pos
      done)
    limbs;
  if !accbits > 0 then Bytes.set b !pos (Char.chr !acc);
  Bigint.of_bytes_be (Bytes.to_string b)

let max_limb = (1 lsl 31) - 1
let product_max_limbs = 5000

(* Operand bit lengths that sit on a packing or kernel boundary: every
   31j (a full top limb) and 64k, 64k + 1 (a full top word, one bit
   into the next) up to 80 words, and the Karatsuba threshold's word
   count ±1 at the top level and one level down (2T ± 1 words split
   into halves of about T). *)
let product_boundary_bits =
  let t = Bigint.karatsuba_words in
  List.init 165 (fun j -> 31 * (j + 1))
  @ List.concat (List.init 80 (fun k -> [ 64 * (k + 1); (64 * (k + 1)) + 1 ]))
  @ List.concat_map
      (fun w -> [ (64 * w) - 1; 64 * w; (64 * w) + 1 ])
      [ t - 1; t; t + 1; (2 * t) - 1; 2 * t; (2 * t) + 1 ]
  |> List.sort_uniq compare |> Array.of_list

let product_boundary_cases = Array.length product_boundary_bits

(* An operand of exactly [bits] bits whose limbs are random, all ones,
   about half zero, or all zero below the top limb. *)
let gen_operand bits =
  let open QCheck2.Gen in
  let n = (bits + 30) / 31 in
  let top_bits = bits - (31 * (n - 1)) in
  let* fill = int_range 0 3 in
  let* randoms = array_size (return n) (int_range 0 max_limb) in
  let* zeros = array_size (return n) bool in
  let limbs =
    Array.mapi
      (fun i r ->
        match fill with
        | 0 -> r
        | 1 -> max_limb
        | 2 -> if zeros.(i) then 0 else r
        | _ -> if i = n - 1 then 1 else 0)
      randoms
  in
  (* Exactly [top_bits] bits in the top limb: its top bit set. *)
  let top = limbs.(n - 1) land ((1 lsl top_bits) - 1) in
  limbs.(n - 1) <- top lor (1 lsl (top_bits - 1));
  return (of_limbs limbs)

(* A bit length up to [product_max_limbs] limbs, log-uniform: every
   size class turns up, and the quadratic reference stays affordable. *)
let gen_length =
  QCheck2.Gen.map
    (fun e -> Stdlib.max 1 (int_of_float (2. ** e)))
    (QCheck2.Gen.float_range 0. (Float.log2 (float_of_int (31 * product_max_limbs))))

(* Even-numbered cases multiply a boundary-length operand by a second
   one of the same length (balanced) or of a random length (unbalanced);
   odd-numbered cases take both lengths at random. *)
let gen_product () =
  let case = ref 0 in
  let open QCheck2.Gen in
  let* balanced = bool in
  let* r1 = gen_length in
  let* r2 = gen_length in
  let i = !case in
  incr case;
  let b1, b2 =
    if i land 1 = 1 then (r1, r2)
    else
      let b = product_boundary_bits.(i / 2 mod product_boundary_cases) in
      (b, if balanced then b else r2)
  in
  pair (gen_operand b1) (gen_operand b2)

let test_product_kernel_extremes () =
  let ones n = of_limbs (Array.make n max_limb) in
  List.iter
    (fun (la, lb) ->
      let a = ones la and b = ones lb in
      Alcotest.(check bool) (Printf.sprintf "all-ones %d x %d limbs" la lb) true
        (Bigint.equal (Bigint.mul_schoolbook a b) (Bigint.mul_kernel a b)))
    [ (1, 1); (1, product_max_limbs); (product_max_limbs, product_max_limbs) ];
  check_eq "zero" Bigint.zero (Bigint.mul_kernel Bigint.zero (ones 40));
  check_eq "signs" (Bigint.neg (Bigint.mul_schoolbook (ones 70) (ones 90)))
    (Bigint.mul_kernel (Bigint.neg (ones 70)) (ones 90))

(* The byte fold [of_bytes_be] replaced: one multiply-add per byte. *)
let of_bytes_fold s =
  String.fold_left (fun acc c -> Bigint.add_int (Bigint.mul_int acc 256) (Char.code c)) Bigint.zero s

(* 0–600 bytes, often behind a run of leading zero bytes. *)
let gen_bytes =
  let open QCheck2.Gen in
  let* zeros = oneof [ return 0; int_range 1 40 ] in
  let* body = string_size ~gen:char (int_range 0 (600 - zeros)) in
  return (String.make zeros '\000' ^ body)

let props =
  [ prop "int add matches" (pair gen_small gen_small) (fun (a, b) ->
        Bigint.equal (Bigint.add (bi a) (bi b)) (bi (a + b)));
    prop "int mul matches" (pair gen_small gen_small) (fun (a, b) ->
        Bigint.equal (Bigint.mul (bi a) (bi b)) (bi (a * b)));
    prop "string roundtrip" (gen_big ~bits:1024 ()) (fun x ->
        Bigint.equal x (Bigint.of_string (Bigint.to_string x)));
    prop "hex roundtrip (abs)" (gen_big_pos ~bits:1024 ()) (fun x ->
        Bigint.equal x (Bigint.of_hex (Bigint.to_hex x)));
    prop "bytes roundtrip (abs)" (gen_big_pos ~bits:1024 ()) (fun x ->
        Bigint.equal x (Bigint.of_bytes_be (Bigint.to_bytes_be x)));
    prop "add commutes" (pair (gen_big ()) (gen_big ())) (fun (a, b) ->
        Bigint.equal (Bigint.add a b) (Bigint.add b a));
    prop "add associates" (triple (gen_big ()) (gen_big ()) (gen_big ())) (fun (a, b, c) ->
        Bigint.equal (Bigint.add (Bigint.add a b) c) (Bigint.add a (Bigint.add b c)));
    prop "sub inverts add" (pair (gen_big ()) (gen_big ())) (fun (a, b) ->
        Bigint.equal a (Bigint.sub (Bigint.add a b) b));
    prop "mul commutes" (pair (gen_big ()) (gen_big ())) (fun (a, b) ->
        Bigint.equal (Bigint.mul a b) (Bigint.mul b a));
    prop "mul distributes" (triple (gen_big ()) (gen_big ()) (gen_big ())) (fun (a, b, c) ->
        Bigint.equal (Bigint.mul a (Bigint.add b c)) (Bigint.add (Bigint.mul a b) (Bigint.mul a c)));
    prop "divmod invariant" ~count:500
      (pair (gen_big ~bits:768 ()) (gen_big_pos_nonzero ~bits:384 ()))
      (fun (a, b) ->
        let q, r = Bigint.divmod a b in
        Bigint.equal a (Bigint.add (Bigint.mul q b) r)
        && Bigint.sign r >= 0
        && Bigint.compare r b < 0);
    prop "divmod_int matches divmod" (pair (gen_big ()) (QCheck2.Gen.int_range 1 1_000_000_000))
      (fun (a, d) ->
        let q1, r1 = Bigint.divmod_int a d in
        let q2, r2 = Bigint.divmod a (bi d) in
        Bigint.equal q1 q2 && Bigint.equal (bi r1) r2);
    prop "shift_left is mul by 2^k" (pair (gen_big ()) (QCheck2.Gen.int_range 0 200)) (fun (a, k) ->
        Bigint.equal (Bigint.shift_left a k) (Bigint.mul a (Bigint.pow Bigint.two k)));
    prop "shift_right is div of abs" (pair (gen_big_pos ()) (QCheck2.Gen.int_range 0 200)) (fun (a, k) ->
        Bigint.equal (Bigint.shift_right a k) (Bigint.div a (Bigint.pow Bigint.two k)));
    prop "mod_pow matches naive" ~count:100
      (triple (gen_big_pos ~bits:128 ()) (QCheck2.Gen.int_range 0 64) (gen_big_pos_nonzero ~bits:128 ()))
      (fun (b, e, m) ->
        let m = if Bigint.equal m Bigint.one then Bigint.two else m in
        let naive = Bigint.erem (Bigint.pow b e) m in
        Bigint.equal naive (Bigint.mod_pow b (bi e) m));
    prop "montgomery matches division-based ladder" ~count:(2 * boundary_cases)
      (pair (gen_kernel_case ()) (gen_big_pos ~bits:96 ()))
      (fun ((m, b), e) ->
        (* Reference ladder built on erem (Knuth division), fully
           independent of the Montgomery code path. *)
        let reference e =
          let bits = Bigint.num_bits e in
          let acc = ref Bigint.one in
          for i = bits - 1 downto 0 do
            acc := Bigint.mod_mul !acc !acc m;
            if Bigint.testbit e i then acc := Bigint.mod_mul !acc b m
          done;
          !acc
        in
        (* Exponents 2 and 3: a lone square, and a square and a multiply. *)
        let c = Bigint.Mont.create m in
        Bigint.equal (reference e) (Bigint.mod_pow b e m)
        && List.for_all
             (fun e -> Bigint.equal (reference (bi e)) (Bigint.Mont.pow c b (bi e)))
             [ 2; 3 ]);
    prop "mod_pow odd modulus homomorphism" ~count:60
      (triple (gen_big_pos ~bits:256 ()) (pair (gen_big_pos ~bits:64 ()) (gen_big_pos ~bits:64 ())) (gen_big_pos ~bits:256 ()))
      (fun (b, (e1, e2), m0) ->
        (* Force an odd modulus > 1 to pin the Montgomery path. *)
        let m = Bigint.add (Bigint.mul_int m0 2) (Bigint.of_int 3) in
        let lhs = Bigint.mod_pow b (Bigint.add e1 e2) m in
        let rhs = Bigint.mod_mul (Bigint.mod_pow b e1 m) (Bigint.mod_pow b e2 m) m in
        Bigint.equal lhs rhs);
    prop "mod_inv correct" ~count:200
      (pair (gen_big ~bits:256 ()) (gen_big_pos_nonzero ~bits:256 ()))
      (fun (a, m) ->
        let m = Bigint.add m Bigint.two in
        match Bigint.mod_inv a m with
        | None -> not (Bigint.equal (Bigint.gcd a m) Bigint.one)
        | Some inv -> Bigint.equal (Bigint.mod_mul a inv m) Bigint.one);
    prop "egcd bezout" (pair (gen_big ()) (gen_big ())) (fun (a, b) ->
        let g, x, y = Bigint.egcd a b in
        Bigint.equal g (Bigint.add (Bigint.mul a x) (Bigint.mul b y))
        && Bigint.equal g (Bigint.gcd a b));
    prop "compare antisymmetric" (pair (gen_big ()) (gen_big ())) (fun (a, b) ->
        Bigint.compare a b = -Bigint.compare b a);
    prop "num_bits bound" (gen_big_pos_nonzero ()) (fun x ->
        let n = Bigint.num_bits x in
        Bigint.compare x (Bigint.pow Bigint.two n) < 0
        && Bigint.compare x (Bigint.pow Bigint.two (n - 1)) >= 0);
    prop "erem in range" (pair (gen_big ()) (gen_big_pos_nonzero ())) (fun (a, m) ->
        let r = Bigint.erem a m in
        Bigint.sign r >= 0 && Bigint.compare r m < 0
        && Bigint.is_zero (Bigint.erem (Bigint.sub a r) m));
    (* Operand sizes well past the Karatsuba threshold (32 limbs ≈ 1000
       bits): division is an independent code path, so quotient/remainder
       recovery cross-checks the split-and-recombine multiply. *)
    prop "karatsuba mul inverts by divmod" ~count:30
      (pair (gen_big ~bits:40_000 ()) (gen_big_pos_nonzero ~bits:20_000 ()))
      (fun (a, b) ->
        (* a*b is an exact multiple of b, so floor division recovers a
           and a zero remainder for either sign of a. *)
        let q, r = Bigint.divmod (Bigint.mul a b) b in
        Bigint.equal q a && Bigint.is_zero r);
    prop "karatsuba distributes at large sizes" ~count:20
      (triple (gen_big ~bits:30_000 ()) (gen_big ~bits:30_000 ()) (gen_big ~bits:30_000 ()))
      (fun (a, b, c) ->
        Bigint.equal (Bigint.mul a (Bigint.add b c)) (Bigint.add (Bigint.mul a b) (Bigint.mul a c)));
    prop "product kernel matches the schoolbook" ~count:(2 * product_boundary_cases)
      (gen_product ())
      (fun (a, b) ->
        let expected = Bigint.mul_schoolbook a b in
        Bigint.equal expected (Bigint.mul_kernel a b) && Bigint.equal expected (Bigint.mul a b));
    prop "of_bytes_be round-trips with to_bytes_be" ~count:500 gen_bytes (fun s ->
        let x = Bigint.of_bytes_be s in
        if s = "" then Bigint.is_zero x
        else String.equal s (Bigint.to_bytes_be ~len:(String.length s) x));
    prop "of_bytes_be agrees with the byte fold" ~count:300 gen_bytes (fun s ->
        Bigint.equal (of_bytes_fold s) (Bigint.of_bytes_be s));
    prop "lucas ladder matches the recurrence" ~count:(2 * boundary_cases)
      (triple (gen_kernel_modulus ())
         QCheck2.Gen.(oneof [ int_range (-50) 50; oneofl [ -1; 1 ] ])
         (QCheck2.Gen.int_range 0 300))
      (fun (m, q, e) ->
        (* The reference steps X_(j+1) = X_j - Q·X_(j-1) (P = 1) one
           index at a time on division-based arithmetic. *)
        let step x0 x1 = Bigint.erem (Bigint.sub x1 (Bigint.mul_int x0 q)) m in
        let rec walk j u0 u1 v0 v1 =
          if j = e then (u0, v0) else walk (j + 1) u1 (step u0 u1) v1 (step v0 v1)
        in
        let u, v = walk 0 Bigint.zero Bigint.one Bigint.two Bigint.one in
        let c = Bigint.Mont.create m in
        let u', v', qk = Bigint.Mont.lucas c ~q (bi e) in
        Bigint.equal (Bigint.erem u m) (Bigint.Mont.of_mont c u')
        && Bigint.equal (Bigint.erem v m) (Bigint.Mont.of_mont c v')
        && Bigint.equal (Bigint.mod_pow (bi q) (bi e) m) (Bigint.Mont.of_mont c qk));
    prop "fixed_base pow matches mod_pow" ~count:(2 * boundary_cases)
      (pair (gen_kernel_case ()) (gen_big_pos ~bits:2048 ()))
      (fun ((m, b), e) ->
        (* A small chunk makes the exponent span many anchors so the
           split/recombine is actually exercised. *)
        let fb = Bigint.Fixed_base.create ~chunk_bits:96 ~modulus:m b in
        Bigint.equal (Bigint.Fixed_base.pow fb e) (Bigint.mod_pow b e m)
        && Bigint.equal (Bigint.Fixed_base.pow fb Bigint.zero) (Bigint.erem Bigint.one m)
        && Bigint.equal (Bigint.Fixed_base.pow fb Bigint.one) (Bigint.erem b m))
  ]

let () =
  Alcotest.run "bigint"
    [ ( "unit",
        [ Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "hex" `Quick test_hex;
          Alcotest.test_case "bytes" `Quick test_bytes;
          Alcotest.test_case "arith basics" `Quick test_arith_basics;
          Alcotest.test_case "divmod" `Quick test_divmod;
          Alcotest.test_case "divmod large" `Quick test_divmod_large;
          Alcotest.test_case "shift" `Quick test_shift;
          Alcotest.test_case "bits" `Quick test_bits;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "mod_pow" `Quick test_mod_pow;
          Alcotest.test_case "mod_inv" `Quick test_mod_inv;
          Alcotest.test_case "knuth add-back" `Quick test_knuth_add_back;
          Alcotest.test_case "error paths" `Quick test_error_paths;
          Alcotest.test_case "mod_pow edge bases" `Quick test_mod_pow_zero_base;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "product kernel extremes" `Quick test_product_kernel_extremes ] );
      ("properties", props) ]
