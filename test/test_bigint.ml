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

(* [b^e mod m] on a fresh context: modular exponentiation is
   [Bigint.Mont.pow], over an odd modulus only. *)
let mod_pow b e m = Bigint.Mont.pow (Bigint.Mont.create m) b e

let test_mod_pow () =
  check_eq "small" (bi 445) (mod_pow (bi 4) (bi 13) (bi 497));
  (* Fermat: a^(p-1) = 1 mod p for prime p. *)
  let p = Bigint.of_string "162259276829213363391578010288127" (* 2^107-1, prime *) in
  check_eq "fermat" Bigint.one (mod_pow (bi 3) (Bigint.pred p) p);
  check_eq "zero exponent" Bigint.one (mod_pow (bi 12345) Bigint.zero (bi 997))

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
  Alcotest.check_raises "negative Mont.pow exponent"
    (Invalid_argument "Bigint.Mont.pow: negative exponent") (fun () ->
      ignore (mod_pow Bigint.two Bigint.minus_one (bi 7)));
  Alcotest.check_raises "Mont.create modulus 1"
    (Invalid_argument "Bigint.Mont.create: modulus <= 1") (fun () ->
      ignore (Bigint.Mont.create Bigint.one));
  Alcotest.check_raises "Mont.create even modulus"
    (Invalid_argument "Bigint.Mont.create: even modulus") (fun () ->
      ignore (Bigint.Mont.create (bi 60)));
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
  check_eq "0^e mod m" Bigint.zero (mod_pow Bigint.zero (bi 5) (bi 97));
  check_eq "b = m" Bigint.zero (mod_pow (bi 97) (bi 3) (bi 97));
  check_eq "b > m reduced" (bi 9) (mod_pow (bi 100) (bi 2) (bi 97))

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

(* An odd modulus of exactly [bits] >= 2 bits: 2^(bits-1) + 2r + 1 with
   r < 2^(bits-2). *)
let gen_odd_modulus bits =
  QCheck2.Gen.map
    (fun bytes ->
      let r = Bigint.erem (Bigint.of_bytes_be bytes) (Bigint.shift_left Bigint.one (bits - 2)) in
      Bigint.add (Bigint.shift_left Bigint.one (bits - 1)) (Bigint.add (Bigint.mul_int r 2) Bigint.one))
    (QCheck2.Gen.string_size ~gen:QCheck2.Gen.char (QCheck2.Gen.return (kernel_max_bits / 8)))

(* An odd modulus of 2 to [kernel_max_bits] bits. Even-numbered cases
   step through [boundary_bits] in order, so every run of
   [2 * boundary_cases] cases covers all of them; odd-numbered cases
   take a random length. Each property builds its own generator. *)
let gen_kernel_modulus () =
  let case = ref 0 in
  let open QCheck2.Gen in
  let* random_bits = int_range 2 kernel_max_bits in
  let i = !case in
  incr case;
  gen_odd_modulus (if i land 1 = 0 then boundary_bits.(i / 2 mod boundary_cases) else random_bits)

(* A base for modulus [m]: 0, 1, m - 1, or random up to
   [kernel_max_bits] bits (often above m). *)
let gen_kernel_base m =
  QCheck2.Gen.oneof
    [ QCheck2.Gen.return Bigint.zero;
      QCheck2.Gen.return Bigint.one;
      QCheck2.Gen.return (Bigint.pred m);
      gen_big_pos ~bits:kernel_max_bits () ]

let gen_kernel_case () =
  let open QCheck2.Gen in
  let* m = gen_kernel_modulus () in
  let* b = gen_kernel_base m in
  return (m, b)

(* Reference ladder built on erem (Knuth division), fully independent
   of the Montgomery code path. *)
let division_pow b e m =
  let acc = ref Bigint.one in
  for i = Bigint.num_bits e - 1 downto 0 do
    acc := Bigint.mod_mul !acc !acc m;
    if Bigint.testbit e i then acc := Bigint.mod_mul !acc b m
  done;
  !acc

(* --- pair exponentiation ---------------------------------------------- *)

(* [Mont.pow2] picks its digit width w from the longer exponent: 2 bits
   up to 48, then one more above each w(w+1)·2^(w+1) bits for w = 2..9
   (48, 192, 640, 1920, 5376, 14336, 36864 and 92160). These lengths
   sit on and either side of every threshold, plus zero and 70,000. *)
let pow2_lengths =
  0 :: 70_000
  :: List.concat_map
       (fun w ->
         let t = (w * (w + 1)) lsl (w + 1) in
         [ t - 1; t; t + 1 ])
       (List.init 8 (fun i -> i + 2))
  |> Array.of_list

(* The reference ladder costs about bits(m)² per exponent bit, so a
   case keeps bits(m)² · (|e1| + |e2|) within this budget: the longest
   exponents meet moduli of a few dozen bits, and 2112-bit moduli meet
   exponents of a few dozen bits. *)
let pow2_budget = 140_000 * 40 * 40

(* An exponent of exactly [bits] bits (zero for 0). *)
let gen_exponent bits =
  if bits = 0 then QCheck2.Gen.return Bigint.zero
  else
    QCheck2.Gen.map
      (fun bytes ->
        let top = Bigint.shift_left Bigint.one (bits - 1) in
        Bigint.add top (Bigint.erem (Bigint.of_bytes_be bytes) top))
      (QCheck2.Gen.string_size ~gen:QCheck2.Gen.char (QCheck2.Gen.return ((bits + 7) / 8)))

(* Even-numbered cases step through [boundary_bits] for the modulus and
   draw the longer exponent's length up to what the budget allows;
   odd-numbered cases step through [pow2_lengths] for it and draw the
   modulus length up to what the budget allows. The other exponent has
   the same length, a random shorter one, or is zero, on either side. *)
let gen_pow2_case () =
  let case = ref 0 in
  let open QCheck2.Gen in
  let* u = float_range 0. 1. in
  let* shape = int_range 0 2 in
  let* v = float_range 0. 1. in
  let* swap = bool in
  let i = !case in
  incr case;
  let other len = match shape with 0 -> len | 1 -> int_of_float (v *. float_of_int len) | _ -> 0 in
  let mbits, len =
    if i land 1 = 0 then begin
      let mbits = boundary_bits.(i / 2 mod boundary_cases) in
      let cap = Stdlib.min 70_000 (pow2_budget / (mbits * mbits) / 2) in
      (* Log-uniform in [0, cap]. *)
      (mbits, int_of_float (float_of_int (cap + 1) ** u) - 1)
    end
    else begin
      let len = pow2_lengths.(i / 2 mod Array.length pow2_lengths) in
      let cap = Float.to_int (sqrt (float_of_int (pow2_budget / Stdlib.max 1 (len + other len)))) in
      (2 + int_of_float (u *. float_of_int (Stdlib.min kernel_max_bits cap - 2)), len)
    end
  in
  let* m = gen_odd_modulus mbits in
  let* b = gen_kernel_base m in
  let* e1 = gen_exponent len in
  let* e2 = gen_exponent (other len) in
  return (m, b, if swap then (e2, e1) else (e1, e2))

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

(* --- sliced ladder, strong test and residue kernels ------------------------ *)

(* [Mont.pow] runs its ladder in kernel calls of 256 exponent bits and
   picks its window width at 32, 160, 768, 3072 and 12288 bits: these
   exponent lengths sit on and either side of every slice edge up to two
   slices and of every window threshold. *)
let ladder_lengths =
  [ 255; 256; 257; 511; 512; 513 ]
  @ List.concat_map (fun t -> [ t - 1; t; t + 1 ]) [ 32; 160; 768; 3072; 12288 ]
  |> Array.of_list

(* The reference ladder costs about bits(m)² per exponent bit: the
   modulus length is drawn within this budget for the case's exponent. *)
let ladder_budget = 12_300 * 64 * 64

(* Case i takes exponent length [ladder_lengths.(i mod _)]; the modulus
   steps through [boundary_bits] when that fits the budget, else a random
   length that does. *)
let gen_ladder_case () =
  let case = ref 0 in
  let open QCheck2.Gen in
  let* u = float_range 0. 1. in
  let i = !case in
  incr case;
  let len = ladder_lengths.(i mod Array.length ladder_lengths) in
  let cap = Stdlib.min kernel_max_bits (Float.to_int (sqrt (float_of_int (ladder_budget / len)))) in
  let boundary = boundary_bits.(i / Array.length ladder_lengths mod boundary_cases) in
  let mbits =
    if boundary <= cap then boundary else 2 + int_of_float (u *. float_of_int (cap - 2))
  in
  let* m = gen_odd_modulus mbits in
  let* b = gen_kernel_base m in
  let* e = gen_exponent len in
  return (m, b, e)

(* The strong probable-prime test on division-based arithmetic: n - 1 =
   2^s·d, then b^d and its squarings against 1 and n - 1. *)
let division_strong_test n b =
  let n_minus_1 = Bigint.pred n in
  let rec split d s = if Bigint.is_even d then split (Bigint.shift_right d 1) (s + 1) else (d, s) in
  let d, s = split n_minus_1 0 in
  let x = division_pow (Bigint.erem b n) d n in
  let rec squares x r =
    Bigint.equal x n_minus_1 || (r < s - 1 && squares (Bigint.mod_mul x x n) (r + 1))
  in
  Bigint.equal x Bigint.one || squares x 0

(* Candidate lengths for the strong test: every 64j - 1, 64j and 64j + 1
   up to 704 bits (a word boundary on either side), then random lengths
   of 2 to 700 bits. *)
let strong_bits =
  List.concat_map (fun j -> [ (64 * j) - 1; 64 * j; (64 * j) + 1 ]) (List.init 11 (fun j -> j + 1))
  |> Array.of_list

(* Strong pseudoprimes to base 2, the inputs on which the base-2 test's
   -1 must turn up after squarings. *)
let base2_pseudoprimes =
  List.map Bigint.of_string
    [ "2047"; "3277"; "4033"; "4681"; "8321"; "3215031751"; "3825123056546413051";
      "318665857834031151167461" ]

(* Even-numbered cases step through [strong_bits]; odd-numbered ones take
   a random length or a base-2 strong pseudoprime. The base is 2 (the
   doubling path) or drawn as keygen's are (the ladder). *)
let gen_strong_case () =
  let case = ref 0 in
  let open QCheck2.Gen in
  let* random_bits = int_range 2 700 in
  let* pseudo = oneofl base2_pseudoprimes in
  let* which = int_range 0 2 in
  let i = !case in
  incr case;
  let* n =
    if i land 1 = 0 then gen_odd_modulus strong_bits.(i / 2 mod Array.length strong_bits)
    else if which = 0 then return pseudo
    else gen_odd_modulus random_bits
  in
  let* base =
    oneof [ return Bigint.two; map (fun b -> Bigint.add Bigint.two b) (gen_big_pos ~bits:704 ()) ]
  in
  return (n, base)

(* Lengths for the residue kernel's operand: zero, every limb boundary
   31j and word boundary 64k, 64k + 1 up to 40 limbs, then random. *)
let residue_bits =
  (0 :: List.init 40 (fun j -> 31 * (j + 1)))
  @ List.concat (List.init 19 (fun k -> [ 64 * (k + 1); (64 * (k + 1)) + 1 ]))
  |> List.filter (fun b -> b <= 40 * 31)
  |> List.sort_uniq compare |> Array.of_list

(* A magnitude of exactly [bits] bits (zero for 0) and a divisor list:
   the small primes below 200, random divisors below 2^31 and the
   extremes 1 and 2^31 - 1. Every third case's operand is instead a
   value below 199, smaller than most of the divisors. *)
let gen_residue_case () =
  let case = ref 0 in
  let open QCheck2.Gen in
  let* random_bits = int_range 0 (40 * 31) in
  let* small = int_range 0 198 in
  let* randoms = array_size (int_range 0 16) (int_range 1 max_limb) in
  let i = !case in
  incr case;
  let ps = Array.concat [ Array.of_list (Sieve.primes_below 200); randoms; [| 1; max_limb |] ] in
  let* x =
    if i mod 3 = 2 then return (bi small)
    else
      gen_exponent
        (if i land 1 = 0 then residue_bits.(i / 2 mod Array.length residue_bits) else random_bits)
  in
  return (x, ps)

(* --- kernel instances ------------------------------------------------------ *)

(* The Montgomery kernel has an instance of its own at 4, 5 and 8 words
   (256-bit key primes, 272-bit prime representatives, 512-bit moduli)
   and runs its generic loop at every other size: these word counts are
   the three instances and their neighbours. Case i takes
   [instance_words.(i mod 8)], so every 16 cases cover each size in
   both modulus shapes. *)
let instance_words = [| 4; 5; 8; 3; 6; 7; 9; 16 |]

(* An odd modulus of n words at either extreme of its top word:
   2^(64n) - c, whose top word is all ones, so a sum carries out of it
   and the final subtraction borrows from the carry; or
   2^(64(n-1)) + c, one bit into it. c is odd, and either small or
   random below 2^(64(n-1)). *)
let gen_instance_modulus () =
  let case = ref 0 in
  let open QCheck2.Gen in
  let* small = int_range 0 (1 lsl 40) in
  let* wide = string_size ~gen:char (return 128) in
  let* pick_small = bool in
  let i = !case in
  incr case;
  let n = instance_words.(i mod Array.length instance_words) in
  let below = Bigint.shift_left Bigint.one (64 * (n - 1)) in
  let c =
    Bigint.add Bigint.one
      (Bigint.mul_int
         (if pick_small then bi small else Bigint.erem (Bigint.of_bytes_be wide) below)
         2)
  in
  let c = Bigint.erem c below in
  return
    (if i / Array.length instance_words land 1 = 0 then
       Bigint.sub (Bigint.shift_left Bigint.one (64 * n)) c
     else Bigint.add below c)

(* A base for modulus [m]: 0, 1, m - 1, m - 2 or random, often above m. *)
let gen_instance_base m =
  QCheck2.Gen.oneof
    [ QCheck2.Gen.return Bigint.zero;
      QCheck2.Gen.return Bigint.one;
      QCheck2.Gen.return (Bigint.pred m);
      QCheck2.Gen.return (Bigint.sub m Bigint.two);
      gen_big_pos ~bits:(Bigint.num_bits m + 64) () ]

let gen_instance_case () =
  let open QCheck2.Gen in
  let* m = gen_instance_modulus () in
  let* b = gen_instance_base m in
  let* e = map Bigint.abs (gen_big ~bits:400 ()) in
  let* e1 = map Bigint.abs (gen_big ~bits:600 ()) in
  let* e2 = map Bigint.abs (gen_big ~bits:200 ()) in
  return (m, b, e, (e1, e2))

(* An operand of 1 to 20 limbs, zero, or a multiple of one of the small
   primes, for the residue scan over every prime below 8192. *)
let gen_small_prime_operand () =
  let case = ref 0 in
  let open QCheck2.Gen in
  let* bits = int_range 1 (20 * 31) in
  let* x = gen_exponent bits in
  let* k = int_range 0 (Array.length Sieve.small_primes - 1) in
  let i = !case in
  incr case;
  return
    (match i mod 4 with
     | 0 -> Bigint.zero
     | 1 -> Bigint.mul_int x Sieve.small_primes.(k)
     | _ -> x)

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
        let m = if Bigint.is_even m then Bigint.succ m else m in
        let m = if Bigint.equal m Bigint.one then bi 3 else m in
        let naive = Bigint.erem (Bigint.pow b e) m in
        Bigint.equal naive (mod_pow b (bi e) m));
    prop "montgomery matches division-based ladder" ~count:(2 * boundary_cases)
      (pair (gen_kernel_case ()) (gen_big_pos ~bits:96 ()))
      (fun ((m, b), e) ->
        (* Exponents 2 and 3: a lone square, and a square and a multiply. *)
        let c = Bigint.Mont.create m in
        Bigint.equal (division_pow b e m) (Bigint.Mont.pow c b e)
        && List.for_all
             (fun e -> Bigint.equal (division_pow b (bi e) m) (Bigint.Mont.pow c b (bi e)))
             [ 2; 3 ]);
    prop "pair exponentiation matches division-based ladder" ~count:(2 * boundary_cases)
      (gen_pow2_case ())
      (fun (m, b, (e1, e2)) ->
        let r1, r2 = Bigint.Mont.pow2 (Bigint.Mont.create m) b e1 e2 in
        Bigint.equal (division_pow b e1 m) r1 && Bigint.equal (division_pow b e2 m) r2);
    prop "mod_pow odd modulus homomorphism" ~count:60
      (triple (gen_big_pos ~bits:256 ()) (pair (gen_big_pos ~bits:64 ()) (gen_big_pos ~bits:64 ())) (gen_big_pos ~bits:256 ()))
      (fun (b, (e1, e2), m0) ->
        (* Force an odd modulus > 1 to pin the Montgomery path. *)
        let m = Bigint.add (Bigint.mul_int m0 2) (Bigint.of_int 3) in
        let lhs = mod_pow b (Bigint.add e1 e2) m in
        let rhs = Bigint.mod_mul (mod_pow b e1 m) (mod_pow b e2 m) m in
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
          if j = e then (u0, v0, v1) else walk (j + 1) u1 (step u0 u1) v1 (step v0 v1)
        in
        let u, v, v_next = walk 0 Bigint.zero Bigint.one Bigint.two Bigint.one in
        let c = Bigint.Mont.create m in
        let v', v_next', qk, u_zero = Bigint.Mont.lucas c ~q (bi e) in
        (* The kernel reads 2V_(e+1) = V_e, which is D·U_e = 0. *)
        let d = 1 - (4 * q) in
        Bigint.equal (Bigint.erem v m) v'
        && Bigint.equal (Bigint.erem v_next m) v_next'
        && Bigint.equal (mod_pow (bi q) (bi e) m) qk
        && u_zero = Bigint.is_zero (Bigint.erem (Bigint.mul_int u d) m)
        && ((not (Bigint.equal (Bigint.gcd (bi d) m) Bigint.one))
           || u_zero = Bigint.is_zero (Bigint.erem u m)));
    prop "sliced ladder matches division-based ladder" ~count:(4 * Array.length ladder_lengths)
      (gen_ladder_case ())
      (fun (m, b, e) ->
        Bigint.equal (division_pow b e m) (Bigint.Mont.pow (Bigint.Mont.create m) b e));
    prop "strong-test kernel matches division-based test" ~count:(2 * Array.length strong_bits)
      (gen_strong_case ())
      (fun (n, base) ->
        Bigint.Mont.strong_test (Bigint.Mont.create n) ~base = division_strong_test n base);
    prop "residue kernel matches divmod_int" ~count:(2 * Array.length residue_bits)
      (gen_residue_case ())
      (fun (x, ps) ->
        let expected = Array.map (fun p -> snd (Bigint.divmod_int x p)) ps in
        let first =
          let rec go i = if i < Array.length ps && expected.(i) <> 0 then go (i + 1) else i in
          go 0
        in
        Bigint.residues x ps = expected && Bigint.first_divisor x ps = first);
    prop "kernel instances match division-based arithmetic"
      ~count:(8 * Array.length instance_words)
      (gen_instance_case ())
      (fun (m, b, e, (e1, e2)) ->
        let c = Bigint.Mont.create m in
        let r1, r2 = Bigint.Mont.pow2 c b e1 e2 in
        List.for_all
          (fun e -> Bigint.equal (division_pow (Bigint.erem b m) e m) (Bigint.Mont.pow c b e))
          [ Bigint.two; bi 3; e ]
        && Bigint.equal (division_pow (Bigint.erem b m) e1 m) r1
        && Bigint.equal (division_pow (Bigint.erem b m) e2 m) r2
        && Bigint.Mont.strong_test c ~base:Bigint.two = division_strong_test m Bigint.two
        && Bigint.Mont.strong_test c ~base:b = division_strong_test m b);
    prop "lucas ladder matches the recurrence at the kernel instances"
      ~count:(4 * Array.length instance_words)
      (triple (gen_instance_modulus ())
         QCheck2.Gen.(oneof [ int_range (-50) 50; oneofl [ -1; 1 ] ])
         (QCheck2.Gen.int_range 0 300))
      (fun (m, q, e) ->
        let step x0 x1 = Bigint.erem (Bigint.sub x1 (Bigint.mul_int x0 q)) m in
        let rec walk j u0 u1 v0 v1 =
          if j = e then (u0, v0, v1) else walk (j + 1) u1 (step u0 u1) v1 (step v0 v1)
        in
        let u, v, v_next = walk 0 Bigint.zero Bigint.one Bigint.two Bigint.one in
        let v', v_next', qk, u_zero = Bigint.Mont.lucas (Bigint.Mont.create m) ~q (bi e) in
        Bigint.equal (Bigint.erem v m) v'
        && Bigint.equal (Bigint.erem v_next m) v_next'
        && Bigint.equal (mod_pow (bi q) (bi e) m) qk
        && u_zero = Bigint.is_zero (Bigint.erem (Bigint.mul_int u (1 - (4 * q))) m));
    prop "residue scan matches erem for every small prime" ~count:200
      (gen_small_prime_operand ())
      (fun x ->
        let ps = Sieve.small_primes in
        let expected = Array.map (fun p -> Bigint.to_int_exn (Bigint.erem x (bi p))) ps in
        let first =
          let rec go i = if i < Array.length ps && expected.(i) <> 0 then go (i + 1) else i in
          go 0
        in
        Bigint.residues x ps = expected && Bigint.first_divisor x ps = first)
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
