let mr_rounds = 16

(* Decompose m = 2^s * d with d odd. *)
let decompose m =
  let rec go d s = if Bigint.is_even d then go (Bigint.shift_right d 1) (s + 1) else (d, s) in
  go m 0

(* Strong probable-prime test to [base], in a Montgomery context whose
   odd modulus is the candidate. The trailing squarings stay in the
   domain and compare against the Montgomery forms of 1 and n - 1. *)
let strong_test ctx ~base =
  let module M = Bigint.Mont in
  let n_minus_1 = Bigint.pred (M.modulus ctx) in
  let d, s = decompose n_minus_1 in
  let minus_one = M.to_mont ctx n_minus_1 in
  let rec squares x i = M.equal x minus_one || (i < s - 1 && squares (M.sqr ctx x) (i + 1)) in
  let x = M.pow_mont ctx base d in
  M.equal x (M.to_mont ctx Bigint.one) || squares x 0

let miller_rabin_base n ~base = strong_test (Bigint.Mont.create n) ~base

let trial_division n =
  (* Returns [Some verdict] when trial division is conclusive. *)
  let len = Array.length Sieve.small_primes in
  let rec go i =
    if i >= len then None
    else begin
      let p = Sieve.small_primes.(i) in
      match Bigint.to_int_opt n with
      | Some v when v = p -> Some true
      | _ ->
        let _, r = Bigint.divmod_int n p in
        if r = 0 then Some false else go (i + 1)
    end
  in
  go 0

let is_probable_prime ?(rounds = mr_rounds) ~rng n =
  if Bigint.compare n Bigint.two < 0 then false
  else if Bigint.equal n Bigint.two then true
  else if Bigint.is_even n then false
  else begin
    match trial_division n with
    | Some verdict -> verdict
    | None ->
      (* Composite inputs are overwhelmingly killed by the base-2 round,
         so run it first, then random bases. *)
      miller_rabin_base n ~base:Bigint.two
      && begin
        let n_minus_3 = Bigint.sub n (Bigint.of_int 3) in
        let rec go i =
          if i >= rounds then true
          else begin
            let base = Bigint.add Bigint.two (Drbg.uniform_bigint rng n_minus_3) in
            miller_rabin_base n ~base && go (i + 1)
          end
        in
        go 0
      end
  end

(* --- Baillie–PSW ---------------------------------------------------------- *)

(* Jacobi symbol (a/m) of native ints, m odd and positive. *)
let jacobi_int a m =
  let rec go a m acc =
    if a = 0 then if m = 1 then acc else 0
    else begin
      let a = ref a and acc = ref acc in
      while !a land 1 = 0 do
        a := !a lsr 1;
        (* (2/m) = -1 iff m = ±3 (mod 8) *)
        if m land 7 = 3 || m land 7 = 5 then acc := - !acc
      done;
      (* quadratic reciprocity for odd a, m *)
      let acc = if !a land 3 = 3 && m land 3 = 3 then - !acc else !acc in
      go (m mod !a) !a acc
    end
  in
  go (((a mod m) + m) mod m) m 1

(* (d/n) for a small odd d: reciprocity turns it into (n mod |d| / |d|),
   one single-limb division followed by native ints. *)
let jacobi d n =
  let ad = abs d in
  let n_3mod4 = Bigint.testbit n 1 in
  let j = jacobi_int (snd (Bigint.divmod_int n ad)) ad in
  let j = if n_3mod4 && ad land 3 = 3 then -j else j in
  if d < 0 && n_3mod4 then -j else j

(* Newton's integer square root from a power of two at or above it. *)
let isqrt n =
  let rec go x =
    let y = Bigint.shift_right (Bigint.add x (Bigint.div n x)) 1 in
    if Bigint.compare y x >= 0 then x else go y
  in
  if Bigint.sign n <= 0 then Bigint.zero
  else go (Bigint.shift_left Bigint.one ((Bigint.num_bits n + 1) / 2))

let is_square n =
  let r = isqrt n in
  Bigint.equal (Bigint.mul r r) n

(* A non-square has a D with (D/n) = -1 among the first few candidates
   with overwhelming probability (each coin is fair), so the square root
   runs only for inputs that reach this many: a square has no such D and
   would otherwise search forever. *)
let square_check_at = 8

(* Selfridge's method A: the first D of 5, -7, 9, -11, 13, ... with
   (D/n) = -1. [None] proves n composite: a D sharing a factor with n,
   or n a perfect square. *)
let selfridge_d n =
  let divides_d d = match Bigint.to_int_opt n with Some v -> abs d mod v = 0 | None -> false in
  let rec go d tries =
    if tries = square_check_at && is_square n then None
    else
      match jacobi d n with
      | -1 -> Some d
      | 0 when not (divides_d d) -> None
      | _ -> go (if d > 0 then -(d + 2) else 2 - d) (tries + 1)
  in
  go 5 0

(* Strong Lucas probable-prime test with P = 1, Q: writing n + 1 = 2^s·d
   with d odd, n passes when U_d = 0 or V_(d·2^r) = 0 for some r < s.
   The doublings V_2j = V_j² - 2Q^j stay in the Montgomery domain. *)
let strong_lucas ctx ~q =
  let module M = Bigint.Mont in
  let d, s = decompose (Bigint.succ (M.modulus ctx)) in
  let u, v, qk = M.lucas ctx ~q d in
  let zero = M.to_mont ctx Bigint.zero in
  let rec doublings v qk r =
    M.equal v zero
    || r < s - 1 && doublings (M.sub ctx (M.sqr ctx v) (M.add ctx qk qk)) (M.sqr ctx qk) (r + 1)
  in
  M.equal u zero || doublings v qk 0

let baillie_psw n =
  if Bigint.compare n Bigint.two <= 0 then Bigint.equal n Bigint.two
  else
    Bigint.is_odd n
    &&
    let ctx = Bigint.Mont.create n in
    strong_test ctx ~base:Bigint.two
    && match selfridge_d n with
       | None -> false
       | Some d -> strong_lucas ctx ~q:((1 - d) / 4)
