let mr_rounds = 16

let miller_rabin_base n ~base = Bigint.Mont.strong_test (Bigint.Mont.create n) ~base

(* [Some verdict] when trial division is conclusive: n is a small prime,
   or has one as a factor. *)
let trial_division n =
  let i = Bigint.first_divisor n Sieve.small_primes in
  if i = Array.length Sieve.small_primes then None
  else Some (Bigint.equal n (Bigint.of_int Sieve.small_primes.(i)))

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

let baillie_psw n =
  if Bigint.compare n Bigint.two <= 0 then Bigint.equal n Bigint.two
  else
    Bigint.is_odd n
    &&
    let ctx = Bigint.Mont.create n in
    Bigint.Mont.strong_test ctx ~base:Bigint.two
    && match selfridge_d n with
       | None -> false
       | Some d -> Bigint.Mont.strong_lucas ctx ~q:((1 - d) / 4)
