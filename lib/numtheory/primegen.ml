let is_prime_det n =
  if Bigint.compare n Bigint.two < 0 then false
  else begin
    match Bigint.to_int_opt n with
    | Some v when v < 8192 -> Sieve.is_small_prime v
    | _ ->
      Bigint.is_odd n
      && begin
        let len = Array.length Sieve.small_primes in
        let rec trial i =
          if i >= len then true
          else begin
            let _, r = Bigint.divmod_int n Sieve.small_primes.(i) in
            r <> 0 && trial (i + 1)
          end
        in
        trial 0
      end
      && Primality.baillie_psw n
  end

let next_prime n =
  if Bigint.compare n Bigint.two <= 0 then Bigint.two
  else begin
    let start = if Bigint.is_even n then Bigint.succ n else n in
    let rec walk c = if is_prime_det c then c else walk (Bigint.add c Bigint.two) in
    walk start
  end

let random_prime ~rng ~bits =
  if bits < 2 then invalid_arg "Primegen.random_prime: need bits >= 2";
  let rec draw () =
    let candidate = Drbg.bits rng bits in
    let candidate = if Bigint.is_even candidate then Bigint.succ candidate else candidate in
    if Bigint.num_bits candidate = bits && Primality.is_probable_prime ~rng candidate then candidate
    else draw ()
  in
  draw ()

let random_safe_prime ~rng ~bits =
  if bits < 3 then invalid_arg "Primegen.random_safe_prime: need bits >= 3";
  let rec draw () =
    (* Build p = 2q+1 from a candidate q, sieving p cheaply before the
       expensive tests. *)
    let q = Drbg.bits rng (bits - 1) in
    let q = if Bigint.is_even q then Bigint.succ q else q in
    let p = Bigint.succ (Bigint.shift_left q 1) in
    if Bigint.num_bits p = bits
       && Primality.is_probable_prime ~rounds:4 ~rng p
       && Primality.is_probable_prime ~rounds:4 ~rng q
       && Primality.is_probable_prime ~rng p
       && Primality.is_probable_prime ~rng q
    then p
    else draw ()
  in
  draw ()

type rsa_modulus = { n : Bigint.t; p : Bigint.t; q : Bigint.t; phi : Bigint.t }

let random_rsa_modulus ?(safe = false) ~rng ~bits () =
  if bits < 16 then invalid_arg "Primegen.random_rsa_modulus: need bits >= 16";
  let half = bits / 2 in
  let gen () = if safe then random_safe_prime ~rng ~bits:half else random_prime ~rng ~bits:half in
  let p = gen () in
  let rec distinct () =
    let q = gen () in
    if Bigint.equal p q then distinct () else q
  in
  let q = distinct () in
  let n = Bigint.mul p q in
  let phi = Bigint.mul (Bigint.pred p) (Bigint.pred q) in
  { n; p; q; phi }
