type public = { pn : Bigint.t; e : Bigint.t; pmont : Bigint.Mont.ctx }
type secret = { sn : Bigint.t; d : Bigint.t; smont : Bigint.Mont.ctx }

let public_exponent = Bigint.of_int 65537

let public_of_parts ~n ~e =
  if Bigint.compare n (Bigint.of_int 3) <= 0 then invalid_arg "Rsa_tdp.public_of_parts: modulus too small";
  if Bigint.is_even n then invalid_arg "Rsa_tdp.public_of_parts: even modulus";
  if Bigint.compare e Bigint.one <= 0 then invalid_arg "Rsa_tdp.public_of_parts: exponent too small";
  { pn = n; e; pmont = Bigint.Mont.create n }

let keygen ?(bits = 1024) ~rng () =
  let rec gen () =
    let m = Primegen.random_rsa_modulus ~rng ~bits () in
    match Bigint.mod_inv public_exponent m.Primegen.phi with
    | Some d ->
      let pk = public_of_parts ~n:m.Primegen.n ~e:public_exponent in
      (pk, { sn = m.Primegen.n; d; smont = pk.pmont })
    | None -> gen () (* gcd(e, phi) <> 1: rare, redraw *)
  in
  gen ()

let forward pk x = Bigint.Mont.pow pk.pmont x pk.e
let inverse sk x = Bigint.Mont.pow sk.smont x sk.d

let element_bytes pk = (Bigint.num_bits pk.pn + 7) / 8

let decode pk s =
  if String.length s <> element_bytes pk then invalid_arg "Rsa_tdp: bad element length";
  let x = Bigint.of_bytes_be s in
  if Bigint.compare x pk.pn >= 0 then invalid_arg "Rsa_tdp: element out of domain";
  x

let encode pk x = Bigint.to_bytes_be ~len:(element_bytes pk) x

let random_element ~rng pk = encode pk (Drbg.uniform_bigint rng pk.pn)

let forward_bytes pk s = encode pk (forward pk (decode pk s))

let inverse_bytes sk pk s = encode pk (inverse sk (decode pk s))
