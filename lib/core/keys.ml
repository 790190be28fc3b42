type master = {
  k : string;
  k_r : string;
  tdp_public : Rsa_tdp.public;
  tdp_secret : Rsa_tdp.secret;
}

type user_keys = { u_k : string; u_k_r : string; u_tdp_public : Rsa_tdp.public }

let generate ?(tdp_bits = 512) ~rng () =
  let tdp_public, tdp_secret = Rsa_tdp.keygen ~bits:tdp_bits ~rng () in
  { k = Drbg.generate rng 16; k_r = Drbg.generate rng 16; tdp_public; tdp_secret }

let for_user m = { u_k = m.k; u_k_r = m.k_r; u_tdp_public = m.tdp_public }

type prf = Hmac.keyed

let prf_of_key key = Hmac.create ~key

let g1_keyed kp w = Hmac.prf128_keyed kp (Bytesutil.concat [ w; "1" ])
let g2_keyed kp w = Hmac.prf128_keyed kp (Bytesutil.concat [ w; "2" ])

let f_keyed kp ~trapdoor ~counter =
  Hmac.prf128_keyed kp (Bytesutil.concat [ trapdoor; string_of_int counter ])

(* Position and mask share the [t ‖ c] message encoding; build it once. *)
let f_pair kp1 kp2 ~trapdoor ~counter =
  let msg = Bytesutil.concat [ trapdoor; string_of_int counter ] in
  (Hmac.prf128_keyed kp1 msg, Hmac.prf128_keyed kp2 msg)
