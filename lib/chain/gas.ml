let tx_base = 21_000
let tx_create = 32_000
let code_deposit_per_byte = 200
let calldata_zero_byte = 4
let calldata_nonzero_byte = 16

let calldata payload =
  String.fold_left
    (fun acc c -> acc + if c = '\000' then calldata_zero_byte else calldata_nonzero_byte)
    0 payload

let word_bytes = 32
let words len = Stdlib.max 1 ((len + word_bytes - 1) / word_bytes)
let sstore_set = 20_000
let sstore_reset = 5_000
let sload = 2_100
let hash_base = 30
let hash_per_word = 6
let hash len = hash_base + (hash_per_word * ((len + 31) / 32))
let mulmod = 8
let log_base = 375
let log_per_byte = 8
let call_value_transfer = 9_000

(* EIP-2565. *)
let modexp ~base_len ~exp ~mod_len =
  let words = (Stdlib.max base_len mod_len + 7) / 8 in
  let mult_complexity = words * words in
  let exp_bits = Bigint.num_bits exp in
  let exp_len_bytes = (exp_bits + 7) / 8 in
  let iteration_count =
    if exp_len_bytes <= 32 then Stdlib.max 1 (exp_bits - 1)
    else (8 * (exp_len_bytes - 32)) + Stdlib.max 1 (Stdlib.min exp_bits 256 - 1)
  in
  Stdlib.max 200 (mult_complexity * iteration_count / 3)

(* Prime-representative reproduction (Prime_rep construction):
   candidates are 272-bit; the expected prime gap near 2^272 is
   ln(2^272) ~ 189, i.e. ~94 odd candidates. Trial division by the small
   prime table is modeled as one mulmod batch per candidate; roughly one
   candidate in ten survives to a base-2 Miller-Rabin modexp, and the
   found prime is confirmed by the strong Lucas half of Baillie–PSW.

   Pricing the Lucas ladder in modexp-equivalents: EIP-2565 charges one
   [mult_complexity] per exponent bit, so one modexp-equivalent is one
   full-size (272-bit) product per bit of a 272-bit exponent. The ladder
   runs over d = (n+1)/2^s and pays, per bit, U·V, V² and (Q^k)², plus
   D·U and Q^k·Q on the half of the bits that are set, priced at full
   size although D and Q are small: 3 + 2·(1/2) = 4 products per bit.
   The ~270-bit ladder sits under the 271 iterations the price counts,
   which covers the s - 1 trailing V doublings (E[s] = 2); the Jacobi
   steps of the D search are native-int. So 4 modexp-equivalents round
   the whole Lucas test up.

   This prices the U/V formulation a contract would run on chain. The
   host's own test (Bigint.Mont.strong_lucas) runs a V-only ladder in C,
   two or three products per bit, and recovers U_d = 0 from
   2V_(d+1) = V_d; that speeds the off-chain walk but is not what the
   chain is charged for, so the price stays. *)
let lucas_modexps = 4

(* One base-2 round on a 272-bit candidate: 2,258 gas. *)
let mr_round = modexp ~base_len:34 ~exp:(Bigint.shift_left Bigint.one 271) ~mod_len:34

let h_prime ~input_len =
  let candidates = 94 in
  let trial_division = candidates * 5 * mulmod in
  let survivors = 1 + (candidates / 10) in
  hash input_len + trial_division + ((survivors + lucas_modexps) * mr_round)

(* A hinted prime is one candidate, base + j, rebuilt from the input's
   digest and given the whole Baillie–PSW test: one base-2 round and
   the Lucas half. No trial division, no walk. *)
let h_prime_hinted ~input_len = hash input_len + ((1 + lucas_modexps) * mr_round)
