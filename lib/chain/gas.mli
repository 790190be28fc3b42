(** EVM-style gas schedule.

    Constants follow the Ethereum yellow paper / Berlin-era EIPs so the
    simulated chain charges the same costs the paper's Rinkeby contract
    paid: intrinsic transaction gas, calldata bytes, storage writes and
    reads, hashing, logs, contract creation, and the EIP-2565 modexp
    precompile the RSA verification rides on. Table II of the paper is
    regenerated against this schedule. *)

val tx_base : int
(** 21000 — intrinsic cost of any transaction. *)

val tx_create : int
(** 32000 — additional cost of a contract-creating transaction. *)

val code_deposit_per_byte : int
(** 200 — charged per byte of deployed code. *)

val calldata_zero_byte : int
(** 4 *)

val calldata_nonzero_byte : int
(** 16 *)

val calldata : string -> int
(** Cost of a calldata payload (per-byte zero/nonzero rule). *)

val word_bytes : int
(** 32 — an EVM storage slot holds one 32-byte word. *)

val words : int -> int
(** [words len] is the number of storage words a [len]-byte value
    occupies: [max 1 (ceil (len / 32))], so even an empty or missing
    value costs one slot access. Storage is priced per word. *)

val sstore_set : int
(** 20000 — storage write of a word that was not set before. *)

val sstore_reset : int
(** 5000 — storage write of a word that was already set. *)

val sload : int
(** 2100 — cold storage read of one word. *)

val hash_base : int
(** 30 — base cost of a hashing opcode. *)

val hash_per_word : int
(** 6 — per 32-byte word hashed. *)

val hash : int -> int
(** Hashing cost for a payload of the given byte length. *)

val mulmod : int
(** 8 — one 256-bit modular multiplication opcode. *)

val log_base : int
(** 375 — LOG0 base cost. *)

val log_per_byte : int
(** 8 *)

val call_value_transfer : int
(** 9000 — surcharge for a value-bearing internal call (settlement). *)

val modexp : base_len:int -> exp:Bigint.t -> mod_len:int -> int
(** EIP-2565 cost of the MODEXP precompile for a [base_len]-byte base,
    exponent [exp] and [mod_len]-byte modulus. *)

val h_prime : input_len:int -> int
(** Modeled cost of reproducing a prime representative on-chain: one
    hash of the input plus the expected candidate walk (trial divisions
    as mulmod batches, surviving candidates as 272-bit base-2 modexp
    rounds, and the found prime's strong Lucas test priced at 4
    modexp-equivalents): 35,372 gas plus the hash. What [dispute] pays
    per claim, since a disputer's hint cannot be trusted. Documented in
    DESIGN.md §5. *)

val h_prime_hinted : input_len:int -> int
(** Cost of checking one hinted prime representative: one hash of the
    input, then one Baillie–PSW test of the candidate the hint names,
    priced as a 272-bit base-2 modexp round plus the Lucas half's 4
    modexp-equivalents: 11,290 gas plus the hash, 24,082 less than
    {!h_prime}. What [submitResult] and [submitResultBatched] pay per
    claim (DESIGN.md §5, "Hinted primes"). *)
