(** The data user: search-token generation (Algorithm 3) and result
    decryption.

    Users hold the secret keys [K], [K_R], the trapdoor {e public} key
    and a copy of the trapdoor state [T]. They are quasi-honest: token
    generation is faithful, but result acceptance is not trusted — which
    is exactly why settlement is decided on chain, not by the user. *)

type t

val create : keys:Keys.user_keys -> width:int -> Owner.trapdoor_state -> t

val update_state : t -> Owner.trapdoor_state -> unit
(** Receive a fresh [T] from the owner after an insert. *)

val gen_tokens : rng:Drbg.t -> t -> Slicer_types.query -> Slicer_types.search_token list
(** Algorithm 3: the equality keyword or the [b] shuffled SORE query
    tuples, mapped through [T] — tuples with no indexed data yield no
    token. *)

val decrypt_results : t -> string list -> string list
(** Decrypts encrypted record IDs with [K_R]. *)
