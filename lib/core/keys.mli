(** Key material and the PRFs F and G of the paper.

    [K] keys the keyword-derivation PRF [G]; [K_R] is the record
    encryption key; the trapdoor permutation key pair drives forward
    security. The data owner holds everything; authorized data users
    receive [K], [K_R], the trapdoor {e public} key and the trapdoor
    state [T]. *)

type master = {
  k : string;                 (** PRF key K (16 bytes) *)
  k_r : string;               (** record encryption key K_R (16 bytes) *)
  tdp_public : Rsa_tdp.public;
  tdp_secret : Rsa_tdp.secret;
}

type user_keys = {
  u_k : string;
  u_k_r : string;
  u_tdp_public : Rsa_tdp.public;
}

val generate : ?tdp_bits:int -> rng:Drbg.t -> unit -> master
(** Fresh master keys; [tdp_bits] defaults to 512 (the trapdoor chain is
    exercised constantly, and 512 keeps experiments brisk — pass 1024+
    for deployment-grade parameters). *)

val for_user : master -> user_keys
(** What the owner hands to an authorized data user (no trapdoor secret:
    users cannot forge future insertions). *)

type prf
(** A keyed PRF context ({!Hmac.keyed} under the hood): the ipad/opad
    key blocks are compressed once at construction, halving the SHA-256
    work of every subsequent evaluation. Immutable — safe to share
    across the domain pool. *)

val prf_of_key : string -> prf

val g1_keyed : prf -> string -> string
(** [G(K, w ‖ 1)] under a prepared context for [K]. *)

val g2_keyed : prf -> string -> string
(** [G(K, w ‖ 2)] under a prepared context for [K]. *)

val f_keyed : prf -> trapdoor:string -> counter:int -> string
(** The PRF [F] applied to [t ‖ c] under a prepared context. *)

val f_pair : prf -> prf -> trapdoor:string -> counter:int -> string * string
(** [f_pair g1 g2 ~trapdoor ~counter] evaluates [F] under both
    per-keyword contexts on a single shared [t ‖ c] encoding — the
    position/mask pair of one index entry. *)
