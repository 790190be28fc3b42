(** The data owner: Build (Algorithm 1) and forward-secure Insert
    (Algorithm 2).

    The owner maintains the trapdoor state [T] (keyword → newest
    trapdoor and generation count) and the set-hash state [S] (token →
    multiset hash of every encrypted result under that keyword so far).
    Each Build/Insert produces a shipment of fresh index entries and
    prime representatives for the cloud, grouped by keyword, plus the
    new accumulation value for the blockchain. *)

type t

type trapdoor_state = (string, string * int) Hashtbl.t
(** The [T] dictionary the owner shares with authorized users. *)

type keyword_group = {
  kg_g1 : string;             (** the keyword's G1 PRF key — the shard key *)
  kg_entries : string;
      (** this keyword's entries as packed 32-byte [l ‖ d] records
          ({!Enc_index.record_len}), the index arena's slot layout *)
  kg_prime : Bigint.t;        (** this keyword's fresh prime representative *)
}
(** One keyword's slice of a shipment. A keyword's whole counter chain
    must live on one cloud shard (Algorithm 4 scans counters until the
    first miss), so a cluster router splits shipments by group — never
    by individual entry. [kg_g1] equals [st_g1] of every search token
    for the keyword, so tokens route to the same shard as the data. *)

type shipment = {
  sh_groups : keyword_group list;      (** the new entries and primes, one group per keyword *)
  sh_ac : Bigint.t;                    (** accumulation value after the update *)
  sh_witnesses : Bigint.t list;
      (** A Build's: one membership witness per group, in group order,
          against [sh_ac]. An Insert's: none. *)
}
(** A Build/Insert shipment. Each index entry and each new prime
    representative appears exactly once, inside its keyword's group;
    the flat views below are derived from the groups, never stored, and
    neither the wire nor the WAL carries them. The cloud installs the
    witnesses unchecked, as it takes [sh_ac]: the contract checks every
    claim before it pays. *)

val shipment_entry_count : shipment -> int
(** The number of new index entries, over all groups. *)

val shipment_entries : shipment -> (string * string) list
(** The new index entries unpacked into [(l, d)] pairs, in keyword
    order: an inspection view that copies every entry. *)

val shipment_primes : shipment -> Bigint.t list
(** The new prime representatives [X⁺]: one per group, in keyword order. *)

val create :
  ?width:int -> rng:Drbg.t -> acc_params:Rsa_acc.params -> keys:Keys.master -> unit -> t
(** Fresh owner state. [width] is the value bit-count [b]
    (default 16; the paper evaluates 8, 16 and 24). [acc_params] must
    be the ones {!Rsa_acc.setup} returned: the owner keeps the product
    of its accumulated primes modulo [p - 1] and [q - 1] and computes
    every [Ac] and witness by CRT from them.
    @raise Invalid_argument on parameters that hold no factors. *)

val keys : t -> Keys.master
val acc_params : t -> Rsa_acc.params
val current_ac : t -> Bigint.t

val build : t -> Slicer_types.record list -> shipment
(** Algorithm 1, shipping every prime's witness. May only be called
    once, on a fresh state.
    @raise Invalid_argument on duplicate record IDs or reuse. *)

val insert : t -> Slicer_types.record list -> shipment
(** Algorithm 2: touched keywords advance their trapdoor chain with
    [π_sk⁻¹]; new keywords start one. The shipment carries no witness.
    @raise Invalid_argument on duplicate record IDs. *)

val export_trapdoor_state : t -> trapdoor_state
(** Snapshot of [T] for the data user (the owner→user channel of the
    paper's Fig. 1; re-export after every insert). *)

val keyword_count : t -> int
(** Number of distinct keywords — the ADS size driver (Fig. 3b/4b). *)

type timings = { index_seconds : float; ads_seconds : float }

val last_timings : t -> timings
(** Wall-clock split of the most recent {!build}/{!insert}: time spent
    producing index entries (PRFs, record encryption, multiset hashes)
    versus time spent on the ADS (prime representatives and
    accumulation) — the two series of Fig. 3 and Fig. 7. *)
