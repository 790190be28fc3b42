(** The leakage functions of Section VI-B, made executable.

    Each function computes exactly what the corresponding party observes
    — never plaintexts, keys or keyword identities — so tests can assert
    the implementation leaks no more than the paper's
    [(L_build, L_search, L_insert, L_repeat)] profile. The forward-
    security test is the sharpest use: two same-shape batches of
    {e different} records must produce identical insert leakage. *)

type build_leakage = {
  bl_entry_count : int;          (** [p]: number of index entries *)
  bl_position_bits : int;        (** [|l|] *)
  bl_payload_bits : int;         (** [|d|] *)
  bl_prime_count : int;          (** [q]: size of the prime list *)
  bl_prime_bits : int;           (** [|x|] *)
  bl_witness_count : int;
      (** witnesses shipped: [q] for a Build, 0 for an Insert *)
}
(** [L_build(DB) = (<|l|,|d|>_p, |x|_q)] — what the cloud sees in a
    Build shipment. The same shape describes [L_insert(DB+)]. A Build's
    witnesses add no leakage: each is [g^(Π X \ {x})] mod [N], a
    function of [g], [N] and the primes, which the server already
    holds (its own warm computes the same values); only their count,
    fixed by [q], is shipped. *)

val of_shipment : Owner.shipment -> build_leakage

val equal_build : build_leakage -> build_leakage -> bool

type search_leakage = {
  sl_token_count : int;             (** [n] *)
  sl_generations : int list;        (** each token's [j] *)
  sl_result_counts : int list;      (** matched entries per token *)
  sl_result_bits : int;             (** [|er|] element width *)
}
(** The observable part of [L_search(v, mc)]: token count, trapdoor
    generations and per-token match counts — never the queried value. *)

val of_search : Slicer_types.search_token list -> Slicer_contract.claim list -> search_leakage

val repeat_matrix : Slicer_types.search_token list -> bool array array
(** [L_repeat]'s matrix [M]: [M.(i).(j)] iff tokens [i] and [j] of the
    query history are identical (the search-pattern leakage). *)
