(** A ServeDB-style baseline (Wu et al., ICDE 2019, simplified to one
    dimension): verifiable range queries over encrypted values using a
    hierarchical (dyadic) encoding and a Merkle tree over the encrypted
    index.

    This is the comparison system the paper positions itself against:
    ranges need only O(2·width) tokens (vs Slicer's per-slice tokens),
    but verification is {e private} — checking a response needs the
    secret keys (labels are keyed PRFs and result consistency is judged
    after decryption), so it cannot be delegated to a smart contract,
    and nothing here is forward-secure (an insert rebuilds the tree and
    links new entries to past labels). The ablation bench quantifies
    both sides of that trade. *)

type key

val keygen : rng:Drbg.t -> key

type server
(** The untrusted server's state: encrypted label index + Merkle tree
    over the sorted (label tag, encrypted IDs) leaves. *)

type leaf_evidence = {
  ev_tag : string;            (** the leaf's label tag *)
  ev_ids : string list;       (** encrypted record IDs under that tag *)
  ev_proof : Merkle.proof;    (** inclusion proof against the root *)
}

type response = {
  rsp_present : leaf_evidence list;
      (** evidence for every covering label that has data *)
  rsp_absent : (string * leaf_evidence option * leaf_evidence option) list;
      (** covering labels with no data: (tag, predecessor, successor)
          adjacency evidence in the sorted leaf order *)
}

val build : key -> width:int -> (string * int) list -> server
(** Indexes (record ID, value) pairs; IDs at most 15 bytes. *)

val insert : key -> server -> width:int -> (string * int) list -> server
(** Rebuilds the index over the union — ServeDB-style dynamics, with no
    forward security. *)

val root : server -> string
(** The digest the owner certifies: Merkle root plus committed leaf
    count (needed for sound absence proofs at the boundaries). *)

val search : key -> server -> width:int -> lo:int -> hi:int -> response
(** Range query [lo, hi] (inclusive): the server resolves the label
    tags of the dyadic cover. *)

val verify_and_decrypt :
  key -> root:string -> width:int -> lo:int -> hi:int -> response -> string list option
(** Client-side verification — note the key argument: this is exactly
    the private verifiability the paper contrasts with Slicer. Checks
    every covering label is accounted for (inclusion proof, or
    adjacent-pair absence proof), then decrypts and returns the IDs.
    [None] on any inconsistency. *)

val proof_bytes : response -> int
