type misbehavior =
  | Honest
  | Drop_result
  | Inject_result
  | Tamper_result
  | Forge_witness
  | Stale_results

type t = {
  c_params : Rsa_acc.params;
  c_tdp : Rsa_tdp.public;
  index : Enc_index.t;
  mutable primes : Bigint.t list;
  mutable ac : Bigint.t;
  mutable mode : misbehavior;
  (* Stale_results answers from the index before the most recent
     shipment (the arena marks that shipment's slots) and from the
     prime list before it. *)
  mutable prev_primes : Bigint.t list;
  (* Persistent witness index over [primes]: Insert recomputes only its
     O(log n) product spine, and a warm witness is a table lookup. *)
  windex : Witness_tree.t;
  (* Served-claim cache: an honest repeated token costs one lookup
     instead of an index walk + multiset hash + witness. Each claim
     keeps its prime's hint, so a hit settles without rebuilding the
     claim input. Reset whenever the index state or the behaviour mode
     changes. *)
  claim_cache : (string, Slicer_contract.claim * int) Hashtbl.t;
  (* What this cloud has added to the two size gauges so far. *)
  index_bytes_shown : int Atomic.t;
  windex_bytes_shown : int Atomic.t;
}

let claim_cache_limit = 65_536

let c_claim_hits =
  Obs.counter ~help:"served-claim cache hits" "slicer_cloud_claim_cache_hits_total"

let c_claim_misses =
  Obs.counter ~help:"served-claim cache misses" "slicer_cloud_claim_cache_misses_total"

let g_index_bytes =
  Obs.gauge ~help:"encrypted-index arena bytes (slots and occupancy), all clouds"
    "slicer_cloud_index_bytes"

let g_windex_bytes =
  Obs.gauge ~help:"witness-tree bytes (products, bases, stamps), all clouds"
    "slicer_witness_tree_bytes"

(* Each cloud adds the change since its own last report, so the clouds
   of one process (in-process shards) sum. The exchange makes reports
   from the install and the background warm telescope: the gauge ends
   at the last size read, whichever thread read it. *)
let report_sizes t =
  let show gauge shown now = Obs.Gauge.add gauge (now - Atomic.exchange shown now) in
  show g_index_bytes t.index_bytes_shown (Enc_index.capacity_bytes t.index);
  show g_windex_bytes t.windex_bytes_shown (Witness_tree.size_bytes t.windex)

let create ~acc_params ~tdp_public () =
  { c_params = acc_params;
    c_tdp = tdp_public;
    index = Enc_index.create ();
    primes = [];
    ac = acc_params.Rsa_acc.generator;
    mode = Honest;
    prev_primes = [];
    windex = Witness_tree.create acc_params;
    claim_cache = Hashtbl.create 256;
    index_bytes_shown = Atomic.make 0;
    windex_bytes_shown = Atomic.make 0 }

let install t ~records ~primes ~ac =
  Hashtbl.reset t.claim_cache;
  t.prev_primes <- t.primes;
  Enc_index.install t.index records;
  t.primes <- t.primes @ primes;
  t.ac <- ac;
  (* Only the O(log n) spine is recomputed: warm witnesses survive and
     are lazily re-based on the next lookup. *)
  Witness_tree.append t.windex primes;
  report_sizes t

let install_shipment t (sh : Owner.shipment) =
  install t
    ~records:(List.map (fun g -> g.Owner.kg_entries) sh.Owner.sh_groups)
    ~primes:(Owner.shipment_primes sh) ~ac:sh.Owner.sh_ac

let set_behavior t m =
  if m <> t.mode then Hashtbl.reset t.claim_cache;
  t.mode <- m

(* Snapshot export: the merged view of every shipment installed so
   far. [install]ing these on a fresh cloud reproduces the same
   index/primes/ac (snapshot-only granularity:
   Stale_results' one-shipment lookback resets, which only affects the
   misbehaviour demo, never honest state). *)
let sorted_records t = Enc_index.sorted_records t.index

let primes t = t.primes
let current_ac t = t.ac

let precompute_witnesses t =
  Witness_tree.warm_all t.windex;
  report_sizes t

(* The membership witness for a claim prime. [Stale_results] answers
   against the prime list before the last install, recomputed from
   scratch: the misbehaving path need not be fast. A non-member gets
   [Bigint.one], which the contract refuses. *)
let witness_for t x =
  if t.mode = Stale_results then
    try Rsa_acc.mem_witness t.c_params t.prev_primes x with Invalid_argument _ -> Bigint.one
  else match Witness_tree.witness t.windex x with Some w -> w | None -> Bigint.one

let c_tokens = Obs.counter ~help:"search tokens served" "slicer_cloud_tokens_total"

(* Algorithm 4 traversal: walk generations j..0, scanning counters under
   each trapdoor until the first miss. *)
let collect_results t (st : Slicer_types.search_token) =
  Obs.span "cloud.collect" @@ fun () ->
  let find =
    if t.mode = Stale_results then Enc_index.find_before_latest t.index
    else Enc_index.find t.index
  in
  let results = ref [] in
  let trapdoor = ref st.Slicer_types.st_trapdoor in
  (* Keyed PRF contexts amortize the G1/G2 key blocks across the whole
     counter scan of every generation. *)
  let g1k = Keys.prf_of_key st.Slicer_types.st_g1 in
  let g2k = Keys.prf_of_key st.Slicer_types.st_g2 in
  for i = st.Slicer_types.st_updates downto 0 do
    let rec scan c =
      let l = Keys.f_keyed g1k ~trapdoor:!trapdoor ~counter:c in
      match find l with
      | None -> ()
      | Some d ->
        let r = Bytesutil.xor (Keys.f_keyed g2k ~trapdoor:!trapdoor ~counter:c) d in
        results := r :: !results;
        scan (c + 1)
    in
    scan 0;
    if i > 0 then trapdoor := Rsa_tdp.forward_bytes t.c_tdp !trapdoor
  done;
  List.rev !results

let flip_bit s =
  if String.length s = 0 then s
  else String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) s

(* Results after the configured misbehaviour is applied. *)
let delivered_results t st =
  let honest_results = collect_results t st in
  match t.mode with
  | Honest | Forge_witness | Stale_results -> honest_results
  | Drop_result -> ( match honest_results with [] -> [] | _ :: rest -> rest )
  | Inject_result -> honest_results @ [ Sha256.digest "bogus" |> fun d -> String.sub d 0 16 ]
  | Tamper_result -> ( match honest_results with [] -> [] | r :: rest -> flip_bit r :: rest )

(* The claim step both searches share: Algorithm 4 and the claim input
   once per token, then one [Prime_rep.to_primes] over every input, which
   fans the fresh prime walks out across the pool. Each token yields its
   token bytes, delivered results and claim prime. *)
let claim_primes t sts =
  let claims =
    List.map
      (fun st ->
        let token_bytes = Slicer_types.token_bytes st in
        let results = delivered_results t st in
        (token_bytes, results, Slicer_contract.claim_input ~token_bytes results))
      sts
  in
  List.map2
    (fun (token_bytes, results, _) x -> (token_bytes, results, x))
    claims
    (Prime_rep.to_primes (List.map (fun (_, _, input) -> input) claims))

let forged t w = if t.mode = Forge_witness then Bigint.succ w else w

(* A claim and its prime's hint: the offset of the prime the witness
   was made for, which the contract checks instead of walking. *)
let answer t (token_bytes, results, x) =
  ({ Slicer_contract.token_bytes; results; witness = forged t (witness_for t x) }, Prime_rep.offset x)

(* The tokens the claim cache does not answer go through the claim step
   together; a misbehaving cloud answers every token afresh. *)
let search t sts =
  Obs.Counter.add c_tokens (List.length sts);
  Obs.span "cloud.search" @@ fun () ->
  let cached st =
    if t.mode = Honest then Hashtbl.find_opt t.claim_cache (Slicer_types.token_bytes st) else None
  in
  let looked = List.map (fun st -> (st, cached st)) sts in
  let fresh =
    List.filter_map (fun (st, hit) -> if Option.is_none hit then Some st else None) looked
  in
  let rec merge looked built =
    match (looked, built) with
    | [], _ -> []
    | (_, Some hit) :: rest, _ ->
      Obs.Counter.incr c_claim_hits;
      hit :: merge rest built
    | (_, None) :: rest, ((c, _) as answered) :: more ->
      if t.mode = Honest then begin
        Obs.Counter.incr c_claim_misses;
        if Hashtbl.length t.claim_cache < claim_cache_limit then
          Hashtbl.replace t.claim_cache c.Slicer_contract.token_bytes answered
      end;
      answered :: merge rest more
    | (_, None) :: _, [] -> assert false
  in
  List.split (merge looked (List.map (answer t) (claim_primes t fresh)))

let search_batched t sts =
  Obs.Counter.add c_tokens (List.length sts);
  Obs.span "cloud.search" @@ fun () ->
  let claims = claim_primes t sts in
  let xs = List.map (fun (_, _, x) -> x) claims in
  let witness =
    try
      if t.mode = Stale_results then Rsa_acc.batch_witness t.c_params t.prev_primes xs
      else Witness_tree.batch_witness t.windex xs
    with Invalid_argument _ -> Bigint.one
  in
  ( List.map
      (fun (token_bytes, results, _) ->
        (* Per-claim witnesses are replaced by the one batch object. *)
        { Slicer_contract.token_bytes; results; witness = Bigint.one })
      claims,
    List.map Prime_rep.offset xs,
    forged t witness )

let witness_index_stats t = Witness_tree.stats t.windex
let export_witness_index t = Witness_tree.export t.windex
let restore_witness_index t blob =
  let absorbed = Witness_tree.absorb t.windex blob in
  report_sizes t;
  absorbed

let index_entries t = Enc_index.entry_count t.index
let index_bytes t = Enc_index.size_bytes t.index
let prime_count t = List.length t.primes
let ads_bytes t = 34 * List.length t.primes
