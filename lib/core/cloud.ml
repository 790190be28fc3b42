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
     instead of an index walk + multiset hash + witness. Reset whenever
     the index state or the behaviour mode changes. *)
  claim_cache : (string, Slicer_contract.claim) Hashtbl.t;
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
let behavior t = t.mode

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
let collect_results_untimed t (st : Slicer_types.search_token) =
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

let collect_results t st = Obs.span "cloud.collect" (fun () -> collect_results_untimed t st)

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

(* The claim step both searches share: the token's delivered results
   and the prime representative of its claim input. *)
let claim t st =
  let token_bytes = Slicer_types.token_bytes st in
  let results = delivered_results t st in
  (token_bytes, results, Prime_rep.to_prime (Slicer_contract.claim_input ~token_bytes results))

let forged t w = if t.mode = Forge_witness then Bigint.succ w else w

let search_one t st =
  let token_bytes, results, x = claim t st in
  { Slicer_contract.token_bytes; results; witness = forged t (witness_for t x) }

let search t sts =
  Obs.Counter.add c_tokens (List.length sts);
  Obs.span "cloud.search" @@ fun () ->
  List.map
    (fun st ->
      if t.mode <> Honest then search_one t st
      else begin
        let token_bytes = Slicer_types.token_bytes st in
        match Hashtbl.find_opt t.claim_cache token_bytes with
        | Some c ->
          Obs.Counter.incr c_claim_hits;
          c
        | None ->
          Obs.Counter.incr c_claim_misses;
          let c = search_one t st in
          if Hashtbl.length t.claim_cache < claim_cache_limit then
            Hashtbl.replace t.claim_cache token_bytes c;
          c
      end)
    sts

let search_batched t sts =
  Obs.Counter.add c_tokens (List.length sts);
  Obs.span "cloud.search" @@ fun () ->
  let claims = List.map (claim t) sts in
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
    forged t witness )

(* Speculative warm-up driven from the query stream: derive (and cache)
   the claim primes a token batch will need, and touch their leaves so
   the witness index re-bases them off the hot path. Misbehaving modes
   perturb the delivered results, so only the honest cloud warms. *)
let warm_tokens t sts =
  (* Tokens whose claims are already cached have nothing left to warm:
     speculation only pays for genuinely fresh queries. *)
  let fresh =
    List.filter
      (fun st -> not (Hashtbl.mem t.claim_cache (Slicer_types.token_bytes st)))
      sts
  in
  if t.mode = Honest && fresh <> [] then
    Obs.span "cloud.warm" @@ fun () ->
    let inputs =
      List.map
        (fun st ->
          let results = collect_results_untimed t st in
          Slicer_contract.claim_input ~token_bytes:(Slicer_types.token_bytes st) results)
        fresh
    in
    List.iter (fun x -> ignore (Witness_tree.witness t.windex x)) (Prime_rep.to_primes inputs)

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
