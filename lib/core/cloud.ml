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
  (* Snapshot support for Stale_results: positions added by the most
     recent shipment, and the prime list before it. *)
  mutable last_shipment : (string, unit) Hashtbl.t;
  mutable prev_primes : Bigint.t list;
  mutable witness_cache : (string, Bigint.t) Hashtbl.t option;
  (* Shared product tree over [primes]: built lazily on first witness,
     after which every VO is one exact division + one fixed-base
     exponentiation instead of an O(n) re-accumulation. Extended in
     place by [install] (one multiply), never rebuilt. *)
  mutable acc_ctx : Rsa_acc.ctx option;
  (* Persistent witness index: keeps the product/root-split tree alive
     across operations so a warm witness is a table lookup. [None]
     when disabled ([~witness_index:false]) — the ctx path then serves
     every VO. *)
  use_index : bool;
  mutable windex : Witness_tree.t option;
  (* Served-claim cache: an honest repeated token costs one lookup
     instead of an index walk + multiset hash + witness. Reset whenever
     the index state or the behaviour mode changes. *)
  claim_cache : (string, Slicer_contract.claim) Hashtbl.t;
  (* Batched replies cache under the whole token sequence: the combined
     witness is a per-query Shamir recombination, so a repeat served
     from the table saves the exponentiations, not just the walk. *)
  batch_cache : (string, Slicer_contract.claim list * Bigint.t) Hashtbl.t;
}

let claim_cache_limit = 65_536

let c_claim_hits =
  Obs.counter ~help:"served-claim cache hits" "slicer_cloud_claim_cache_hits_total"

let c_claim_misses =
  Obs.counter ~help:"served-claim cache misses" "slicer_cloud_claim_cache_misses_total"

let create ?(witness_index = true) ~acc_params ~tdp_public () =
  { c_params = acc_params;
    c_tdp = tdp_public;
    index = Enc_index.create ();
    primes = [];
    ac = acc_params.Rsa_acc.generator;
    mode = Honest;
    last_shipment = Hashtbl.create 1;
    prev_primes = [];
    witness_cache = None;
    acc_ctx = None;
    use_index = witness_index;
    windex = None;
    claim_cache = Hashtbl.create 256;
    batch_cache = Hashtbl.create 64 }

let windex_of t =
  match t.windex with
  | Some wt -> Some wt
  | None ->
    if not t.use_index then None
    else begin
      let wt = Witness_tree.create t.c_params in
      Witness_tree.append wt t.primes;
      t.windex <- Some wt;
      Some wt
    end

let install t ~entries ~primes ~ac =
  Hashtbl.reset t.claim_cache;
  Hashtbl.reset t.batch_cache;
  t.prev_primes <- t.primes;
  t.last_shipment <- Hashtbl.create (List.length entries);
  List.iter
    (fun (l, d) ->
      Enc_index.put t.index ~l ~d;
      Hashtbl.replace t.last_shipment l ())
    entries;
  t.primes <- t.primes @ primes;
  t.ac <- ac;
  t.witness_cache <- None;
  (* Insert extends the long-lived structures instead of discarding
     them: the shared product gains one multiply, the witness index
     recomputes only its O(log n) spine. Warm witnesses survive and
     are lazily re-based on the next lookup. *)
  (match t.acc_ctx with
   | Some c -> t.acc_ctx <- Some (Rsa_acc.ctx_extend c primes)
   | None -> ());
  match t.windex with
  | Some wt -> Witness_tree.append wt primes
  | None -> ignore (windex_of t)

let set_behavior t m =
  if m <> t.mode then begin
    Hashtbl.reset t.claim_cache;
    Hashtbl.reset t.batch_cache
  end;
  t.mode <- m
let behavior t = t.mode

(* Snapshot export: the merged view of every shipment installed so
   far. [install]ing these on a fresh cloud reproduces the same
   index/primes/ac (snapshot-only granularity:
   Stale_results' one-shipment lookback resets, which only affects the
   misbehaviour demo, never honest state). *)
let entries t =
  let acc = ref [] in
  Enc_index.iter (fun l d -> acc := (l, d) :: !acc) t.index;
  List.sort compare !acc

let primes t = t.primes
let current_ac t = t.ac

let precompute_witnesses t =
  match windex_of t with
  | Some wt -> Witness_tree.warm_all wt
  | None ->
    let cache = Hashtbl.create (List.length t.primes) in
    List.iter
      (fun (x, w) -> Hashtbl.replace cache (Bigint.to_string x) w)
      (Rsa_acc.all_witnesses t.c_params t.primes);
    t.witness_cache <- Some cache

let ctx_of t =
  match t.acc_ctx with
  | Some c -> c
  | None ->
    let c = Rsa_acc.context t.c_params t.primes in
    t.acc_ctx <- Some c;
    c

let witness_for t ~primes x =
  let cached =
    match t.witness_cache with
    | Some cache when t.mode <> Stale_results -> Hashtbl.find_opt cache (Bigint.to_string x)
    | Some _ | None -> None
  in
  match cached with
  | Some w -> w
  | None ->
    if primes == t.primes then begin
      match (if t.mode = Stale_results then None else windex_of t) with
      | Some wt ->
        (* The maintained index serves (or lazily re-bases) the leaf;
           a miss is a non-member claim, same as the ctx fallback. *)
        ( match Witness_tree.witness wt x with Some w -> w | None -> Bigint.one )
      | None ->
        ( try Rsa_acc.ctx_witness (ctx_of t) x with Invalid_argument _ -> Bigint.one )
    end
    else
      (* Snapshot prime lists (Stale_results) don't get a context: the
         misbehaving path need not be fast. *)
      ( try Rsa_acc.mem_witness t.c_params primes x with Invalid_argument _ -> Bigint.one )

let c_tokens = Obs.counter ~help:"search tokens served" "slicer_cloud_tokens_total"

(* Algorithm 4 traversal: walk generations j..0, scanning counters under
   each trapdoor until the first miss. *)
let collect_results_untimed t (st : Slicer_types.search_token) =
  let stale = t.mode = Stale_results in
  let find l =
    if stale && Hashtbl.mem t.last_shipment l then None else Enc_index.find t.index l
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

let claim_input ~token_bytes results =
  let h = Mset_hash.of_list results in
  Bytesutil.concat [ token_bytes; Mset_hash.to_bytes h ]

let claim_prime ~token_bytes results = Prime_rep.to_prime (claim_input ~token_bytes results)

let search_one_uncached t st =
  let results = delivered_results t st in
  let token_bytes = Slicer_types.token_bytes st in
  let x = claim_prime ~token_bytes results in
  let primes = if t.mode = Stale_results then t.prev_primes else t.primes in
  let witness = witness_for t ~primes x in
  let witness = if t.mode = Forge_witness then Bigint.succ witness else witness in
  { Slicer_contract.token_bytes; results; witness }

let search_one t st =
  if t.mode <> Honest then search_one_uncached t st
  else begin
    let token_bytes = Slicer_types.token_bytes st in
    match Hashtbl.find_opt t.claim_cache token_bytes with
    | Some c ->
      Obs.Counter.incr c_claim_hits;
      c
    | None ->
      Obs.Counter.incr c_claim_misses;
      let c = search_one_uncached t st in
      if Hashtbl.length t.claim_cache < claim_cache_limit then
        Hashtbl.replace t.claim_cache token_bytes c;
      c
  end

let search_batched_uncached t sts =
  Obs.span "cloud.search" @@ fun () ->
  let partial =
    List.map
      (fun st ->
        let results = delivered_results t st in
        let token_bytes = Slicer_types.token_bytes st in
        (token_bytes, results, claim_input ~token_bytes results))
      sts
  in
  (* One batched derivation: cache hits are free, misses fan their
     prime search over the pool instead of running one by one. *)
  let xs = Prime_rep.to_primes (List.map (fun (_, _, input) -> input) partial) in
  let witness =
    if t.mode = Stale_results then
      try Rsa_acc.batch_witness t.c_params t.prev_primes xs with Invalid_argument _ -> Bigint.one
    else
      match windex_of t with
      | Some wt -> ( try Witness_tree.batch_witness wt xs with Invalid_argument _ -> Bigint.one )
      | None ->
        ( try Rsa_acc.ctx_batch_witness (ctx_of t) xs with Invalid_argument _ -> Bigint.one )
  in
  let witness = if t.mode = Forge_witness then Bigint.succ witness else witness in
  let claims =
    List.map
      (fun (token_bytes, results, _) ->
        (* Per-claim witnesses are replaced by the one batch object. *)
        { Slicer_contract.token_bytes; results; witness = Bigint.one })
      partial
  in
  (claims, witness)

let search_batched t sts =
  Obs.Counter.add c_tokens (List.length sts);
  if t.mode <> Honest then search_batched_uncached t sts
  else begin
    let key = Bytesutil.concat (List.map Slicer_types.token_bytes sts) in
    match Hashtbl.find_opt t.batch_cache key with
    | Some r ->
      Obs.Counter.incr c_claim_hits;
      r
    | None ->
      Obs.Counter.incr c_claim_misses;
      let r = search_batched_uncached t sts in
      if Hashtbl.length t.batch_cache < claim_cache_limit then Hashtbl.replace t.batch_cache key r;
      r
  end

let search t sts =
  Obs.Counter.add c_tokens (List.length sts);
  Obs.span "cloud.search" (fun () -> List.map (search_one t) sts)

type search_timings = { result_seconds : float; vo_seconds : float }

let search_instrumented t sts =
  let result_time = ref 0. and vo_time = ref 0. in
  let claims =
    List.map
      (fun st ->
        let t0 = Unix.gettimeofday () in
        let results = collect_results t st in
        let t1 = Unix.gettimeofday () in
        let h = Mset_hash.of_list results in
        let token_bytes = Slicer_types.token_bytes st in
        let x = Prime_rep.to_prime (Bytesutil.concat [ token_bytes; Mset_hash.to_bytes h ]) in
        let witness = witness_for t ~primes:t.primes x in
        let t2 = Unix.gettimeofday () in
        result_time := !result_time +. (t1 -. t0);
        vo_time := !vo_time +. (t2 -. t1);
        { Slicer_contract.token_bytes; results; witness })
      sts
  in
  (claims, { result_seconds = !result_time; vo_seconds = !vo_time })

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
          claim_input ~token_bytes:(Slicer_types.token_bytes st) results)
        fresh
    in
    let xs = Prime_rep.to_primes inputs in
    match windex_of t with
    | Some wt -> List.iter (fun x -> ignore (Witness_tree.witness wt x)) xs
    | None -> ()

let witness_index_stats t = Option.map Witness_tree.stats t.windex
let witness_index_bytes t = match t.windex with Some wt -> Witness_tree.size_bytes wt | None -> 0

let export_witness_index t =
  match t.windex with Some wt -> Witness_tree.export wt | None -> ""

let restore_witness_index t blob =
  if String.length blob = 0 then None
  else match windex_of t with Some wt -> Witness_tree.absorb wt blob | None -> None

let index_entries t = Enc_index.entry_count t.index
let index_bytes t = Enc_index.size_bytes t.index
let prime_count t = List.length t.primes
let ads_bytes t = 34 * List.length t.primes
