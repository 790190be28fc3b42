type trapdoor_state = (string, string * int) Hashtbl.t

(* The accumulator's exponent arithmetic under its factorisation. [g]
   is a unit modulo [n = p q], so [g^e mod p] depends on [e] only modulo
   [p - 1] (and likewise for [q]): an exponent is kept as its two
   residues, and [g] raised to it is two half-size exponentiations
   recombined by CRT. Every value is the one [Rsa_acc] computes over
   the full exponent. *)
type crt = {
  cp : Bigint.t;
  cq : Bigint.t;
  p1 : Bigint.t;            (* p - 1 *)
  q1 : Bigint.t;            (* q - 1 *)
  mont_p : Bigint.Mont.ctx;
  mont_q : Bigint.Mont.ctx;
  g_p : Bigint.t;           (* g mod p *)
  g_q : Bigint.t;           (* g mod q *)
  q_inv : Bigint.t;         (* q^-1 mod p *)
}

let crt_of params =
  match Rsa_acc.factors params with
  | None ->
    invalid_arg
      "Owner.create: the accumulator parameters hold no factors (make them with Rsa_acc.setup)"
  | Some (cp, cq) ->
    let g = params.Rsa_acc.generator in
    { cp; cq;
      p1 = Bigint.pred cp;
      q1 = Bigint.pred cq;
      mont_p = Bigint.Mont.create cp;
      mont_q = Bigint.Mont.create cq;
      g_p = Bigint.erem g cp;
      g_q = Bigint.erem g cq;
      q_inv = Option.get (Bigint.mod_inv cq cp) }

(* [x mod (p - 1), x mod (q - 1)]. *)
let residues c x = (Bigint.erem x c.p1, Bigint.erem x c.q1)

let mul_residues c (ap, aq) (bp, bq) = (Bigint.mod_mul ap bp c.p1, Bigint.mod_mul aq bq c.q1)

(* [g^e mod n] for the exponent with residues [(ep, eq)], by Garner's
   recombination [a_q + q ((a_p - a_q) q^-1 mod p)]. *)
let g_pow c (ep, eq) =
  let a_p = Bigint.Mont.pow c.mont_p c.g_p ep and a_q = Bigint.Mont.pow c.mont_q c.g_q eq in
  let h = Bigint.mod_mul (Bigint.erem (Bigint.sub a_p a_q) c.cp) c.q_inv c.cp in
  Bigint.add a_q (Bigint.mul c.cq h)

type t = {
  o_width : int;
  o_rng : Drbg.t;
  o_params : Rsa_acc.params;
  o_crt : crt;
  o_keys : Keys.master;
  o_kprf : Keys.prf; (* keyed context for K, shared by every G1/G2 derivation *)
  o_kr : Aes128.key; (* K_R expanded once: Enc(K_R, R) for every record id *)
  trapdoors : trapdoor_state;                   (* T *)
  set_hashes : (string, Mset_hash.t) Hashtbl.t; (* S, keyed by token bytes *)
  seen_ids : (string, unit) Hashtbl.t;
  (* The product of every accumulated prime, as its residues modulo
     [p - 1] and [q - 1]; [ac] is [g] to it. *)
  mutable exponent : Bigint.t * Bigint.t;
  mutable ac : Bigint.t;
  mutable built : bool;
  mutable t_index : float;
  mutable t_ads : float;
}

type timings = { index_seconds : float; ads_seconds : float }

type keyword_group = {
  kg_g1 : string;
  kg_entries : string;
  kg_prime : Bigint.t;
}

type shipment = {
  sh_groups : keyword_group list;
  sh_ac : Bigint.t;
  sh_witnesses : Bigint.t list;
}

let record_len = Enc_index.record_len

let group_entry_count g = String.length g.kg_entries / record_len

let shipment_entry_count sh =
  List.fold_left (fun n g -> n + group_entry_count g) 0 sh.sh_groups

let shipment_entries sh =
  List.concat_map
    (fun g ->
      List.init (group_entry_count g) (fun k ->
          let off = k * record_len in
          ( String.sub g.kg_entries off Enc_index.label_len,
            String.sub g.kg_entries (off + Enc_index.label_len) Enc_index.payload_len )))
    sh.sh_groups
let shipment_primes sh = List.map (fun g -> g.kg_prime) sh.sh_groups

let create ?(width = 16) ~rng ~acc_params ~keys () =
  { o_width = width;
    o_rng = rng;
    o_params = acc_params;
    o_crt = crt_of acc_params;
    o_keys = keys;
    o_kprf = Keys.prf_of_key keys.Keys.k;
    o_kr = Aes128.expand keys.Keys.k_r;
    trapdoors = Hashtbl.create 256;
    set_hashes = Hashtbl.create 256;
    seen_ids = Hashtbl.create 256;
    exponent = (Bigint.one, Bigint.one);
    ac = acc_params.Rsa_acc.generator;
    built = false;
    t_index = 0.;
    t_ads = 0. }

let keys t = t.o_keys
let acc_params t = t.o_params
let current_ac t = t.ac
let keyword_count t = Hashtbl.length t.trapdoors

(* Keywords of one record: per field, the equality keyword plus the b
   SORE ciphertext tuples. *)
let keywords_of t record =
  List.concat_map
    (fun (attr, v) ->
      Bitvec.equality_keyword ~attr ~width:t.o_width v :: Bitvec.cipher_tuples ~attr ~width:t.o_width v)
    record.Slicer_types.fields

(* Folds a shipment's primes into the exponent and [Ac]. With
   [witnessed], also returns each prime's witness against the new [Ac]:
   [g] to the exponent before the shipment times every other new prime,
   read off the prefix and suffix products of the new primes' residues,
   one CRT exponentiation per prime across the pool. Else returns []. *)
let fold_primes t ~witnessed primes =
  let c = t.o_crt in
  let rs = Array.of_list (List.map (residues c) primes) in
  let n = Array.length rs in
  (* [prefix.(i)]: the old exponent times the first [i] new primes;
     [suffix.(i)]: the new primes from [i] on. *)
  let prefix = Array.make (n + 1) t.exponent in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- mul_residues c prefix.(i) rs.(i)
  done;
  t.exponent <- prefix.(n);
  t.ac <- g_pow c t.exponent;
  if not witnessed then []
  else begin
    let suffix = Array.make (n + 1) (Bigint.one, Bigint.one) in
    for i = n - 1 downto 0 do
      suffix.(i) <- mul_residues c rs.(i) suffix.(i + 1)
    done;
    Array.to_list
      (Parallel.Pool.map (Parallel.pool ())
         (fun i -> g_pow c (mul_residues c prefix.(i) suffix.(i + 1)))
         (Array.init n Fun.id))
  end

let token_key ~trapdoor ~j ~g1 ~g2 =
  Slicer_types.token_bytes
    { Slicer_types.st_trapdoor = trapdoor; st_updates = j; st_g1 = g1; st_g2 = g2 }

(* One keyword's slice of an update, after the sequential trapdoor
   bookkeeping: everything needed to derive its index entries and
   set-hash without touching shared state. *)
type keyword_job = {
  kj_trapdoor : string;
  kj_j : int;
  kj_h0 : Mset_hash.t;
  kj_g1 : string;
  kj_g2 : string;
  kj_enc_ids : string array; (* Enc(K_R, id), in record order *)
}

(* Entry derivation for one keyword: the trapdoor chain of counters is
   inherently sequential within the keyword, so keywords are the
   parallel shards. Each entry is written straight into the keyword's
   packed [l ‖ d] records. Pure — safe on any domain. *)
let run_job job =
  let g1k = Keys.prf_of_key job.kj_g1 and g2k = Keys.prf_of_key job.kj_g2 in
  let h = ref job.kj_h0 in
  let records = Bytes.create (Array.length job.kj_enc_ids * record_len) in
  Array.iteri
    (fun c enc_id ->
      let l, mask = Keys.f_pair g1k g2k ~trapdoor:job.kj_trapdoor ~counter:c in
      h := Mset_hash.add !h enc_id;
      let off = c * record_len in
      Bytes.blit_string l 0 records off Enc_index.label_len;
      for i = 0 to Enc_index.payload_len - 1 do
        Bytes.set records
          (off + Enc_index.label_len + i)
          (Char.unsafe_chr (Char.code mask.[i] lxor Char.code enc_id.[i]))
      done)
    job.kj_enc_ids;
  let tk = token_key ~trapdoor:job.kj_trapdoor ~j:job.kj_j ~g1:job.kj_g1 ~g2:job.kj_g2 in
  (Bytes.unsafe_to_string records, !h, tk, Bytesutil.concat [ tk; Mset_hash.to_bytes !h ])

(* Core of Algorithms 1 and 2: fold a batch of records into the state,
   returning the shipment for the cloud and chain.

   Pipeline: (1) slice records into keywords across the domain pool;
   (2) sequentially group by keyword, encrypt each record id once, and
   advance trapdoor chains in first-seen keyword order (the only RNG
   consumer, so the draw order is pool-size independent); (3) fan the
   per-keyword entry/set-hash derivation across the pool; (4) batch the
   prime walks, fold the primes into the exponent's residues and raise
   [g] to it by CRT, and for a Build derive every prime's witness the
   same way. Every phase either preserves input order or is keyed by
   it, so the shipment is byte-identical at every pool size. *)
let add_records t ~witnessed records =
  let started = Unix.gettimeofday () in
  let ads_time = ref 0. in
  let timed_ads f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    ads_time := !ads_time +. (Unix.gettimeofday () -. t0);
    r
  in
  List.iter (Slicer_types.check_record ~width:t.o_width) records;
  List.iter
    (fun r ->
      if Hashtbl.mem t.seen_ids r.Slicer_types.id then
        invalid_arg (Printf.sprintf "Owner: duplicate record id %S" r.Slicer_types.id);
      Hashtbl.replace t.seen_ids r.Slicer_types.id ())
    records;
  let pool = Parallel.pool () in
  let record_arr = Array.of_list records in
  (* Phase 1: record -> keyword/tuple slicing, fanned across the pool. *)
  let keyword_slices =
    Obs.span "core.slice" (fun () -> Parallel.Pool.map pool (keywords_of t) record_arr)
  in
  (* Each record id is encrypted exactly once, not once per keyword. *)
  let enc_ids = Array.map (fun r -> Aes128.encrypt_string t.o_kr r.Slicer_types.id) record_arr in
  (* Phase 2: group encrypted ids by keyword, preserving record order. *)
  let by_keyword : (string, string list ref) Hashtbl.t = Hashtbl.create 1024 in
  let keyword_order = ref [] in
  Array.iteri
    (fun i ws ->
      let enc_id = enc_ids.(i) in
      List.iter
        (fun w ->
          match Hashtbl.find_opt by_keyword w with
          | Some ids -> ids := enc_id :: !ids
          | None ->
            Hashtbl.replace by_keyword w (ref [ enc_id ]);
            keyword_order := w :: !keyword_order)
        ws)
    keyword_slices;
  let keywords = Array.of_list (List.rev !keyword_order) in
  (* Per-keyword G1/G2 derivation is independent of the trapdoor state:
     fan it out too. *)
  let gpairs =
    Parallel.Pool.map pool (fun w -> (Keys.g1_keyed t.o_kprf w, Keys.g2_keyed t.o_kprf w)) keywords
  in
  (* Trapdoor bookkeeping: fresh chain for a new keyword, or advance the
     chain with the inverse permutation (forward security). Sequential
     in first-seen order — this is where the RNG is consumed. *)
  let jobs =
    Array.mapi
      (fun i w ->
        let g1, g2 = gpairs.(i) in
        let trapdoor, j, h0 =
          match Hashtbl.find_opt t.trapdoors w with
          | None -> (Rsa_tdp.random_element ~rng:t.o_rng t.o_keys.Keys.tdp_public, 0, Mset_hash.empty)
          | Some (told, jold) ->
            let old_tk = token_key ~trapdoor:told ~j:jold ~g1 ~g2 in
            let h0 =
              match Hashtbl.find_opt t.set_hashes old_tk with
              | Some h ->
                Hashtbl.remove t.set_hashes old_tk;
                h
              | None -> Mset_hash.empty
            in
            (Rsa_tdp.inverse_bytes t.o_keys.Keys.tdp_secret t.o_keys.Keys.tdp_public told, jold + 1, h0)
        in
        Hashtbl.replace t.trapdoors w (trapdoor, j);
        { kj_trapdoor = trapdoor;
          kj_j = j;
          kj_h0 = h0;
          kj_g1 = g1;
          kj_g2 = g2;
          kj_enc_ids = Array.of_list (List.rev !(Hashtbl.find by_keyword w)) })
      keywords
  in
  (* Phase 3: per-entry (l, d) derivation and set-hash folds, sharded by
     keyword across the pool. *)
  let results = Obs.span "core.derive" (fun () -> Parallel.Pool.map pool run_job jobs) in
  let prime_inputs = ref [] in
  Array.iter
    (fun (_, h, tk, prime_input) ->
      Hashtbl.replace t.set_hashes tk h;
      prime_inputs := prime_input :: !prime_inputs)
    results;
  (* The prime walks dominate ADS build; one batched call fans them out
     across the domain pool. *)
  let new_primes = timed_ads (fun () -> Prime_rep.to_primes (List.rev !prime_inputs)) in
  let witnesses =
    timed_ads (fun () -> Obs.span "acc.fold" (fun () -> fold_primes t ~witnessed new_primes))
  in
  t.t_ads <- !ads_time;
  t.t_index <- Unix.gettimeofday () -. started -. !ads_time;
  (* Per-keyword groups, aligned with [results]/[gpairs]/[new_primes]:
     each keyword's entries and prime travel together so a router can
     split the shipment by shard key (a prefix of the keyword's G1 key)
     without re-deriving anything. *)
  let prime_arr = Array.of_list new_primes in
  let groups =
    Array.to_list
      (Array.mapi
         (fun i (records, _, _, _) ->
           { kg_g1 = fst gpairs.(i); kg_entries = records; kg_prime = prime_arr.(i) })
         results)
  in
  { sh_groups = groups; sh_ac = t.ac; sh_witnesses = witnesses }

let build t records =
  if t.built then invalid_arg "Owner.build: already built (use insert)";
  t.built <- true;
  Obs.span "core.build" (fun () -> add_records t ~witnessed:true records)

let insert t records =
  if not t.built then invalid_arg "Owner.insert: call build first";
  Obs.span "core.insert" (fun () -> add_records t ~witnessed:false records)

let export_trapdoor_state t = Hashtbl.copy t.trapdoors

let last_timings t = { index_seconds = t.t_index; ads_seconds = t.t_ads }
