let counter_bits = 16

(* H_prime is a pure function each party (owner, cloud, contract)
   evaluates on the same inputs; a process-wide memo table removes the
   repeated prime walks. The table is mutex-guarded so batched
   generation can fan the (pure) prime walks out across domains, and
   bounded so a long-lived server cannot grow it without limit. *)
let cache_limit = 1_000_000
let cache : (string, Bigint.t) Hashtbl.t = Hashtbl.create 4096
let cache_lock = Mutex.create ()
let hits = ref 0
let misses = ref 0

let c_hits = Obs.counter ~help:"prime-representative memo hits" "slicer_acc_prime_cache_hits_total"

let c_misses =
  Obs.counter ~help:"prime-representative memo misses" "slicer_acc_prime_cache_misses_total"

let g_entries = Obs.gauge ~help:"prime-representative memo entries" "slicer_acc_prime_cache_entries"

type cache_stats = { cs_entries : int; cs_hits : int; cs_misses : int; cs_limit : int }

let cache_stats () =
  Mutex.lock cache_lock;
  let s =
    { cs_entries = Hashtbl.length cache; cs_hits = !hits; cs_misses = !misses; cs_limit = cache_limit }
  in
  Mutex.unlock cache_lock;
  s

(* The candidate walk sieves incrementally: the residue of [base] modulo
   each small prime is computed once with bigint division, after which
   every candidate [base + j] is screened with native-int arithmetic
   only. Survivors get the deterministic Baillie–PSW test, whose two
   halves share one Montgomery context per survivor. *)
let prime_walk s =
  let digest = Sha256.digest (Bytesutil.concat [ "h-prime"; s ]) in
  (* high = digest with the top bit forced so every representative has
     exactly 256 + counter_bits significant bits. *)
  let high = Bigint.of_bytes_be digest in
  let high = Bigint.add (Bigint.shift_left Bigint.one 255) (Bigint.erem high (Bigint.shift_left Bigint.one 255)) in
  let base = Bigint.shift_left high counter_bits in
  let nprimes = Array.length Sieve.small_primes in
  let residues = Array.make nprimes 0 in
  for i = 0 to nprimes - 1 do
    residues.(i) <- snd (Bigint.divmod_int base Sieve.small_primes.(i))
  done;
  let survives_sieve j =
    let rec go i =
      i >= nprimes
      || ((residues.(i) + j) mod Sieve.small_primes.(i) <> 0 && go (i + 1))
    in
    (* Skip index 0 (p = 2): odd offsets on an even base are never even. *)
    go 1
  in
  let rec walk j =
    if j >= 1 lsl counter_bits then failwith "Prime_rep.to_prime: no prime in interval"
    else if not (survives_sieve j) then walk (j + 2)
    else
      let candidate = Bigint.add_int base j in
      if Primality.baillie_psw candidate then candidate else walk (j + 2)
  in
  walk 1 (* odd offsets only *)

(* Span per walk, not per batch: [to_primes] runs the walks on pool
   domains, so the histogram attributes time to the domain doing it. *)
let to_prime_uncached s = Obs.span "acc.prime_derive" (fun () -> prime_walk s)

let lookup s =
  Mutex.lock cache_lock;
  let r = Hashtbl.find_opt cache s in
  (match r with Some _ -> incr hits | None -> incr misses);
  Mutex.unlock cache_lock;
  (match r with Some _ -> Obs.Counter.incr c_hits | None -> Obs.Counter.incr c_misses);
  r

let store s x =
  Mutex.lock cache_lock;
  if Hashtbl.length cache < cache_limit then Hashtbl.replace cache s x;
  let n = Hashtbl.length cache in
  Mutex.unlock cache_lock;
  Obs.Gauge.set g_entries n

let to_prime s =
  match lookup s with
  | Some x -> x
  | None ->
    let x = to_prime_uncached s in
    store s x;
    x

let to_primes ss =
  (* One pass partitions hits from misses; the misses (deduplicated, so
     a repeated token costs one walk) fan out across the pool. The prime
     walk is a pure function of the input string, so parallel order
     cannot change any representative. *)
  let cached = List.map (fun s -> (s, lookup s)) ss in
  let fresh = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (s, r) ->
      if r = None && not (Hashtbl.mem fresh s) then begin
        Hashtbl.replace fresh s None;
        order := s :: !order
      end)
    cached;
  let todo = Array.of_list (List.rev !order) in
  if Array.length todo > 0 then begin
    let found = Parallel.Pool.map (Parallel.pool ()) to_prime_uncached todo in
    Array.iteri
      (fun i s ->
        Hashtbl.replace fresh s (Some found.(i));
        store s found.(i))
      todo
  end;
  List.map
    (fun (s, r) ->
      match r with
      | Some x -> x
      | None -> ( match Hashtbl.find fresh s with Some x -> x | None -> assert false ))
    cached

(* Speculative batch warm-up: derive-and-cache without needing the
   representatives back. Misses fan over the pool, so warming k fresh
   inputs costs ~one walk of wall clock on a parallel pool. *)
let warm ss = ignore (to_primes ss : Bigint.t list)

let is_representative_of x s = Bigint.equal x (to_prime s)
