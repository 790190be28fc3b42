let counter_bits = 16
let bits = 256 + counter_bits

(* H_prime is a pure function each party (owner, cloud, contract)
   evaluates on the same inputs; a process-wide memo table removes the
   repeated prime walks. The table is mutex-guarded so batched
   generation can fan the (pure) prime walks out across domains, and
   bounded so a long-lived server cannot grow it without limit. *)
let cache_limit = 1_000_000
let cache : (string, Bigint.t) Hashtbl.t = Hashtbl.create 4096
let cache_lock = Mutex.create ()

let c_hits = Obs.counter ~help:"prime-representative memo hits" "slicer_acc_prime_cache_hits_total"

let c_misses =
  Obs.counter ~help:"prime-representative memo misses" "slicer_acc_prime_cache_misses_total"

let g_entries = Obs.gauge ~help:"prime-representative memo entries" "slicer_acc_prime_cache_entries"

(* Against the memo's misses (one walk each), the tests per walk: about
   11.5 at the 8192 sieve bound, about 94 with no sieve. *)
let c_tests =
  Obs.counter ~help:"Baillie-PSW tests run by prime-representative walks"
    "slicer_acc_prime_tests_total"

type cache_stats = { cs_entries : int; cs_hits : int; cs_misses : int; cs_limit : int }

let cache_stats () =
  Mutex.lock cache_lock;
  let cs_entries = Hashtbl.length cache in
  Mutex.unlock cache_lock;
  { cs_entries; cs_hits = Obs.Counter.value c_hits; cs_misses = Obs.Counter.value c_misses;
    cs_limit = cache_limit }

(* Offsets per sieve window: 256 odd candidates, where a walk takes 94
   on average (odd 272-bit integers are prime with density about
   1/94). *)
let window = 512

(* The start of [s]'s candidate interval: the digest with the top bit
   forced, so every representative has exactly [bits] significant bits,
   shifted over the counter field. *)
let base_of s =
  let digest = Sha256.digest (Bytesutil.concat [ "h-prime"; s ]) in
  let high = Bigint.of_bytes_be digest in
  let high = Bigint.add (Bigint.shift_left Bigint.one 255) (Bigint.erem high (Bigint.shift_left Bigint.one 255)) in
  Bigint.shift_left high counter_bits

(* The candidate walk sieves by windows: the residues of [base] modulo
   the small primes come from one kernel call; from them each odd prime
   p strikes off the odd offsets j of a window with p | base + j (the
   first at -base mod p, made odd, then every 2p), and each window's
   survivors get the deterministic Baillie–PSW test in order: two kernel
   calls on one Montgomery context per survivor. *)
let prime_walk s =
  let base = base_of s in
  let primes = Sieve.small_primes in
  (* next.(i): the next odd offset that primes.(i) divides. Index 0
     (p = 2) is never used: odd offsets on an even base are never
     even. *)
  let next = Bigint.residues base primes in
  for i = 0 to Array.length next - 1 do
    let p = primes.(i) and r = next.(i) in
    let j = if r = 0 then 0 else p - r in
    next.(i) <- (if j land 1 = 0 then j + p else j)
  done;
  let struck = Bytes.create (window / 2) in
  let sieve lo =
    Bytes.fill struck 0 (window / 2) '\000';
    for i = 1 to Array.length primes - 1 do
      let j = ref next.(i) in
      while !j < lo + window do
        Bytes.set struck ((!j - lo) / 2) '\001';
        j := !j + (2 * primes.(i))
      done;
      next.(i) <- !j
    done
  in
  let rec walk j tests =
    if j >= 1 lsl counter_bits then failwith "Prime_rep: no prime in the candidate interval"
    else begin
      if j mod window = 1 then sieve (j - 1);
      if Bytes.get struck (j mod window / 2) <> '\000' then walk (j + 2) tests
      else
        let candidate = Bigint.add_int base j in
        if Primality.baillie_psw candidate then begin
          Obs.Counter.add c_tests (tests + 1);
          candidate
        end
        else walk (j + 2) (tests + 1)
    end
  in
  walk 1 0 (* odd offsets only *)

(* Span per walk, not per batch: [to_primes] runs the walks on pool
   domains, so the histogram attributes time to the domain doing it. *)
let to_prime_uncached s = Obs.span "acc.prime_derive" (fun () -> prime_walk s)

let lookup s =
  Mutex.lock cache_lock;
  let r = Hashtbl.find_opt cache s in
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

let is_representative_of x s = Bigint.equal x (to_prime s)

let offset x = snd (Bigint.divmod_int x (1 lsl counter_bits))

(* The bound is the soundness argument: inside [s]'s interval every
   prime past the first was never accumulated, so no witness verifies
   for it; past the interval, base + j lies in another digest's
   interval and may be another claim's accumulated prime. A memo hit
   answers only when it holds [s]'s prime at this very offset; any
   other j gets its own test, and what passes is never memoized, since
   it need not be [s]'s first prime. *)
let of_offset s j =
  if j land 1 = 0 || j <= 0 || j >= 1 lsl counter_bits then None
  else
    match lookup s with
    | Some x when offset x = j -> Some x
    | Some _ | None ->
      let candidate = Bigint.add_int (base_of s) j in
      if Primality.baillie_psw candidate then Some candidate else None
