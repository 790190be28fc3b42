type params = { modulus : Bigint.t; generator : Bigint.t }

let setup ?(safe = false) ~rng ~bits () =
  let m = Primegen.random_rsa_modulus ~safe ~rng ~bits () in
  (* Random quadratic residue != 1: square a random unit. *)
  let rec gen () =
    let a = Bigint.add Bigint.two (Drbg.uniform_bigint rng (Bigint.sub m.Primegen.n (Bigint.of_int 3))) in
    if not (Bigint.equal (Bigint.gcd a m.Primegen.n) Bigint.one) then gen ()
    else begin
      let g = Bigint.mod_mul a a m.Primegen.n in
      if Bigint.equal g Bigint.one then gen () else g
    end
  in
  { modulus = m.Primegen.n; generator = gen () }

let default_params =
  let memo =
    lazy (setup ~rng:(Drbg.create ~seed:"slicer-rsa-accumulator-public-params-v1") ~bits:1024 ())
  in
  fun () -> Lazy.force memo

(* --- the batched/parallel substrate ------------------------------------ *)

(* Every chunked exponentiation fans out on the process-wide pool;
   sequential (domains=1) is the default, so the fan-out degenerates to
   an in-order loop and results are identical either way. *)
let run_chunks thunks = Parallel.Pool.run_all (Parallel.pool ()) thunks

(* Π xs by a balanced product tree (Pool.reduce): with the Karatsuba
   product kernel underneath this is O(M(B) log n) for B total exponent
   bits, versus O(B²/n) for the naive left fold. *)
let product xs = Parallel.Pool.reduce (Parallel.pool ()) Bigint.mul Bigint.one (Array.of_list xs)

(* Fixed-base anchor chains for (modulus, generator), shared process-wide
   so every accumulate/witness over the same public parameters reuses the
   same precomputed squarings. *)
let fixed_lock = Mutex.create ()
let fixed_cache : (string, Bigint.Fixed_base.powers) Hashtbl.t = Hashtbl.create 4

let fixed_of params =
  let key = Bigint.to_hex params.modulus ^ "|" ^ Bigint.to_hex params.generator in
  Mutex.lock fixed_lock;
  let fb =
    match Hashtbl.find_opt fixed_cache key with
    | Some fb -> fb
    | None ->
      let fb = Bigint.Fixed_base.create ~modulus:params.modulus params.generator in
      Hashtbl.replace fixed_cache key fb;
      fb
  in
  Mutex.unlock fixed_lock;
  fb

(* Per-modulus Montgomery contexts (word inverse, R mod m, R² mod m),
   shared process-wide: every exponentiation with a varying base —
   incremental adds, witness-tree refreshes, contract-side verification
   — reuses one immutable context instead of re-deriving the state per
   call. Contexts are safe to share across domains. *)
let mont_lock = Mutex.create ()
let mont_cache : (string, Bigint.Mont.ctx) Hashtbl.t = Hashtbl.create 4

let mont_of params =
  let key = Bigint.to_hex params.modulus in
  Mutex.lock mont_lock;
  let mc =
    match Hashtbl.find_opt mont_cache key with
    | Some mc -> mc
    | None ->
      let mc = Bigint.Mont.create params.modulus in
      Hashtbl.replace mont_cache key mc;
      mc
  in
  Mutex.unlock mont_lock;
  mc

(* [b^e mod modulus] through the shared context; the even-modulus
   fallback keeps degenerate test parameters working. *)
let pow_mod params b e =
  if Bigint.is_even params.modulus then Bigint.mod_pow b e params.modulus
  else Bigint.Mont.pow (mont_of params) b e

(* The anchor chain costs one squaring per bit of coverage — a full
   direct exponentiation — so one-shot callers ([accumulate],
   [non_mem_witness]) only use it when it is already built or a parallel
   pool can recoup the investment; otherwise they take the plain
   sliding-window ladder. Reuse-heavy callers ([all_witnesses], the
   witness index) call [g_pow_cached], which always invests: every subsequent witness
   then costs ~bits/8 multiplies instead of [bits] squarings. The value
   is identical on every path. *)
let g_pow_cached params e = Bigint.Fixed_base.pow ~run:run_chunks (fixed_of params) e

let g_pow params e =
  let fb = fixed_of params in
  if Parallel.Pool.size (Parallel.pool ()) > 1 || Bigint.Fixed_base.ready fb e then
    Bigint.Fixed_base.pow ~run:run_chunks fb e
  else Bigint.mod_pow params.generator e params.modulus

(* --- accumulation ------------------------------------------------------ *)

let accumulate params xs =
  match xs with
  | [] -> params.generator
  | [ x ] -> Obs.span "acc.fold" (fun () -> Bigint.mod_pow params.generator x params.modulus)
  | _ -> Obs.span "acc.fold" (fun () -> g_pow params (product xs))

let add params ac x = pow_mod params ac x

let add_batch params ac xs =
  match xs with
  | [] -> ac
  | [ x ] -> Obs.span "acc.fold" (fun () -> add params ac x)
  | _ -> Obs.span "acc.fold" (fun () -> pow_mod params ac (product xs))

(* --- membership witnesses ---------------------------------------------- *)

let mem_witness params xs x =
  if not (List.exists (fun y -> Bigint.equal y x) xs) then
    invalid_arg "Rsa_acc.mem_witness: element not in set";
  (* One occurrence divides out of the product exactly. *)
  Obs.span "acc.witness" (fun () -> g_pow params (Bigint.div (product xs) x))

(* Product segment tree: each node carries Π of its range so the witness
   descent raises a node's base by the sibling product in one
   exponentiation (instead of one mod_pow per prime). *)
type ptree =
  | Pleaf of Bigint.t * int
  | Pnode of Bigint.t * ptree * ptree

let tree_product = function Pleaf (x, _) -> x | Pnode (p, _, _) -> p

let spawn_depth pool =
  let rec log2up n = if n <= 1 then 0 else 1 + log2up ((n + 1) / 2) in
  log2up (Parallel.Pool.size pool) + 2

let build_tree pool arr =
  let rec go lo hi depth =
    if hi - lo = 1 then Pleaf (arr.(lo), lo)
    else begin
      let mid = (lo + hi) / 2 in
      let l, r =
        if depth > 0 then
          Parallel.Pool.both pool (fun () -> go lo mid (depth - 1)) (fun () -> go mid hi (depth - 1))
        else (go lo mid 0, go mid hi 0)
      in
      Pnode (Bigint.mul (tree_product l) (tree_product r), l, r)
    end
  in
  go 0 (Array.length arr) (spawn_depth pool)

let all_witnesses params xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let pool = Parallel.pool () in
    let out = Array.make n Bigint.zero in
    (* Root splitting: witness(x) = g^(Π xs \ x). Each node's base is g
       raised to everything outside its range; descending multiplies in
       the sibling's product. The two halves are independent, so they
       run on separate domains down to the spawn cutoff. *)
    let rec descend base tree depth =
      match tree with
      | Pleaf (_, i) -> out.(i) <- base
      | Pnode (_, l, r) ->
        let bl () = pow_mod params base (tree_product r) in
        let br () = pow_mod params base (tree_product l) in
        if depth > 0 then
          ignore
            (Parallel.Pool.both pool
               (fun () -> descend (bl ()) l (depth - 1))
               (fun () -> descend (br ()) r (depth - 1)))
        else begin
          descend (bl ()) l 0;
          descend (br ()) r 0
        end
    in
    (match build_tree pool arr with
     | Pleaf (_, i) -> out.(i) <- params.generator
     | Pnode (_, l, r) ->
       (* The root's two bases come off the fixed-base chain of g, whose
          digit segments are themselves pool-parallel. *)
       let bl = g_pow_cached params (tree_product r) in
       let br = g_pow_cached params (tree_product l) in
       let depth = spawn_depth pool in
       ignore
         (Parallel.Pool.both pool
            (fun () -> descend bl l (depth - 1))
            (fun () -> descend br r (depth - 1))));
    Array.to_list (Array.mapi (fun i w -> (arr.(i), w)) out)
  end

(* Membership verification is a pure function of (modulus, witness,
   exponents, Ac); verifiers re-check the same claim every time a query
   repeats, so a bounded process-wide memo turns the steady state into
   a hash lookup. Misbehaviour cannot alias into a stale entry: any
   tampered witness, claim prime or accumulator value changes the key. *)
let verify_limit = 65_536
let verify_memo : (string, bool) Hashtbl.t = Hashtbl.create 1024
let verify_lock = Mutex.create ()

let c_verify_hits =
  Obs.counter ~help:"membership-verification memo hits" "slicer_acc_verify_cache_hits_total"

let c_verify_misses =
  Obs.counter ~help:"membership-verification memo misses" "slicer_acc_verify_cache_misses_total"

let verify_memoized params ~ac ~xs ~witness =
  let key =
    String.concat "|"
      (Bigint.to_hex params.modulus :: Bigint.to_hex witness :: Bigint.to_hex ac
      :: List.map Bigint.to_hex xs)
  in
  Mutex.lock verify_lock;
  let cached = Hashtbl.find_opt verify_memo key in
  Mutex.unlock verify_lock;
  match cached with
  | Some v ->
    Obs.Counter.incr c_verify_hits;
    v
  | None ->
    Obs.Counter.incr c_verify_misses;
    let lifted = List.fold_left (fun w x -> pow_mod params w x) witness xs in
    let v = Bigint.equal lifted ac in
    Mutex.lock verify_lock;
    if Hashtbl.length verify_memo < verify_limit then Hashtbl.replace verify_memo key v;
    Mutex.unlock verify_lock;
    v

let verify_mem params ~ac ~x ~witness = verify_memoized params ~ac ~xs:[ x ] ~witness

(* --- batched membership ------------------------------------------------ *)

let batch_witness params xs subset =
  (* Dividing one subset occurrence at a time out of Π xs mirrors the
     multiset semantics: a non-member (or an over-counted duplicate)
     leaves a non-zero remainder at its own step. *)
  let remaining =
    List.fold_left
      (fun p x ->
        let q, r = Bigint.divmod p x in
        if not (Bigint.is_zero r) then invalid_arg "Rsa_acc.batch_witness: element not in set";
        q)
      (product xs) subset
  in
  Obs.span "acc.witness" (fun () -> g_pow params remaining)

let verify_mem_batch params ~ac ~xs ~witness = verify_memoized params ~ac ~xs ~witness

(* --- non-membership (universal accumulator, LLX '07) ------------------- *)

type non_mem_witness = { nw_a : Bigint.t; nw_d : Bigint.t }

let non_mem_witness params xs x =
  let u = product xs in
  let g, a, b = Bigint.egcd u x in
  if not (Bigint.equal g Bigint.one) then
    invalid_arg "Rsa_acc.non_mem_witness: element is (a factor of) the set product";
  (* Shift the Bézout pair so the exponent on Ac is positive:
     a' = a + kx, b' = b - ku still satisfy a'u + b'x = 1, and for
     a' >= 1 we have b' <= 0, so d = g^(-b') needs no inversion. *)
  let k =
    if Bigint.sign a > 0 then Bigint.zero
    else Bigint.succ (Bigint.div (Bigint.neg a) x)
  in
  let a' = Bigint.add a (Bigint.mul k x) in
  let b' = Bigint.sub b (Bigint.mul k u) in
  assert (Bigint.sign a' > 0);
  { nw_a = a'; nw_d = g_pow params (Bigint.neg b') }

let verify_non_mem params ~ac ~x ~witness =
  (* Ac^a = g^(a'u) = g^(1 - b'x) = g * d^x. *)
  let lhs = pow_mod params ac witness.nw_a in
  let rhs =
    Bigint.mod_mul params.generator (pow_mod params witness.nw_d x) params.modulus
  in
  Bigint.equal lhs rhs
