type secret = { sp : Bigint.t; sq : Bigint.t }

type params = {
  modulus : Bigint.t;
  generator : Bigint.t;
  mont : Bigint.Mont.ctx;
  secret : secret option;
}

let of_parts ~modulus ~generator secret =
  if Bigint.is_even modulus || Bigint.compare modulus (Bigint.of_int 3) < 0 then
    invalid_arg "Rsa_acc.params_of_parts: the modulus must be odd and at least 3";
  { modulus; generator; mont = Bigint.Mont.create modulus; secret }

let params_of_parts ~modulus ~generator = of_parts ~modulus ~generator None

let factors params = Option.map (fun s -> (s.sp, s.sq)) params.secret

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
  of_parts ~modulus:m.Primegen.n ~generator:(gen ())
    (Some { sp = m.Primegen.p; sq = m.Primegen.q })

(* --- the batched/parallel substrate ------------------------------------ *)

(* Π xs by a balanced product tree (Pool.reduce): with the Karatsuba
   product kernel underneath this is O(M(B) log n) for B total exponent
   bits, versus O(B²/n) for the naive left fold. *)
let product xs = Parallel.Pool.reduce (Parallel.pool ()) Bigint.mul Bigint.one (Array.of_list xs)

(* [b^e mod modulus] on the parameters' Montgomery context. *)
let pow_mod params b e = Bigint.Mont.pow params.mont b e

(* [(b^e1, b^e2)] from one squaring chain shared by both exponents. *)
let pow_mod2 params b e1 e2 = Bigint.Mont.pow2 params.mont b e1 e2

(* g takes the same sliding-window ladder as every other base. *)
let g_pow params e = pow_mod params params.generator e

(* --- accumulation ------------------------------------------------------ *)

let add params ac x = pow_mod params ac x

let add_batch params ac xs =
  match xs with
  | [] -> ac
  | _ -> Obs.span "acc.fold" (fun () -> pow_mod params ac (product xs))

let accumulate params xs = add_batch params params.generator xs

(* --- membership witnesses ---------------------------------------------- *)

let mem_witness params xs x =
  if not (List.exists (fun y -> Bigint.equal y x) xs) then
    invalid_arg "Rsa_acc.mem_witness: element not in set";
  (* One occurrence divides out of the product exactly. *)
  Obs.span "acc.witness" (fun () -> g_pow params (Bigint.div (product xs) x))

(* Product segment tree: each node carries Π of its range so the witness
   descent raises a node's base by the sibling product in one
   exponentiation (instead of one per prime). *)
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
       raised to everything outside its range, so the root's is g itself;
       descending multiplies in the sibling's product. The two halves are
       independent, so they run on separate domains down to the spawn
       cutoff. *)
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
    descend params.generator (build_tree pool arr) (spawn_depth pool);
    Array.to_list (Array.mapi (fun i w -> (arr.(i), w)) out)
  end

let verify_mem params ~ac ~x ~witness = Bigint.equal (pow_mod params witness x) ac

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

(* Lifting the witness through each exponent in turn is the shape the
   metered contract charges: one modexp per prime. *)
let verify_mem_batch params ~ac ~xs ~witness =
  Bigint.equal (List.fold_left (fun w x -> pow_mod params w x) witness xs) ac

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
