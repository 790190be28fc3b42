(* Baseline: the small-domain left/right ORE of Lewi & Wu (CCS 2016),
   specialised to one block covering the whole domain.

   A left encryption of x is (F(k,x), its permuted slot); a right
   encryption of y is a nonce plus, for every domain element x', the
   value cmp(x', y) blinded by H(F(k,x'), nonce). Comparison needs one
   slot lookup — but the right ciphertext is O(2^width), which is exactly
   the succinctness gap the SORE ablation bench quantifies. Practical
   only for small widths (the constructors enforce width <= 12). *)

type key = {
  prf_kd : Hmac.keyed;  (* keyed contexts: every slot evaluation shares them *)
  perm_kd : Hmac.keyed;
  perms : (int, int array) Hashtbl.t;  (* the permutation per width *)
}

let max_width = 12

let keygen ~rng =
  let prf_key = Drbg.generate rng 16 and perm_key = Drbg.generate rng 16 in
  { prf_kd = Hmac.create ~key:prf_key;
    perm_kd = Hmac.create ~key:perm_key;
    perms = Hashtbl.create 2 }

type left = { lx : string; lpos : int; lwidth : int }
type right = { nonce : string; slots : int array; rwidth : int }

let check_width width =
  if width < 1 || width > max_width then invalid_arg "Lewi_wu: width must be in [1, 12]"

(* Pseudorandom permutation of the domain: sort domain elements by a
   keyed hash. Kept in the key per width — the sort is O(d log d). *)
let permutation key ~width =
  match Hashtbl.find_opt key.perms width with
  | Some p -> p
  | None ->
    let domain = 1 lsl width in
    let ranked =
      Array.init domain (fun v ->
          (Hmac.prf128_keyed key.perm_kd (Bytesutil.concat [ "pos"; string_of_int v ]), v))
    in
    Array.sort compare ranked;
    (* p.(v) = permuted position of domain element v. *)
    let p = Array.make domain 0 in
    Array.iteri (fun pos (_, v) -> p.(v) <- pos) ranked;
    Hashtbl.replace key.perms width p;
    p

let hash_cmp fk nonce = Char.code (Hmac.prf128 ~key:fk nonce).[0] mod 3

let encrypt_left key ~width x =
  check_width width;
  Bitvec.check_value ~width x;
  { lx = Hmac.prf128_keyed key.prf_kd (Bytesutil.concat [ "lw"; string_of_int x ]);
    lpos = (permutation key ~width).(x);
    lwidth = width }

let encrypt_right ~rng key ~width y =
  check_width width;
  Bitvec.check_value ~width y;
  let domain = 1 lsl width in
  let nonce = Drbg.generate rng 16 in
  let perm = permutation key ~width in
  (* cmp codes: 0 equal, 1 greater (x' > y), 2 less. *)
  let slots = Array.make domain 0 in
  for x' = 0 to domain - 1 do
    let cmp = if x' = y then 0 else if x' > y then 1 else 2 in
    let fk = Hmac.prf128_keyed key.prf_kd (Bytesutil.concat [ "lw"; string_of_int x' ]) in
    slots.(perm.(x')) <- (cmp + hash_cmp fk nonce) mod 3
  done;
  { nonce; slots; rwidth = width }

(* Returns -1, 0, 1 for x < y, x = y, x > y. *)
let compare_ct (l : left) (r : right) =
  if l.lwidth <> r.rwidth then invalid_arg "Lewi_wu: width mismatch";
  match (r.slots.(l.lpos) - hash_cmp l.lx r.nonce + 3) mod 3 with
  | 0 -> 0
  | 1 -> 1
  | _ -> -1

let right_bytes (r : right) = 16 + ((Array.length r.slots + 3) / 4)
let left_bytes (_ : left) = 16 + 4
