(* Persistent, incrementally maintained witness index over the
   accumulator's prime multiset.

   An append-only leaf array of primes, plus a heap-layout segment tree
   over it in which every node carries a lazily maintained *base* — [g]
   raised to the product of all leaves OUTSIDE the node's range. A
   leaf's base is exactly its membership witness. The tree keeps only
   what costs exponentiations to make: the leaves (each an [H_prime]
   walk), the bases and their stamps. It stores no product: a product
   is bigint multiplies over a range of leaves, computed where it is
   needed and dropped after.

   Maintenance contract:
   - [append] writes the new leaves. No product and no witness is
     touched.
   - Every cached base carries a generation stamp: the leaf count at the
     time it was computed. Appends never remove leaves, so a base stamped
     at generation [gen] is refreshed to the current generation [count]
     by ONE exponentiation with the product of the appended leaves that
     fall outside the node's range — amortized lazy refresh instead of
     eager all-witness recompute.
   - A node with no cached base is computed cold by one descent step from
     its (recursively refreshed) parent: [parent_base ^ sibling_product],
     the same root-splitting identity [all_witnesses] uses. The sibling's
     product is multiplied from its leaves, so a cold descent multiplies
     the sibling ranges on its path (n leaves in all, once) and costs the
     same O(B) squarings a from-scratch [mem_witness] would; everything
     after it is warm.
   - [warm_all] builds one transient product tree over the leaves, runs
     the root-splitting descent over it and drops it.

   Values are position-independent: a leaf's witness is
   [g^(Π multiset \ x)] no matter how the tree is shaped, so incremental
   maintenance, [warm_all], cold descents and the from-scratch rebuild
   all agree byte-for-byte, at every pool size (the pool's combinators
   fix their bracketing from input sizes alone, and every combination
   step is exact arithmetic).

   All public operations take the tree's mutex; internal helpers assume
   it is held. Pool fan-out inside [warm_all] and the products writes
   disjoint array slots and never touches the lock, so it cannot
   deadlock. *)

let c_hits =
  Obs.counter ~help:"witness-index lookups served from a fresh cached base"
    "slicer_witness_index_hits_total"

let c_refreshes =
  Obs.counter ~help:"witness-index stale bases refreshed by one delta exponentiation"
    "slicer_witness_index_refreshes_total"

let c_cold =
  Obs.counter ~help:"witness-index bases computed cold (descent from parent)"
    "slicer_witness_index_cold_total"

let c_misses =
  Obs.counter ~help:"witness-index lookups for primes not in the index"
    "slicer_witness_index_misses_total"

let g_leaves = Obs.gauge ~help:"witness-index leaf count" "slicer_witness_index_leaves"

type t = {
  wt_params : Rsa_acc.params;
  lock : Mutex.t;
  mutable cap : int;                       (* leaf capacity, power of two *)
  mutable count : int;                     (* leaves in use = current generation *)
  (* [leaves.(p)] is the prime appended at position [p] ([cap] slots).
     The bases use the heap layout over [2*cap] slots, root at 1, leaf
     [p] at [cap + p]: [base.(i)]/[bgen.(i)] are node [i]'s lazily
     maintained outside-product exponentiation and its generation
     stamp. *)
  mutable leaves : Bigint.t array;
  mutable base : Bigint.t option array;
  mutable bgen : int array;
  (* [Hashtbl.hash] of a prime -> the first leaf position holding it.
     The leaves are the primes' one copy: a lookup compares them. *)
  index : (int, int) Hashtbl.t;
  mutable cached_ac : (Bigint.t * int) option;
  (* Per-tree counters (the Obs counters aggregate across trees). *)
  mutable n_hits : int;
  mutable n_refreshes : int;
  mutable n_cold : int;
  mutable n_misses : int;
}

type stats = {
  ws_leaves : int;
  ws_cached : int;        (* leaves with a cached witness, any generation *)
  ws_fresh : int;         (* leaves whose cached witness is current *)
  ws_hits : int;
  ws_refreshes : int;
  ws_cold : int;
  ws_misses : int;
}

let create params =
  { wt_params = params;
    lock = Mutex.create ();
    cap = 1;
    count = 0;
    leaves = Array.make 1 Bigint.one;
    base = Array.make 2 None;
    bgen = Array.make 2 0;
    index = Hashtbl.create 64;
    cached_ac = None;
    n_hits = 0;
    n_refreshes = 0;
    n_cold = 0;
    n_misses = 0 }

let leaf_count t = t.count

(* The first leaf position holding prime [x]. *)
let position t x =
  List.find_opt (fun p -> Bigint.equal t.leaves.(p) x) (Hashtbl.find_all t.index (Hashtbl.hash x))

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Range [lo, hi) of node [i] in the current layout. *)
let node_range t i =
  let rec level n = if n <= 1 then 0 else 1 + level (n lsr 1) in
  let lvl = level i in
  let span = t.cap lsr lvl in
  let lo = (i - (1 lsl lvl)) * span in
  (lo, lo + span)

let leaves t n =
  with_lock t (fun () ->
      Array.to_list (Array.sub t.leaves 0 (Stdlib.max 0 (Stdlib.min n t.count))))

(* Π leaves[a, b): balanced reduce over the leaf slots, bracketing fixed
   by the range length. *)
let leaf_product t a b =
  if b <= a then Bigint.one
  else Parallel.Pool.reduce (Parallel.pool ()) Bigint.mul Bigint.one (Array.sub t.leaves a (b - a))

(* The product of the leaves in node [i]'s range that are in use. *)
let node_product t i =
  let lo, hi = node_range t i in
  leaf_product t lo (Stdlib.min hi t.count)

(* Double the capacity until [need] leaves fit. Leaves and leaf bases
   survive verbatim (a witness does not depend on tree shape); interior
   bases are dropped and recomputed lazily. *)
let grow t need =
  let rec cap_for c = if c >= need then c else cap_for (2 * c) in
  let ncap = cap_for (Stdlib.max 1 t.cap) in
  if ncap > t.cap then begin
    let nleaves = Array.make ncap Bigint.one in
    let nbase = Array.make (2 * ncap) None in
    let nbgen = Array.make (2 * ncap) 0 in
    Array.blit t.leaves 0 nleaves 0 t.count;
    Array.blit t.base t.cap nbase ncap t.count;
    Array.blit t.bgen t.cap nbgen ncap t.count;
    t.cap <- ncap;
    t.leaves <- nleaves;
    t.base <- nbase;
    t.bgen <- nbgen
  end

(* The one way a base enters the tree from outside: [w] becomes leaf
   [p]'s base, current as of generation [gen]. Nothing checks the value
   (the contract checks every witness served). An entry whose position
   or stamp does not fit the tree is skipped; returns whether it fit. *)
let graft_locked t (p, gen, w) =
  if p >= 0 && p < t.count && gen > p && gen <= t.count then begin
    t.base.(t.cap + p) <- Some w;
    t.bgen.(t.cap + p) <- gen;
    true
  end
  else false

let append_locked t xs witnesses =
  match xs with
  | [] -> ()
  | _ ->
    let n = List.length xs in
    grow t (t.count + n);
    List.iteri
      (fun j x ->
        let p = t.count + j in
        if position t x = None then Hashtbl.add t.index (Hashtbl.hash x) p;
        t.leaves.(p) <- x)
      xs;
    let first = t.count in
    t.count <- t.count + n;
    t.cached_ac <- None;
    List.iteri (fun j w -> ignore (graft_locked t (first + j, t.count, w))) witnesses;
    Obs.Gauge.set g_leaves t.count

let append ?(witnesses = []) t xs =
  if witnesses <> [] && List.compare_lengths witnesses xs <> 0 then
    invalid_arg
      (Printf.sprintf "Witness_tree.append: %d witnesses for %d primes" (List.length witnesses)
         (List.length xs));
  with_lock t (fun () -> Obs.span "acc.windex_append" (fun () -> append_locked t xs witnesses))

(* Fresh base for node [i]: [g] to the product of every current leaf
   outside [i]'s range. Refresh = one exponentiation by the product of
   the leaves appended outside the range since the stamp; cold = one
   descent step from the refreshed parent. *)
let rec fresh_base t i =
  if i = 1 then t.wt_params.Rsa_acc.generator
  else
    let lo, hi = node_range t i in
    match t.base.(i) with
    | Some b when t.bgen.(i) >= t.count ->
      t.n_hits <- t.n_hits + 1;
      Obs.Counter.incr c_hits;
      b
    | Some b ->
      let gen = t.bgen.(i) in
      (* Appends since [gen] land at positions [gen, count); those
         outside [lo, hi) split into a left part (only when the base
         predates the node's own range filling) and the tail. *)
      let left = leaf_product t gen (Stdlib.min lo t.count) in
      let right = leaf_product t (Stdlib.max gen hi) t.count in
      let delta = Bigint.mul left right in
      let b' =
        if Bigint.equal delta Bigint.one then b
        else begin
          t.n_refreshes <- t.n_refreshes + 1;
          Obs.Counter.incr c_refreshes;
          Rsa_acc.pow_mod t.wt_params b delta
        end
      in
      t.base.(i) <- Some b';
      t.bgen.(i) <- t.count;
      if Bigint.equal delta Bigint.one then begin
        t.n_hits <- t.n_hits + 1;
        Obs.Counter.incr c_hits
      end;
      b'
    | None ->
      t.n_cold <- t.n_cold + 1;
      Obs.Counter.incr c_cold;
      let sibling = node_product t (i lxor 1) in
      let pb = fresh_base t (i lsr 1) in
      let b = if Bigint.equal sibling Bigint.one then pb else Rsa_acc.pow_mod t.wt_params pb sibling in
      t.base.(i) <- Some b;
      t.bgen.(i) <- t.count;
      b

let witness_locked t x =
  match position t x with
  | None ->
    t.n_misses <- t.n_misses + 1;
    Obs.Counter.incr c_misses;
    None
  | Some p -> Some (Obs.span "acc.witness" (fun () -> fresh_base t (t.cap + p)))

let witness t x = with_lock t (fun () -> witness_locked t x)

let ac_locked t =
  if t.count = 0 then t.wt_params.Rsa_acc.generator
  else
    match t.cached_ac with
    | Some (v, gen) when gen = t.count -> v
    | _ ->
      let v =
        Rsa_acc.pow_mod t.wt_params t.wt_params.Rsa_acc.generator (leaf_product t 0 t.count)
      in
      t.cached_ac <- Some (v, t.count);
      v

let ac t = with_lock t (fun () -> ac_locked t)

(* --- batched witnesses -------------------------------------------------- *)

exception Fallback

(* Shamir's trick (Boneh–Bünz–Fisch): from [wa = g^(P/pa)] and
   [wb = g^(P/pb)] with coprime [pa], [pb] and Bézout
   [u'·pa + v'·pb = 1], the combined witness is
   [wb^u' · wa^v' = g^(P/(pa·pb))] — exponents bounded by the sibling
   products, independent of the accumulated multiset size. [u'] is
   normalized into [0, pb); the matching [v'] is exact and may be
   negative, in which case [wa] is inverted modulo [n] first. *)
let shamir params (wa, pa) (wb, pb) =
  let g, u, _ = Bigint.egcd pa pb in
  if not (Bigint.equal g Bigint.one) then raise Fallback;
  let u' = Bigint.erem u pb in
  let v' = Bigint.div (Bigint.sub Bigint.one (Bigint.mul u' pa)) pb in
  let m = params.Rsa_acc.modulus in
  let part_b = Rsa_acc.pow_mod params wb u' in
  let part_a =
    if Bigint.sign v' >= 0 then Rsa_acc.pow_mod params wa v'
    else
      match Bigint.mod_inv wa m with
      | Some inv -> Rsa_acc.pow_mod params inv (Bigint.neg v')
      | None -> raise Fallback
  in
  (Bigint.mod_mul part_a part_b m, Bigint.mul pa pb)

let batch_witness_locked t subset =
  match subset with
  | [] -> ac_locked t
  | _ ->
    let resolved =
      List.map
        (fun x ->
          match position t x with
          | Some p -> (x, p)
          | None ->
            t.n_misses <- t.n_misses + 1;
            Obs.Counter.incr c_misses;
            invalid_arg "Rsa_acc.batch_witness: element not in set")
        subset
    in
    (* The exact-division path over the root product, multiplied from the
       leaves: handles duplicate subset elements (multiset semantics) and
       any combine bail-out, at the cost of one full-size
       exponentiation. *)
    let division_fallback () =
      let remaining =
        List.fold_left
          (fun p x ->
            let q, r = Bigint.divmod p x in
            if not (Bigint.is_zero r) then
              invalid_arg "Rsa_acc.batch_witness: element not in set";
            q)
          (leaf_product t 0 t.count) subset
      in
      Rsa_acc.pow_mod t.wt_params t.wt_params.Rsa_acc.generator remaining
    in
    let seen = Hashtbl.create (List.length resolved) in
    let distinct =
      List.for_all
        (fun (_, p) ->
          if Hashtbl.mem seen p then false
          else begin
            Hashtbl.add seen p ();
            true
          end)
        resolved
    in
    if not distinct then Obs.span "acc.witness" division_fallback
    else begin
      (* Distinct member primes: every pairwise product is coprime, so
         the balanced Shamir combine applies. Each combine's exponents
         are bounded by the side products — O(k log k) prime-size bits
         of exponentiation in total, independent of the multiset size. *)
      let leaves =
        Array.of_list
          (List.map (fun (x, p) -> (fresh_base t (t.cap + p), x)) resolved)
      in
      Obs.span "acc.witness" (fun () ->
          match
            Parallel.Pool.reduce (Parallel.pool ()) (shamir t.wt_params)
              (t.wt_params.Rsa_acc.generator, Bigint.one)
              leaves
          with
          | w, _ -> w
          | exception Fallback -> division_fallback ())
    end

let batch_witness t subset = with_lock t (fun () -> batch_witness_locked t subset)

(* --- bulk warm-up ------------------------------------------------------- *)

(* The product tree over the leaves in use, in the bases' heap layout:
   built level by level, each parent one multiply of its children, wide
   levels fanned out on the pool (disjoint writes, schedule-independent
   values). Slots past the leaves hold one. *)
let product_tree t =
  let prod = Array.make (2 * t.cap) Bigint.one in
  Array.blit t.leaves 0 prod t.cap t.count;
  let pool = Parallel.pool () in
  let rec up l h =
    if l > 1 then begin
      let pl = l lsr 1 and ph = ((h - 1) lsr 1) + 1 in
      let multiply p = prod.(p) <- Bigint.mul prod.(2 * p) prod.((2 * p) + 1) in
      if ph - pl >= 4 && Parallel.Pool.size pool > 1 then
        ignore (Parallel.Pool.map pool multiply (Array.init (ph - pl) (fun j -> pl + j)))
      else
        for p = pl to ph - 1 do
          multiply p
        done;
      up pl ph
    end
  in
  up t.cap (t.cap + t.count);
  prod

(* Compute every base in one pool-parallel root-splitting descent from
   the root's base [g] over one transient product tree, dropped when the
   warm returns — the persistent-index version of
   [Rsa_acc.all_witnesses]. A node whose two children are both in use
   derives their bases with one pair exponentiation,
   [(b^prod(right), b^prod(left))], which shares one squaring chain
   between the two exponents; a node with only its left child in use
   passes its base through. Subtrees are disjoint writes; the shape is
   fixed by the leaf count, so results are identical at every pool size.
   A tree whose leaves are all fresh (a Build's grafted witnesses) has
   nothing to compute, builds no product and returns at once. *)
let warm_all t =
  with_lock t (fun () ->
      let fresh p = t.base.(t.cap + p) <> None && t.bgen.(t.cap + p) >= t.count in
      let rec all_fresh p = p >= t.count || (fresh p && all_fresh (p + 1)) in
      if not (all_fresh 0) then begin
        let pool = Parallel.pool () in
        let spawn_depth =
          let rec log2up n = if n <= 1 then 0 else 1 + log2up ((n + 1) / 2) in
          log2up (Parallel.Pool.size pool) + 2
        in
        let gen = t.count in
        let params = t.wt_params in
        let prod = product_tree t in
        let set i b =
          if t.base.(i) = None then begin
            t.n_cold <- t.n_cold + 1;
            Obs.Counter.incr c_cold
          end;
          t.base.(i) <- Some b;
          t.bgen.(i) <- gen
        in
        let rec descend i b depth =
          set i b;
          if i < t.cap then begin
            let l = 2 * i and r = (2 * i) + 1 in
            (* Each child's base is [b] to its sibling's product. The
               left child is in use whenever its parent is; an unused
               right child's product is one, so the left child then
               takes [b] as it is. *)
            let use_r = fst (node_range t r) < t.count in
            let bl, br = if use_r then Rsa_acc.pow_mod2 params b prod.(r) prod.(l) else (b, b) in
            let go_l () = descend l bl (depth - 1) in
            let go_r () = if use_r then descend r br (depth - 1) in
            if depth > 0 then ignore (Parallel.Pool.both pool go_l go_r)
            else begin
              go_l ();
              go_r ()
            end
          end
        in
        descend 1 params.Rsa_acc.generator spawn_depth
      end)

(* --- introspection ------------------------------------------------------ *)

let stats t =
  with_lock t (fun () ->
      let cached = ref 0 and fresh = ref 0 in
      for p = 0 to t.count - 1 do
        match t.base.(t.cap + p) with
        | Some _ ->
          incr cached;
          if t.bgen.(t.cap + p) >= t.count then incr fresh
        | None -> ()
      done;
      { ws_leaves = t.count;
        ws_cached = !cached;
        ws_fresh = !fresh;
        ws_hits = t.n_hits;
        ws_refreshes = t.n_refreshes;
        ws_cold = t.n_cold;
        ws_misses = t.n_misses })

let size_bytes t =
  with_lock t (fun () ->
      let big b = ((Bigint.num_bits b + 7) / 8) + 16 in
      let total = ref 0 in
      for p = 0 to t.count - 1 do
        total := !total + big t.leaves.(p)
      done;
      Array.iter (function Some b -> total := !total + big b | None -> ()) t.base;
      (* One word per slot: [cap] leaves, [2 * cap] bases and stamps. *)
      !total + (8 * 5 * t.cap))

(* --- snapshot codec ----------------------------------------------------- *)

(* Only leaf witnesses travel: the leaves come back from the prime
   multiset the service snapshot carries, while each leaf witness would
   cost an exponentiation to recompute. Interior bases are
   cheap consequences of warm leaves and are left to lazy recompute.
   Trusted input, like the rest of the snapshot: the service's recovery
   invariant re-checks the accumulator value, and any witness this tree
   serves is verified on chain before payment. *)
let export_magic = "slicer-witness-tree-v1"

let export t =
  with_lock t (fun () ->
      let entries = ref [] in
      for p = t.count - 1 downto 0 do
        match t.base.(t.cap + p) with
        | Some w ->
          entries :=
            Bytesutil.concat
              [ string_of_int p; string_of_int t.bgen.(t.cap + p); Bigint.to_bytes_be w ]
            :: !entries
        | None -> ()
      done;
      Bytesutil.concat (export_magic :: string_of_int t.count :: !entries))

(* Graft exported leaf witnesses onto a tree already holding the same
   leaf sequence (e.g. rebuilt from a snapshot's primes). Entries whose
   position or stamp does not fit the current tree are skipped. Returns
   the number absorbed, or [None] when the blob is not a witness-tree
   export. *)
let absorb t blob =
  match Bytesutil.split blob with
  | Some (magic :: exported_count :: entries) when String.equal magic export_magic ->
    (match int_of_string_opt exported_count with
     | None -> None
     | Some _ ->
       let entry e =
         match Bytesutil.split e with
         | Some [ p; gen; w ] ->
           (match (int_of_string_opt p, int_of_string_opt gen) with
            | Some p, Some gen -> Some (p, gen, Bigint.of_bytes_be w)
            | _ -> None)
         | _ -> None
       in
       with_lock t (fun () ->
           Some
             (List.fold_left
                (fun n e ->
                  match entry e with Some g when graft_locked t g -> n + 1 | _ -> n)
                0 entries)))
  | _ -> None
