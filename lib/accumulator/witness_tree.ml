(* Persistent, incrementally maintained witness index over the
   accumulator's prime multiset.

   The transient product/root-split tree [Rsa_acc.all_witnesses] builds
   per call is kept alive here instead: a heap-layout product segment
   tree over an append-only leaf array, where every node additionally
   carries a lazily maintained *base* — [g] raised to the product of all
   leaves OUTSIDE the node's range. A leaf's base is exactly its
   membership witness.

   Maintenance contract:
   - [append] writes the new leaves and recomputes the O(log n) spine of
     products above them (one bigint multiply per level). No witness is
     touched eagerly.
   - Every cached base carries a generation stamp: the leaf count at the
     time it was computed. Appends never remove leaves, so a base stamped
     at generation [gen] is refreshed to the current generation [count]
     by ONE exponentiation with the product of the appended leaves that
     fall outside the node's range — amortized lazy refresh instead of
     eager all-witness recompute.
   - A node with no cached base is computed cold by one descent step from
     its (recursively refreshed) parent: [parent_base ^ sibling_product],
     the same root-splitting identity [all_witnesses] uses — so a cold
     single witness costs the same O(B) squarings a from-scratch
     [mem_witness] would, and everything after it is warm.

   Values are position-independent: a leaf's witness is
   [g^(Π multiset \ x)] no matter how the tree is shaped, so incremental
   maintenance, [warm_all], cold descents and the from-scratch rebuild
   all agree byte-for-byte, at every pool size (the pool's combinators
   fix their bracketing from input sizes alone, and every combination
   step is exact arithmetic).

   All public operations take the tree's mutex; internal helpers assume
   it is held. Pool fan-out inside [append]/[warm_all] writes disjoint
   array slots and never touches the lock, so it cannot deadlock. *)

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
  (* Heap layout over [2*cap] slots, root at 1, leaf [p] at [cap + p].
     [prod.(i)] is the product of the leaves in node [i]'s range (one
     for empty slots); [base.(i)]/[bgen.(i)] the lazily maintained
     outside-product exponentiation and its generation stamp. *)
  mutable prod : Bigint.t array;
  mutable base : Bigint.t option array;
  mutable bgen : int array;
  (* Prime (big-endian bytes) -> first leaf position holding it. *)
  index : (string, int) Hashtbl.t;
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
    prod = Array.make 2 Bigint.one;
    base = Array.make 2 None;
    bgen = Array.make 2 0;
    index = Hashtbl.create 64;
    cached_ac = None;
    n_hits = 0;
    n_refreshes = 0;
    n_cold = 0;
    n_misses = 0 }

let params t = t.wt_params
let leaf_count t = t.count

let key x = Bigint.to_bytes_be x

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

(* Π leaves[a, b): balanced reduce over the leaf slots, bracketing fixed
   by the range length. *)
let leaf_product t a b =
  if b <= a then Bigint.one
  else
    Parallel.Pool.reduce (Parallel.pool ()) Bigint.mul Bigint.one
      (Array.init (b - a) (fun j -> t.prod.(t.cap + a + j)))

(* Recompute the product spine above the changed leaf range [lo, hi):
   level by level, each parent is one multiply of its children. Parents
   at one level are disjoint writes, so wide levels fan out on the pool;
   the computed values are schedule-independent. *)
let recompute_spine t lo hi =
  if hi > lo then begin
    let pool = Parallel.pool () in
    let rec up l h =
      if l > 1 then begin
        let pl = l lsr 1 and ph = ((h - 1) lsr 1) + 1 in
        let recompute p = t.prod.(p) <- Bigint.mul t.prod.(2 * p) t.prod.((2 * p) + 1) in
        if ph - pl >= 4 && Parallel.Pool.size pool > 1 then
          ignore
            (Parallel.Pool.map pool
               (fun p -> recompute p)
               (Array.init (ph - pl) (fun j -> pl + j)))
        else
          for p = pl to ph - 1 do
            recompute p
          done;
        up pl ph
      end
    in
    up (t.cap + lo) (t.cap + hi)
  end

(* Double the capacity until [need] leaves fit. Leaf values and leaf
   bases survive verbatim (a witness does not depend on tree shape);
   interior products are rebuilt, interior bases are dropped and
   recomputed lazily. *)
let grow t need =
  let rec cap_for c = if c >= need then c else cap_for (2 * c) in
  let ncap = cap_for (Stdlib.max 1 t.cap) in
  if ncap > t.cap then begin
    let nprod = Array.make (2 * ncap) Bigint.one in
    let nbase = Array.make (2 * ncap) None in
    let nbgen = Array.make (2 * ncap) 0 in
    for p = 0 to t.count - 1 do
      nprod.(ncap + p) <- t.prod.(t.cap + p);
      nbase.(ncap + p) <- t.base.(t.cap + p);
      nbgen.(ncap + p) <- t.bgen.(t.cap + p)
    done;
    t.cap <- ncap;
    t.prod <- nprod;
    t.base <- nbase;
    t.bgen <- nbgen;
    recompute_spine t 0 t.count
  end

let append_locked t xs =
  match xs with
  | [] -> ()
  | _ ->
    let n = List.length xs in
    grow t (t.count + n);
    List.iteri
      (fun j x ->
        let p = t.count + j in
        t.prod.(t.cap + p) <- x;
        let k = key x in
        if not (Hashtbl.mem t.index k) then Hashtbl.add t.index k p)
      xs;
    recompute_spine t t.count (t.count + n);
    t.count <- t.count + n;
    t.cached_ac <- None;
    Obs.Gauge.set g_leaves t.count

let append t xs = with_lock t (fun () -> Obs.span "acc.windex_append" (fun () -> append_locked t xs))

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
      let sibling = t.prod.(i lxor 1) in
      let b =
        if i lsr 1 = 1 then
          (* Parent is the root (base [g]): the fixed-base anchor chain
             of [g] beats a plain ladder for this large exponent. *)
          if Bigint.equal sibling Bigint.one then t.wt_params.Rsa_acc.generator
          else Rsa_acc.g_pow_cached t.wt_params sibling
        else begin
          let pb = fresh_base t (i lsr 1) in
          if Bigint.equal sibling Bigint.one then pb
          else Rsa_acc.pow_mod t.wt_params pb sibling
        end
      in
      t.base.(i) <- Some b;
      t.bgen.(i) <- t.count;
      b

let witness_locked t x =
  match Hashtbl.find_opt t.index (key x) with
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
      let v = Rsa_acc.g_pow_cached t.wt_params t.prod.(1) in
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
          match Hashtbl.find_opt t.index (key x) with
          | Some p -> (x, p)
          | None ->
            t.n_misses <- t.n_misses + 1;
            Obs.Counter.incr c_misses;
            invalid_arg "Rsa_acc.batch_witness: element not in set")
        subset
    in
    (* The exact-division path over the maintained root product: handles
       duplicate subset elements (multiset semantics) and any combine
       bail-out, at the cost of one full-size exponentiation. *)
    let division_fallback () =
      let remaining =
        List.fold_left
          (fun p x ->
            let q, r = Bigint.divmod p x in
            if not (Bigint.is_zero r) then
              invalid_arg "Rsa_acc.batch_witness: element not in set";
            q)
          t.prod.(1) subset
      in
      Rsa_acc.g_pow_cached t.wt_params remaining
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

(* Compute every base in one pool-parallel root-splitting descent over
   the maintained products — the persistent-index version of
   [Rsa_acc.all_witnesses]. Subtrees are disjoint writes; the shape is
   fixed by the leaf count, so results are identical at every pool
   size. *)
let warm_all t =
  with_lock t (fun () ->
      if t.count > 0 then begin
        let pool = Parallel.pool () in
        let spawn_depth =
          let rec log2up n = if n <= 1 then 0 else 1 + log2up ((n + 1) / 2) in
          log2up (Parallel.Pool.size pool) + 2
        in
        let gen = t.count in
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
            let llo, _ = node_range t l in
            let rlo, _ = node_range t r in
            let bl () =
              if Bigint.equal t.prod.(r) Bigint.one then b
              else Rsa_acc.pow_mod t.wt_params b t.prod.(r)
            in
            let br () =
              if Bigint.equal t.prod.(l) Bigint.one then b
              else Rsa_acc.pow_mod t.wt_params b t.prod.(l)
            in
            let go_l () = if llo < t.count then descend l (bl ()) (depth - 1) in
            let go_r () = if rlo < t.count then descend r (br ()) (depth - 1) in
            if depth > 0 then ignore (Parallel.Pool.both pool go_l go_r)
            else begin
              go_l ();
              go_r ()
            end
          end
        in
        (* The root's children come off the fixed-base chain of [g]. *)
        set 1 t.wt_params.Rsa_acc.generator;
        if t.cap = 1 then ()
        else begin
          let bl () =
            if Bigint.equal t.prod.(3) Bigint.one then t.wt_params.Rsa_acc.generator
            else Rsa_acc.g_pow_cached t.wt_params t.prod.(3)
          in
          let br () =
            if Bigint.equal t.prod.(2) Bigint.one then t.wt_params.Rsa_acc.generator
            else Rsa_acc.g_pow_cached t.wt_params t.prod.(2)
          in
          let llo, _ = node_range t 2 in
          let rlo, _ = node_range t 3 in
          ignore
            (Parallel.Pool.both pool
               (fun () -> if llo < t.count then descend 2 (bl ()) (spawn_depth - 1))
               (fun () -> if rlo < t.count then descend 3 (br ()) (spawn_depth - 1)))
        end
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
      for i = 1 to (2 * t.cap) - 1 do
        if not (Bigint.equal t.prod.(i) Bigint.one) then total := !total + big t.prod.(i);
        match t.base.(i) with Some b -> total := !total + big b | None -> ()
      done;
      !total + (16 * 2 * t.cap))

(* --- snapshot codec ----------------------------------------------------- *)

(* Only leaf witnesses travel: products rebuild from the prime multiset
   (already in the service snapshot) in O(n) multiplies, while each leaf
   witness would cost an exponentiation to recompute. Interior bases are
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
       with_lock t (fun () ->
           let absorbed = ref 0 in
           List.iter
             (fun entry ->
               match Bytesutil.split entry with
               | Some [ p; gen; w ] ->
                 (match (int_of_string_opt p, int_of_string_opt gen) with
                  | Some p, Some gen when p >= 0 && p < t.count && gen > p && gen <= t.count ->
                    t.base.(t.cap + p) <- Some (Bigint.of_bytes_be w);
                    t.bgen.(t.cap + p) <- gen;
                    incr absorbed
                  | _ -> ())
               | _ -> ())
             entries;
           Some !absorbed))
  | _ -> None
