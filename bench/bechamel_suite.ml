(* Bechamel micro-benchmarks: one statistically analysed Test.make per
   figure/table primitive, so each reported series has a robust ns/op
   grounding alongside the wall-clock harnesses. *)

open Bechamel
open Toolkit

(* A fixed 272-bit prime representative (Selfridge D = 5, as for half
   of all primes) for the primality rows and their guard. *)
let bench_prime () = Prime_rep.to_prime "bechamel-272"

let mr_base2 p = Primality.miller_rabin_base p ~base:Bigint.two

(* Fixed operands for the kernel rows and their guard: an odd modulus
   of [bits] bits (512 by default, the accumulator's size), a base and
   two factors below it, and a [2 * bits]-bit exponent. *)
let kernel_operands ?(bits = 512) () =
  let rng = Drbg.create ~seed:"bechamel-kernel" in
  let exact bits =
    let top = Bigint.shift_left Bigint.one (bits - 1) in
    Bigint.add top (Drbg.uniform_bigint rng top)
  in
  let m = Bigint.add (Bigint.shift_left (exact (bits - 1)) 1) Bigint.one in
  let below () = Drbg.uniform_bigint rng m in
  (m, below (), exact (2 * bits), below (), below ())

(* Two 40,000-bit exponents for the pair row and its guard: a
   witness-tree node near the root of perfbench's 754-prime Build raises
   its base to two sibling products of about this size. *)
let pair_exponents () =
  let rng = Drbg.create ~seed:"bechamel-pair" in
  let top = Bigint.shift_left Bigint.one 39_999 in
  let exact () = Bigint.add top (Drbg.uniform_bigint rng top) in
  let e1 = exact () in
  (e1, exact ())

(* perfbench's Build holds 754 keywords (1000 records, width 8), so the
   witness tree's root product, which its warm and [ac] multiply from
   the leaves, is of 754 272-bit primes. *)
let spine_primes () =
  Array.init 754 (fun i -> Prime_rep.to_prime (Printf.sprintf "bechamel-spine-%d" i))

(* A Build request of perfbench's shape (1,000 width-8 records, 9,000
   entries, ~485 KB) for the journaling row. *)
let perfbench_build () =
  let rng = Drbg.create ~seed:"bechamel-build" in
  let keys = Keys.generate ~tdp_bits:512 ~rng () in
  let acc = Rsa_acc.setup ~rng ~bits:512 () in
  let owner = Owner.create ~width:8 ~rng ~acc_params:acc ~keys () in
  let shipment = Owner.build owner (Gen.uniform_records ~rng ~width:8 1000) in
  let user = Keys.for_user keys in
  Net.Wire.Build
    { client = "owner"; request_id = "owner#1"; width = 8; payment = 1000; acc;
      tdp_n = keys.Keys.tdp_public.Rsa_tdp.pn; tdp_e = keys.Keys.tdp_public.Rsa_tdp.e;
      user_k = user.Keys.u_k; user_k_r = user.Keys.u_k_r; shipment;
      trapdoor = Owner.export_trapdoor_state owner; trace = None }

(* A log on a temp file, fsync off, emptied whenever it passes 16 MiB
   so the row's runs do not fill the disk. *)
let bench_wal () =
  let path = Filename.temp_file "slicer-bench-wal" ".log" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  let wal, _, _ = Wal.open_ ~path ~fsync:false in
  fun tag payload ->
    if Wal.size wal > 16 * 1024 * 1024 then Wal.reset wal ~next_seq:1;
    ignore (Wal.append_sized wal ~tag payload)

let make_tests () =
  let rng = Drbg.create ~seed:"bechamel" in
  let sore_key = Sore.keygen ~rng in
  let hmac_key = Drbg.generate rng 16 in
  let aes_key = Aes128.expand (Drbg.generate rng 16) in
  let aes_ct = Aes128.encrypt_block aes_key "0123456789abcdef" in
  let params = Rsa_acc.setup ~rng ~bits:512 () in
  let primes = List.init 64 (fun i -> Prime_rep.to_prime (Printf.sprintf "bb-%d" i)) in
  let ac = Rsa_acc.accumulate params primes in
  let x = List.hd primes in
  let witness = Rsa_acc.mem_witness params primes x in
  let pk, _sk = Rsa_tdp.keygen ~bits:512 ~rng () in
  let trapdoor = Rsa_tdp.random_element ~rng pk in
  let prime272 = bench_prime () in
  let km, kb, ke, kx, ky = kernel_operands () in
  let kctx = Bigint.Mont.create km in
  (* A ladder at each of the kernel's other instances: 256-bit key
     primes (4 words) and 272-bit prime representatives (5 words). *)
  let ladder_row bits =
    let m, b, e, _, _ = kernel_operands ~bits () in
    let c = Bigint.Mont.create m in
    Test.make
      ~name:(Printf.sprintf "bigint/mont-ladder-%d" bits)
      (Staged.stage (fun () -> ignore (Bigint.Mont.pow c b e)))
  in
  let pe1, pe2 = pair_exponents () in
  let spine = spine_primes () in
  let build = perfbench_build () in
  let append = bench_wal () in
  let found = Drbg.generate rng 9000 in
  let ct = Sore.encrypt ~rng sore_key ~width:16 12345 in
  let tk = Sore.token ~rng sore_key ~width:16 30000 Bitvec.Gt in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    !counter
  in
  [ (* Fig. 3a: index entry = 2 PRFs + 1 AES block. *)
    Test.make ~name:"fig3a/hmac-prf128"
      (Staged.stage (fun () -> ignore (Hmac.prf128 ~key:hmac_key (string_of_int (fresh ())))));
    Test.make ~name:"fig3a/aes-block"
      (Staged.stage (fun () -> ignore (Aes128.encrypt_block aes_key "0123456789abcdef")));
    (* The user's side of the same block: one per search result. *)
    Test.make ~name:"fig3a/aes-block-decrypt"
      (Staged.stage (fun () -> ignore (Aes128.decrypt_block aes_key aes_ct)));
    (* Fig. 3b / 7b: ADS building blocks. *)
    Test.make ~name:"fig3b/h-prime-uncached"
      (Staged.stage (fun () -> ignore (Prime_rep.to_prime (Printf.sprintf "fresh-%d" (fresh ())))));
    (* The primality test inside every H_prime walk, on the prime it
       ends on: one base-2 Miller-Rabin round against the full
       Baillie–PSW test that confirms the walk's prime. *)
    Test.make ~name:"numtheory/mr-base2-272"
      (Staged.stage (fun () -> ignore (mr_base2 prime272)));
    Test.make ~name:"numtheory/bpsw-272"
      (Staged.stage (fun () -> ignore (Primality.baillie_psw prime272)));
    (* The Montgomery kernel under every exponentiation, against the
       division-based product it replaced on the ladders. *)
    ladder_row 256;
    ladder_row 272;
    Test.make ~name:"bigint/mont-ladder-512"
      (Staged.stage (fun () -> ignore (Bigint.Mont.pow kctx kb ke)));
    (* The residue scan that starts every H_prime walk's sieve: one
       272-bit integer modulo each of the 1028 primes below 8192. *)
    Test.make ~name:"bigint/residues-272"
      (Staged.stage (fun () -> ignore (Bigint.residues prime272 Sieve.small_primes)));
    Test.make ~name:"bigint/mod-mul-512"
      (Staged.stage (fun () -> ignore (Bigint.mod_mul kx ky km)));
    (* One shared-squaring pair, as the witness warm raises a node's
       base to both children's sibling products. *)
    Test.make ~name:"bigint/mont-pow2-512"
      (Staged.stage (fun () -> ignore (Bigint.Mont.pow2 kctx kb pe1 pe2)));
    (* The balanced product tree over perfbench's primes: the products
       above 32 limbs run on the C product kernel. *)
    Test.make ~name:"bigint/product-754"
      (Staged.stage (fun () ->
           ignore (Parallel.Pool.reduce (Parallel.pool ()) Bigint.mul Bigint.one spine)));
    Test.make ~name:"fig3b/accumulator-add"
      (Staged.stage (fun () -> ignore (Rsa_acc.add params ac x)));
    (* Fig. 5: search-side primitives. *)
    Test.make ~name:"fig5/sore-encrypt-w16"
      (Staged.stage (fun () -> ignore (Sore.encrypt ~rng sore_key ~width:16 (fresh () land 0xffff))));
    Test.make ~name:"fig5/sore-compare"
      (Staged.stage (fun () -> ignore (Sore.compare_ct ct tk)));
    Test.make ~name:"fig5/trapdoor-walk"
      (Staged.stage (fun () -> ignore (Rsa_tdp.forward_bytes pk trapdoor)));
    Test.make ~name:"fig5b/witness-64"
      (Staged.stage (fun () -> ignore (Rsa_acc.mem_witness params primes x)));
    (* Table II / Alg. 5: on-chain verification primitive. *)
    Test.make ~name:"table2/verify-mem"
      (Staged.stage (fun () -> ignore (Rsa_acc.verify_mem params ~ac ~x ~witness)));
    Test.make ~name:"table2/mset-hash-64"
      (Staged.stage
         (fun () -> ignore (Mset_hash.of_list (List.init 64 (fun i -> string_of_int i)))));
    (* The write path: a Build streamed into the WAL through its
       scratch, as a durable server journals it, and a Found-sized
       reply framed. No guards. *)
    Test.make ~name:"store/wal-append-build"
      (Staged.stage (fun () -> append 2 (Net.Wire.request_sized build)));
    Test.make ~name:"net/frame-encode-9k"
      (Staged.stage (fun () -> ignore (Net.Frame.encode ~tag:Net.Wire.response_tag found)));
    (* Observability overhead (a span is ~2 clock reads + 1 histogram
       record); the budgets are guarded by [overhead_guard] below. *)
    Test.make ~name:"obs/counter-add"
      (Staged.stage
         (let c = Obs.counter "slicer_bench_obs_counter_total" in
          fun () -> Obs.Counter.incr c));
    Test.make ~name:"obs/histogram-record"
      (Staged.stage
         (let h = Obs.histogram ~units:Obs.Histogram.Raw "slicer_bench_obs_hist" in
          fun () -> Obs.Histogram.record h 4242));
    Test.make ~name:"obs/span"
      (Staged.stage (fun () -> Obs.span "bench.noop" (fun () -> ())));
    (* What one Stats request costs under the service mutex: both
       exposition formats over the default registry. No guard. *)
    Test.make ~name:"obs/scrape"
      (Staged.stage (fun () ->
           ignore (Obs.Export.to_json ());
           ignore (Obs.Export.to_prometheus ())));
    (* Tracing off (rate 0, no slow threshold) must cost a few loads
       and a branch on every request. *)
    Test.make ~name:"obs/trace-unsampled"
      (Staged.stage (fun () -> Trace.root "bench.trace-noop" (fun () -> ()))) ]

(* Best-of-20 times of two workloads run in alternating batches. The
   guards below compare two costs within one run, since absolute
   timings drift by a third between runs on a shared host; contention
   only adds time, so the best batches stay comparable where Bechamel's
   separate per-row windows do not (with the smoke rules running two at
   a time, the ratio of two row estimates read 5.2, r^2 down to 0.14, on
   code that reads ~3 uncontended). *)
let best_alternating f g =
  let time h =
    let t0 = Unix.gettimeofday () in
    h ();
    Unix.gettimeofday () -. t0
  in
  let best_f = ref infinity and best_g = ref infinity in
  for _ = 1 to 20 do
    best_f := Float.min !best_f (time f);
    best_g := Float.min !best_g (time g)
  done;
  (!best_f, !best_g)

let repeat n f x () =
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f x))
  done

(* Baillie–PSW reads 3.0-3.3 base-2 rounds on the bench prime (D = 5,
   so Q^k is a sign) with both halves in C, and read 3.8-4.6 while the
   Lucas ladder's additions ran in OCaml; the 13-base battery it
   replaced read ~9.7. *)
let bpsw_round_budget = 5.

let bpsw_rounds () =
  let p = bench_prime () in
  let mr, bpsw = best_alternating (repeat 10 mr_base2 p) (repeat 10 Primality.baillie_psw p) in
  bpsw /. mr

(* One uncached H_prime walk priced in base-2 rounds on the bench
   prime, over 16 inputs whose walk ends at its first sieve survivor:
   the residues, the sieve and one Baillie-PSW test, where a longer walk
   adds base-2 rounds that the Baillie-PSW guard above already prices.
   It reads 5.6-6.1 with the kernel's 5-word instance, whose base-2
   rounds are about twice as fast as the generic loop's (5.0-6.3 on
   that loop); with one prime per residue pass and the sieve start a
   closure it read 6.2-7.1, with the residues back on 1028 allocating
   divisions 8.1-9.4, and with the sieve skipped (every odd candidate
   tested) 12.6-17.1. *)
let walk_round_budget = 7.0

(* The first 16 of h-prime-walk-0, -1, ... whose walk's first sieve
   survivor is its prime (16 of the first 130), fixed so that a
   regression cannot change which walks the guard prices. *)
let walk_inputs =
  List.map (Printf.sprintf "h-prime-walk-%d")
    [ 7; 8; 10; 11; 12; 29; 40; 62; 72; 78; 82; 85; 121; 122; 125; 129 ]

let walk_rounds () =
  let p = bench_prime () in
  let rounds = 40 in
  let walks, mr =
    best_alternating
      (fun () ->
        List.iter (fun s -> ignore (Sys.opaque_identity (Prime_rep.to_prime_uncached s))) walk_inputs)
      (repeat rounds mr_base2 p)
  in
  walks /. float_of_int (List.length walk_inputs) /. (mr /. float_of_int rounds)

(* One 512-bit division-based [Bigint.mod_mul] priced in bits of a
   512-bit Montgomery ladder (a 1024-bit exponent's [Mont.pow] over its
   bit count): the kernel must keep a ladder bit, a squaring plus a
   fifth of a multiply, well under one division-based product. The
   ladder's 8-word instance reads 9.0-10.6 (6.8-10.2 on the generic
   loop); with one OCaml-to-C call per product it read 6-7, and on the
   OCaml kernel over 31-bit limbs 1.3-1.5. *)
let ladder_bit_floor = 5.

let mod_mul_ladder_bits () =
  let m, b, e, x, y = kernel_operands () in
  let c = Bigint.Mont.create m in
  let ladders = 2 and muls = 512 in
  let ladder, mul =
    best_alternating
      (repeat ladders (Bigint.Mont.pow c b) e)
      (repeat muls (Bigint.mod_mul x y) m)
  in
  mul /. float_of_int muls /. (ladder /. float_of_int (ladders * Bigint.num_bits e))

(* One [Mont.pow2] pair of 40,000-bit exponents over a 512-bit modulus
   priced in two [Mont.pow] ladders on the same exponents: sharing one
   squaring chain must keep the pair at most 0.7 of the ladders. It
   reads 0.50-0.60 against the ladder in C (about 0.4 when each ladder
   product was its own OCaml-to-C call); a pair computed as two ladders
   reads 1. *)
let pair_budget = 0.7

let pair_over_ladders () =
  let m, b, _, _, _ = kernel_operands () in
  let e1, e2 = pair_exponents () in
  let c = Bigint.Mont.create m in
  let pair, ladders =
    best_alternating
      (repeat 1 (fun () -> Bigint.Mont.pow2 c b e1 e2) ())
      (repeat 1 (fun () -> (Bigint.Mont.pow c b e1, Bigint.Mont.pow c b e2)) ())
  in
  pair /. ladders

(* One membership check priced in one accumulator add by the same
   272-bit prime over the same 512-bit modulus: both are one modexp
   (witness^x against Ac, and Ac^x), so the check must cost at least half
   an add. Running its modexp the check reads about 1; a cache keyed on
   the check's inputs answers it with a hash lookup and reads about
   0.04. *)
let verify_floor = 0.5

let verify_over_add () =
  let params = Rsa_acc.setup ~rng:(Drbg.create ~seed:"bechamel-verify") ~bits:512 () in
  let x = bench_prime () in
  let witness = params.Rsa_acc.generator in
  let ac = Rsa_acc.add params witness x in
  let calls = 10 in
  let verify, add =
    best_alternating
      (repeat calls (fun () -> Rsa_acc.verify_mem params ~ac ~x ~witness) ())
      (repeat calls (Rsa_acc.add params witness) x)
  in
  verify /. add

(* One AES block decryption priced in one-block SHA-256 digests of the
   same 16 bytes: the user decrypts every result of every search with
   no memo in front, so a decrypt must stay a walk over the round
   tables. The T-table rounds read 0.10-0.11; the rounds they replaced,
   MixColumns by a recursive gf_mul, read 9.2. *)
let aes_budget = 1.0

let aes_over_sha () =
  let key = Aes128.expand "bechamel-aes-key" in
  let block = Aes128.encrypt_string key "record-42" in
  let calls = 2000 in
  let aes, sha =
    best_alternating
      (repeat calls (Aes128.decrypt_block key) block)
      (repeat calls Sha256.digest block)
  in
  aes /. sha

(* The instrumentation budgets: an Obs span must stay under 1 us or the
   hot-path record claim in DESIGN.md is void, an unsampled trace root
   (tracing off) under 150 ns, and a sampled root with one child span,
   published to a full ring, under 3 us (it reads 0.45-0.83 us; a
   publish that copies the whole ring out reads ~8.5 us). Each is timed as its cost
   over an empty closure, 1000 calls per batch, best batch against best
   batch: as Bechamel rows, calls this cheap were OLS fits with
   negative r^2 that measured the harness, not the instrument. *)
let span_budget_ns = 1000.
let trace_budget_ns = 150.
let sampled_budget_ns = 3000.

let overhead_ns f =
  let calls = 1000 in
  let reference, measured =
    best_alternating (repeat calls (fun () -> ()) ()) (repeat calls f ())
  in
  (measured -. reference) /. float_of_int calls *. 1e9

let overhead_guard name f budget =
  let ns = overhead_ns f in
  Printf.printf
    "%s - empty closure = %.0f ns (best of 20 alternating batches of 1000 calls; budget %.0f ns)\n"
    name ns budget;
  if ns > budget then
    failwith (Printf.sprintf "%s overhead %.0f ns exceeds the %.0f ns budget" name ns budget)

let run () =
  Bench_common.header "Bechamel micro-benchmarks (ns/op, OLS on monotonic clock)";
  (* Earlier targets in the same run leave a large dirty heap; without
     a compaction their GC debt is billed to whichever micro-benchmark
     the collector interrupts, and the span-overhead guard below trips
     on pure noise. *)
  Gc.compact ();
  let tests = Test.make_grouped ~name:"slicer" (make_tests ()) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let rounds = bpsw_rounds () in
  Printf.printf "bpsw-272 / mr-base2-272 = %.2f (best of 20 alternating batches; budget %.1f)\n"
    rounds bpsw_round_budget;
  if rounds > bpsw_round_budget then
    failwith
      (Printf.sprintf "Baillie-PSW costs %.2f base-2 rounds, over the %.1f budget" rounds
         bpsw_round_budget);
  let walk = walk_rounds () in
  Printf.printf
    "h-prime-walk / mr-base2-272 = %.1f (best of 20 alternating batches; budget %.1f)\n" walk
    walk_round_budget;
  if walk > walk_round_budget then
    failwith
      (Printf.sprintf "an H_prime walk costs %.1f base-2 rounds, over the %.1f budget" walk
         walk_round_budget);
  let bits = mod_mul_ladder_bits () in
  Printf.printf
    "mod-mul-512 / mont-ladder-512 bit = %.2f (best of 20 alternating batches; floor %.1f)\n"
    bits ladder_bit_floor;
  if bits < ladder_bit_floor then
    failwith
      (Printf.sprintf "a 512-bit mod_mul costs %.2f Montgomery ladder bits, under the %.1f floor"
         bits ladder_bit_floor);
  let pair = pair_over_ladders () in
  Printf.printf
    "mont-pow2-512 / two mont-ladder-512 = %.2f (best of 20 alternating batches; budget %.1f)\n"
    pair pair_budget;
  if pair > pair_budget then
    failwith
      (Printf.sprintf "a 512-bit pair exponentiation costs %.2f of two ladders, over the %.1f budget"
         pair pair_budget);
  let verify = verify_over_add () in
  Printf.printf
    "verify-mem / accumulator-add = %.2f (best of 20 alternating batches; floor %.1f)\n" verify
    verify_floor;
  if verify < verify_floor then
    failwith
      (Printf.sprintf
         "a membership check costs %.2f of an accumulator add, under the %.1f floor: it skipped \
          its modexp"
         verify verify_floor);
  let aes = aes_over_sha () in
  Printf.printf
    "aes-block-decrypt / sha256-block = %.2f (best of 20 alternating batches; budget %.1f)\n" aes
    aes_budget;
  if aes > aes_budget then
    failwith
      (Printf.sprintf
         "one AES block decrypt costs %.2f one-block SHA-256 digests, over the %.1f budget" aes
         aes_budget);
  overhead_guard "obs/span" (fun () -> Obs.span "bench.noop" (fun () -> ())) span_budget_ns;
  overhead_guard "obs/trace-unsampled"
    (fun () -> Trace.root "bench.trace-noop" (fun () -> ()))
    trace_budget_ns;
  let sampled () =
    Trace.root "bench.trace-sampled" (fun () -> Trace.child "bench.trace-child" ignore)
  in
  Trace.set_sample_rate 1.;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_sample_rate 0.;
      ignore (Trace.drain () : Trace.span list))
    (fun () ->
      (* A serving process's ring is full (drop-oldest, nothing drains
         between scrapes): fill it before timing publishes into it. *)
      repeat 2048 sampled () ();
      overhead_guard "obs/trace-sampled" sampled sampled_budget_ns);
  Bench_common.row_header [ "benchmark"; "ns/op"; "r^2" ];
  List.iter
    (fun (name, result) ->
      let est =
        match Analyze.OLS.estimates result with
        | Some [ e ] -> Some e
        | Some _ | None -> None
      in
      let r2 = Analyze.OLS.r_square result in
      Printf.printf "%-28s %12s  %8s\n" name
        (match est with Some e -> Printf.sprintf "%.0f" e | None -> "-")
        (match r2 with Some r -> Printf.sprintf "%.4f" r | None -> "-");
      match est with
      | Some e ->
        Bench_common.json_row ~figure:"micro" ~series:name
          [ ("ns_per_op", Bench_common.J_float e);
            ("r_square", Bench_common.J_float (Option.value ~default:Float.nan r2)) ]
      | None -> ())
    rows
