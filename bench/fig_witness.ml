(* Witness-index benchmarks: cold vs warm VO latency against the
   from-scratch recompute path, the insert-time maintenance cost of
   keeping the index alive, and index memory against record count.

   The warm-path p99 guard at the end is the smoke alias's regression
   tripwire: a warm witness is a mutex-guarded table lookup, so a p99
   above [warm_guard_s] means someone put exponentiation (or other
   real work) back on the per-query hot path. *)

open Bench_common

let warm_guard_s = 0.001

let percentile = Obs.Summary.percentile

(* One 512-bit parameter set for the whole figure (setup cost is noise
   we don't want in the rows). *)
let acc_params =
  lazy (Rsa_acc.setup ~rng:(Drbg.create ~seed:"bench-witness-params") ~bits:512 ())

let primes_of n seed =
  Prime_rep.to_primes (List.init n (Printf.sprintf "%s-%d" seed))

(* Evenly spread sample of member primes to query. *)
let sample_of arr k =
  let n = Array.length arr in
  let k = min k n in
  Array.init k (fun i -> arr.(i * n / k))

(* --- cold / warm / recompute latency, and memory ------------------------ *)

let latency_point ~queries n =
  let params = Lazy.force acc_params in
  let xs = primes_of n (Printf.sprintf "wbench-%d" n) in
  let arr = Array.of_list xs in
  let wt = Witness_tree.create params in
  let (), build_s = time (fun () -> Witness_tree.append wt xs) in
  let samples = sample_of arr 16 in
  (* Cold: first-touch queries pay the root-split descent. *)
  let cold_s =
    average_queries ~n:(Array.length samples) (fun i ->
        snd (time (fun () -> ignore (Witness_tree.witness wt samples.(i)))))
  in
  (* The from-scratch path: the set's product, one exact division and
     one fixed-base exponentiation per query. *)
  let recompute_s =
    average_queries ~n:(Array.length samples) (fun i ->
        snd (time (fun () -> ignore (Rsa_acc.mem_witness params xs samples.(i)))))
  in
  let (), warm_all_s = time (fun () -> Witness_tree.warm_all wt) in
  (* Warm: steady-state per-query latency over many lookups. *)
  let lat = Array.make queries 0. in
  for i = 0 to queries - 1 do
    let x = samples.(i mod Array.length samples) in
    let t0 = Obs.Clock.now_ns () in
    ignore (Witness_tree.witness wt x);
    lat.(i) <- float_of_int (Obs.Clock.now_ns () - t0) /. 1e9
  done;
  Array.sort compare lat;
  let warm_avg = Array.fold_left ( +. ) 0. lat /. float_of_int queries in
  let warm_p99 = percentile lat 99. in
  let bytes = Witness_tree.size_bytes wt in
  row (string_of_int n)
    [ Printf.sprintf "%.2fms" (recompute_s *. 1000.);
      Printf.sprintf "%.2fms" (cold_s *. 1000.);
      Printf.sprintf "%.1fus" (warm_avg *. 1e6);
      Printf.sprintf "%.1fus" (warm_p99 *. 1e6);
      seconds warm_all_s;
      kb bytes ];
  json_row ~figure:"witness" ~series:"latency"
    [ ("records", J_int n);
      ("build_s", J_float build_s);
      ("recompute_ms", J_float (recompute_s *. 1000.));
      ("cold_ms", J_float (cold_s *. 1000.));
      ("warm_avg_us", J_float (warm_avg *. 1e6));
      ("warm_p99_us", J_float (warm_p99 *. 1e6));
      ("warm_all_s", J_float warm_all_s);
      ("index_bytes", J_int bytes) ];
  warm_p99

(* --- insert-time maintenance cost --------------------------------------- *)

let insert_point ~preload batch =
  let params = Lazy.force acc_params in
  let base = primes_of preload "wbench-insert-base" in
  let fresh = primes_of batch (Printf.sprintf "wbench-insert-%d" batch) in
  let wt = Witness_tree.create params in
  Witness_tree.append wt base;
  Witness_tree.warm_all wt;
  (* The maintained path: O(log n) spine products, no exponentiation. *)
  let (), append_s = time (fun () -> Witness_tree.append wt fresh) in
  (* And the lazy re-basing the first post-insert query pays per leaf. *)
  let x = List.hd base in
  let refresh_s = snd (time (fun () -> ignore (Witness_tree.witness wt x))) in
  row (string_of_int batch)
    [ Printf.sprintf "%.2fms" (append_s *. 1000.); Printf.sprintf "%.2fms" (refresh_s *. 1000.) ];
  json_row ~figure:"witness" ~series:"insert"
    [ ("preload", J_int preload);
      ("batch", J_int batch);
      ("append_ms", J_float (append_s *. 1000.));
      ("refresh_ms", J_float (refresh_s *. 1000.)) ]

let run scale =
  header "Witness index - cold vs warm VO generation";
  Printf.printf
    "(recompute = per-query product, division and exponentiation; warm = maintained index lookup)\n";
  let queries =
    if scale.label = full_scale.label then 2000
    else if scale.sizes = smoke_scale.sizes then 500
    else 1000
  in
  row_header [ "records"; "recompute"; "cold"; "warm avg"; "warm p99"; "warm_all"; "index" ];
  let worst_p99 =
    List.fold_left (fun acc n -> Float.max acc (latency_point ~queries n)) 0. scale.sizes
  in
  header "Witness index - insert-time maintenance";
  Printf.printf "(preload %d records; append = spine recompute)\n" scale.insert_preload;
  row_header [ "batch"; "append"; "refresh" ];
  List.iter (insert_point ~preload:scale.insert_preload) scale.insert_batches;
  (* The guard: warm witnesses must stay lookup-fast. *)
  if worst_p99 > warm_guard_s then
    failwith
      (Printf.sprintf
         "witness warm-path guard: p99 %.3f ms exceeds %.1f ms — a warm witness must be a \
          lookup, not a recomputation"
         (worst_p99 *. 1000.) (warm_guard_s *. 1000.))
  else
    Printf.printf "\nwarm-path guard ok: worst p99 %.1f us (budget %.1f ms)\n"
      (worst_p99 *. 1e6) (warm_guard_s *. 1000.)
