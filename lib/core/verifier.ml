(* Claim verification is a pure function of (params, Ac, claim), and a
   user re-checks the same VO every time a query repeats — so verdicts
   are memoized under a digest of every verification input. Tampering
   with any field changes the key, never aliases into a stale verdict. *)
let memo_limit = 65_536
let memo : (string, bool) Hashtbl.t = Hashtbl.create 256

let memoized key compute =
  match Hashtbl.find_opt memo key with
  | Some v -> v
  | None ->
    let v = compute () in
    if Hashtbl.length memo < memo_limit then Hashtbl.replace memo key v;
    v

let claim_bytes (c : Slicer_contract.claim) =
  Bytesutil.concat
    [ c.Slicer_contract.token_bytes;
      Bigint.to_bytes_be c.Slicer_contract.witness;
      Bytesutil.concat c.Slicer_contract.results ]

let claim_prime (c : Slicer_contract.claim) =
  Prime_rep.to_prime
    (Slicer_contract.claim_input ~token_bytes:c.Slicer_contract.token_bytes
       c.Slicer_contract.results)

let verify_claim params ~ac (c : Slicer_contract.claim) =
  let key =
    Sha256.digest
      (Bytesutil.concat
         [ "claim"; Bigint.to_bytes_be params.Rsa_acc.modulus; Bigint.to_bytes_be ac;
           claim_bytes c ])
  in
  memoized key @@ fun () ->
  Rsa_acc.verify_mem params ~ac ~x:(claim_prime c) ~witness:c.Slicer_contract.witness

let verify_claims params ~ac claims =
  Obs.span "core.verify" (fun () -> List.for_all (verify_claim params ~ac) claims)

let verify_claims_batched params ~ac claims ~witness =
  Obs.span "core.verify" @@ fun () ->
  let key =
    Sha256.digest
      (Bytesutil.concat
         [ "batch"; Bigint.to_bytes_be params.Rsa_acc.modulus; Bigint.to_bytes_be ac;
           Bigint.to_bytes_be witness; Bytesutil.concat (List.map claim_bytes claims) ])
  in
  memoized key @@ fun () ->
  Rsa_acc.verify_mem_batch params ~ac ~xs:(List.map claim_prime claims) ~witness
