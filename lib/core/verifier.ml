(* The user's Algorithm 5 is the contract's, run with a no-op meter. *)
let no_charge ~label:_ _ = ()

let verify_claims params ~ac claims =
  Obs.span "core.verify" @@ fun () ->
  Slicer_contract.verify ~charge:no_charge params ~ac ~batch_witness:None claims

let verify_claims_batched params ~ac claims ~witness =
  Obs.span "core.verify" @@ fun () ->
  Slicer_contract.verify ~charge:no_charge params ~ac ~batch_witness:(Some witness) claims
