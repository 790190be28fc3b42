(* The user's Algorithm 5 is the contract's, run with a no-op meter and
   every prime walked: the user holds no hints. *)
let no_charge ~label:_ _ = ()
let walked = List.map (fun c -> (c, Slicer_contract.Walk))

let verify_claim params ~ac c =
  Slicer_contract.verify ~charge:no_charge params ~ac ~batch_witness:None (walked [ c ])

let verify_claims params ~ac claims =
  Obs.span "core.verify" @@ fun () ->
  Slicer_contract.verify ~charge:no_charge params ~ac ~batch_witness:None (walked claims)

let verify_claims_batched params ~ac claims ~witness =
  Obs.span "core.verify" @@ fun () ->
  Slicer_contract.verify ~charge:no_charge params ~ac ~batch_witness:(Some witness) (walked claims)
