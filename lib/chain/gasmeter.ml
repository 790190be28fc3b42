type t = { mutable total : int; limit : int; labels : (string, int) Hashtbl.t }

exception Out_of_gas of { used : int; limit : int }

let create ?(limit = 30_000_000) () = { total = 0; limit; labels = Hashtbl.create 8 }

(* A charge past the limit burns what was left, as an EVM's out-of-gas
   consumes the whole gas limit: the total stops at the limit, so a
   block's receipts can never sum past its own. *)
let charge t ~label amount =
  if amount < 0 then invalid_arg "Gasmeter.charge: negative amount";
  let attempted = t.total + amount in
  let granted = if attempted > t.limit then t.limit - t.total else amount in
  t.total <- t.total + granted;
  Hashtbl.replace t.labels label (granted + Option.value ~default:0 (Hashtbl.find_opt t.labels label));
  if attempted > t.limit then raise (Out_of_gas { used = attempted; limit = t.limit })

let used t = t.total
let limit t = t.limit

let breakdown t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.labels []
  |> List.sort (fun (_, a) (_, b) -> Stdlib.compare b a)
