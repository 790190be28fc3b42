type t = { mutable total : int; limit : int; labels : (string, int) Hashtbl.t }

exception Out_of_gas of { used : int; limit : int }

let create ?(limit = 30_000_000) () = { total = 0; limit; labels = Hashtbl.create 8 }

let charge t ~label amount =
  if amount < 0 then invalid_arg "Gasmeter.charge: negative amount";
  t.total <- t.total + amount;
  Hashtbl.replace t.labels label (amount + Option.value ~default:0 (Hashtbl.find_opt t.labels label));
  if t.total > t.limit then raise (Out_of_gas { used = t.total; limit = t.limit })

let used t = t.total
let limit t = t.limit

let breakdown t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.labels []
  |> List.sort (fun (_, a) (_, b) -> Stdlib.compare b a)
