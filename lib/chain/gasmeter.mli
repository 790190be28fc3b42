(** Mutable gas meter threaded through contract execution. Records a
    breakdown by label so the Table II bench can report where the gas
    went. *)

type t

exception Out_of_gas of { used : int; limit : int }

val create : ?limit:int -> unit -> t
(** A fresh meter; [limit] defaults to 30 million (a block's worth). *)

val charge : t -> label:string -> int -> unit
(** Adds to the total. A charge past the limit brings the total (and
    the label) up to the limit exactly, then raises: out of gas burns
    the whole limit, as on an EVM.
    @raise Out_of_gas with [used] the total the charge asked for. *)

val used : t -> int

val limit : t -> int

val breakdown : t -> (string * int) list
(** Per-label totals, largest first. *)
