(* Reusable poll(2) interest sets over parallel int arrays — see
   poll_stubs.c for the revents encoding. *)

external poll_stub : int array -> int array -> int array -> int -> int -> int
  = "slicer_poll_stub"

external since_return_ns : unit -> int = "slicer_poll_since_return_ns" [@@noalloc]

(* On every Unix OCaml targets, [Unix.file_descr] is the int fd. *)
let fd_int (fd : Unix.file_descr) : int = Obj.magic fd
let int_fd (n : int) : Unix.file_descr = Obj.magic n

type t = {
  mutable fds : int array;
  mutable evs : int array;
  mutable revs : int array;
  mutable n : int;
}

let create () =
  { fds = Array.make 64 0; evs = Array.make 64 0; revs = Array.make 64 0; n = 0 }

let clear t = t.n <- 0
let length t = t.n

let grow t =
  let cap = 2 * Array.length t.fds in
  let extend a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.fds <- extend t.fds;
  t.evs <- extend t.evs;
  t.revs <- extend t.revs

let add t fd ~read ~write =
  if t.n = Array.length t.fds then grow t;
  t.fds.(t.n) <- fd_int fd;
  t.evs.(t.n) <- (if read then 1 else 0) lor (if write then 2 else 0);
  t.revs.(t.n) <- 0;
  t.n <- t.n + 1

let wait t ~timeout_ms = poll_stub t.fds t.evs t.revs t.n timeout_ms
let fd_at t i = int_fd t.fds.(i)
let revents t i = t.revs.(i)
let is_readable r = r land 1 <> 0
let is_writable r = r land 2 <> 0
let is_error r = r land 4 <> 0

let wait_fd fd ~read ~write ~timeout_ms =
  let fds = [| fd_int fd |] in
  let evs = [| (if read then 1 else 0) lor (if write then 2 else 0) |] in
  let revs = [| 0 |] in
  match poll_stub fds evs revs 1 timeout_ms with
  | n when n > 0 -> revs.(0)
  | n -> n (* 0 = timeout, -1 = EINTR *)

let ms_of_span s =
  if s <= 0. then 0
  else begin
    let ms = int_of_float (Float.ceil (s *. 1000.)) in
    (* Clamp far below any int overflow poll(2) could misread. *)
    Stdlib.min ms 3_600_000 |> Stdlib.max 1
  end
