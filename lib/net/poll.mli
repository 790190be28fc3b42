(** Thin poll(2) binding: the readiness primitive under the event-loop
    server, the client's connect and every frame-read deadline.

    [Unix.select] cannot watch descriptors numbered at or above
    FD_SETSIZE (1024), so a process holding a thousand sockets cannot
    use it even for a single high-numbered fd. Everything in lib/net
    waits through this module instead.

    A {!t} is a reusable interest set: [clear] it, [add] each fd with
    the events of interest, then [wait]. Results are read back by slot
    index, in the same order the fds were added. *)

type t

val create : unit -> t
(** An empty interest set (grows on demand, never shrinks). *)

val clear : t -> unit
val add : t -> Unix.file_descr -> read:bool -> write:bool -> unit

val wait : t -> timeout_ms:int -> int
(** Blocks until an fd is ready or the timeout (milliseconds; negative
    = forever) expires. Returns the number of ready fds, [0] on
    timeout, or [-1] when interrupted by a signal (retry). *)

val since_return_ns : unit -> int
(** Nanoseconds since the calling thread's last {!wait} or {!wait_fd}
    returned from poll(2), stamped in C before the call asked for the
    runtime lock back: read first thing after a wait, it is the time
    the thread spent waiting for that lock. *)

val revents : t -> int -> int
(** The readiness mask of slot [i] after {!wait}: test with
    {!is_readable} / {!is_writable} / {!is_error}. *)

val is_readable : int -> bool
val is_writable : int -> bool

val is_error : int -> bool
(** POLLERR, POLLHUP or POLLNVAL — the fd needs attention (a read will
    surface the EOF or error) even when neither data bit is set. *)

val wait_fd : Unix.file_descr -> read:bool -> write:bool -> timeout_ms:int -> int
(** One-shot single-fd wait. Returns the revents mask ([0] = timeout,
    [-1] = interrupted). *)

val ms_of_span : float -> int
(** Seconds to a poll timeout: rounds {e up} to whole milliseconds so a
    deadline re-checked after the wait has always truly passed. *)
