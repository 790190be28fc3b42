(** Work-sharing domain pool for the accumulator/ADS hot path.

    Built only on the stdlib ([Domain], [Mutex], [Condition]): a pool of
    [domains - 1] worker domains pulls fork-join tasks from a shared
    queue while the calling domain participates as the remaining worker.
    A waiter whose sibling task was claimed by another domain {e helps}
    by executing queued tasks instead of blocking, so nested fork-join
    (e.g. the recursive halves of [Rsa_acc.all_witnesses] spawning their
    own halves) cannot deadlock.

    Determinism: every combinator has a recursion structure that depends
    only on the input size — never on the number of domains or on
    scheduling — so results are identical (bit-for-bit for [Bigint]
    values) whatever [domains] is. Parallelism only decides {e where}
    each subtree runs. *)

module Pool : sig
  type t

  val create : ?domains:int -> unit -> t
  (** A pool with total parallelism [domains] (default [1]). [domains <= 1]
      spawns no workers: every combinator degenerates to the sequential
      algorithm in the calling domain. *)

  val size : t -> int
  (** Total parallelism, including the calling domain. *)

  val shutdown : t -> unit
  (** Signals the workers to exit and joins them. Idempotent. Tasks
      already queued are drained before workers exit. *)

  val both : t -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
  (** [both p f g] evaluates [f ()] and [g ()], potentially in parallel,
      and returns both results. Exceptions from either side are
      re-raised after both have settled. *)

  val map : t -> ('a -> 'b) -> 'a array -> 'b array
  (** Parallel [Array.map] by divide-and-conquer over index ranges. *)

  val reduce : t -> ('a -> 'a -> 'a) -> 'a -> 'a array -> 'a
  (** [reduce p f id arr] combines [arr] with the associative operation
      [f] by a balanced binary tree ([id] must be an identity for [f]).
      The bracketing depends only on [Array.length arr], so for exact
      types (e.g. [Bigint.mul]) the result is identical at every pool
      size. This is the product-tree primitive of the accumulator. *)
end

(** {1 Process-wide pool}

    The CLI and bench wire [--domains N] here once at startup; every
    library layer (accumulator, prime representatives, core protocol)
    then shares one pool without threading it through interfaces. *)

val set_domains : int -> unit
(** Sets the parallelism of the shared pool (clamped to [>= 1]). The
    default is [1] — fully sequential — so all previously recorded
    results stay reproducible unless parallelism is requested. An
    existing pool of a different size is shut down and replaced. *)

val domains : unit -> int
(** Currently configured parallelism. *)

val pool : unit -> Pool.t
(** The shared pool (created lazily at the configured size). *)
