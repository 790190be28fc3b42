(* Fork-join domain pool on a shared task queue.

   The pool owns [size - 1] worker domains; the caller of a combinator is
   the remaining worker. [both] is the primitive: it queues the right
   branch, runs the left branch itself, then — if the right branch was
   claimed by another domain — helps with other queued tasks until its
   sibling settles. Helping keeps every domain busy and makes nested
   fork-join deadlock-free: a domain only blocks when the queue is empty
   and its sibling is actively running elsewhere.

   All combinators fix their recursion structure from the input size
   alone, so results never depend on scheduling or pool size. *)

module Pool = struct
  type t = {
    size : int;
    lock : Mutex.t;
    nonempty : Condition.t;
    queue : (unit -> unit) Queue.t;
    mutable closed : bool;
    mutable workers : unit Domain.t list;
  }

  let worker pool () =
    let rec loop () =
      Mutex.lock pool.lock;
      let rec next () =
        match Queue.take_opt pool.queue with
        | Some task -> Some task
        | None ->
          if pool.closed then None
          else begin
            Condition.wait pool.nonempty pool.lock;
            next ()
          end
      in
      let task = next () in
      Mutex.unlock pool.lock;
      match task with
      | None -> ()
      | Some task ->
        (* Tasks carry their own exception capture; this is a backstop. *)
        (try task () with _ -> ());
        loop ()
    in
    loop ()

  let create ?(domains = 1) () =
    let size = Stdlib.max 1 domains in
    let pool =
      { size;
        lock = Mutex.create ();
        nonempty = Condition.create ();
        queue = Queue.create ();
        closed = false;
        workers = [] }
    in
    if size > 1 then
      pool.workers <- List.init (size - 1) (fun _ -> Domain.spawn (worker pool));
    pool

  let size pool = pool.size

  let shutdown pool =
    Mutex.lock pool.lock;
    pool.closed <- true;
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.lock;
    List.iter Domain.join pool.workers;
    pool.workers <- []

  let push pool task =
    Mutex.lock pool.lock;
    Queue.add task pool.queue;
    Condition.signal pool.nonempty;
    Mutex.unlock pool.lock

  (* Pop and run one queued task, if any. *)
  let try_help pool =
    Mutex.lock pool.lock;
    let task = Queue.take_opt pool.queue in
    Mutex.unlock pool.lock;
    match task with
    | None -> false
    | Some task ->
      task ();
      true

  let both pool fa fb =
    if pool.size <= 1 then begin
      let a = fa () in
      let b = fb () in
      (a, b)
    end
    else begin
      let m = Mutex.create () and settled = Condition.create () in
      let result = ref None in
      let task () =
        let r = try Ok (fb ()) with e -> Error e in
        Mutex.lock m;
        result := Some r;
        Condition.signal settled;
        Mutex.unlock m
      in
      push pool task;
      let ra = try Ok (fa ()) with e -> Error e in
      (* Wait for the sibling, helping with other queued work meanwhile.
         If the queue is empty and the sibling is unsettled, it has been
         claimed by another domain: block until it signals. *)
      let rec wait () =
        Mutex.lock m;
        let done_ = !result <> None in
        Mutex.unlock m;
        if not done_ then
          if try_help pool then wait ()
          else begin
            Mutex.lock m;
            while !result = None do
              Condition.wait settled m
            done;
            Mutex.unlock m
          end
      in
      wait ();
      let rb = match !result with Some r -> r | None -> assert false in
      match (ra, rb) with
      | Ok a, Ok b -> (a, b)
      | Error e, _ | _, Error e -> raise e
    end

  (* Spawn tasks down the top levels only: ~4 leaf tasks per domain is
     enough for load balance; below the cutoff the same recursion runs
     inline, so the shape of the computation is unchanged. *)
  let spawn_depth pool =
    let rec log2up n = if n <= 1 then 0 else 1 + log2up ((n + 1) / 2) in
    log2up pool.size + 2

  let map pool f arr =
    let n = Array.length arr in
    if n = 0 then [||]
    else if pool.size <= 1 then Array.map f arr
    else begin
      let out = Array.make n None in
      let rec go lo hi depth =
        if hi - lo = 1 then out.(lo) <- Some (f arr.(lo))
        else begin
          let mid = (lo + hi) / 2 in
          if depth > 0 then
            ignore
              (both pool
                 (fun () -> go lo mid (depth - 1))
                 (fun () -> go mid hi (depth - 1)))
          else begin
            go lo mid 0;
            go mid hi 0
          end
        end
      in
      go 0 n (spawn_depth pool);
      Array.map (function Some v -> v | None -> assert false) out
    end

  let reduce pool f id arr =
    let n = Array.length arr in
    if n = 0 then id
    else begin
      (* Balanced tree with a bracketing fixed by [n]: identical results
         at every pool size for associative [f]. *)
      let rec go lo hi depth =
        if hi - lo = 1 then arr.(lo)
        else begin
          let mid = (lo + hi) / 2 in
          if depth > 0 && pool.size > 1 then begin
            let a, b =
              both pool
                (fun () -> go lo mid (depth - 1))
                (fun () -> go mid hi (depth - 1))
            in
            f a b
          end
          else f (go lo mid 0) (go mid hi 0)
        end
      in
      go 0 n (spawn_depth pool)
    end
end

(* --- process-wide pool ------------------------------------------------- *)

let config_lock = Mutex.create ()
let configured = ref 1
let current : Pool.t option ref = ref None

let set_domains n =
  let n = Stdlib.max 1 n in
  Mutex.lock config_lock;
  let stale =
    match !current with
    | Some p when Pool.size p <> n ->
      current := None;
      Some p
    | _ -> None
  in
  configured := n;
  Mutex.unlock config_lock;
  (* Join outside the config lock: workers never touch it, but keep the
     critical section minimal anyway. *)
  match stale with Some p -> Pool.shutdown p | None -> ()

let domains () =
  Mutex.lock config_lock;
  let n = !configured in
  Mutex.unlock config_lock;
  n

let pool () =
  Mutex.lock config_lock;
  let p =
    match !current with
    | Some p -> p
    | None ->
      let p = Pool.create ~domains:!configured () in
      current := Some p;
      p
  in
  Mutex.unlock config_lock;
  p
