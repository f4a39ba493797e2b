(* Fixed-size domain pool with deterministic chunked fan-out.

   A fan-out splits [0, n) into a static chunk grid (depending only on
   n, the job count and the caller's grain), queues one task per chunk,
   and lets the pool's workers *and the calling domain* drain the queue;
   the caller then blocks until every chunk of its batch has completed.
   Chunks write disjoint index ranges of one result, so scheduling never
   influences the output.  All cross-domain publication happens under
   the pool mutex, which gives the necessary happens-before edges for
   the result slots. *)

(* ---------- job count ---------- *)

(* A malformed RLIBM_JOBS used to be silently swallowed, while the -j
   flag exits 2 on the same input — the env path now reports what it
   ignored through the diag stream (once; default_jobs is called
   repeatedly).  The default warn-level stderr sink keeps this visible
   even in unconfigured library embeddings. *)
let warned_bad_jobs_env = ref false

let default_jobs () =
  match Sys.getenv_opt "RLIBM_JOBS" with
  | None -> Domain.recommended_domain_count ()
  | Some s when String.trim s = "" -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ ->
          let fallback = Domain.recommended_domain_count () in
          if not !warned_bad_jobs_env then begin
            warned_bad_jobs_env := true;
            Diag.event ~level:Diag.Warn "parallel.bad-jobs-env" (fun () ->
                [
                  ("ignored", Diag.String s);
                  ("expected", Diag.String "a positive integer");
                  ("using", Diag.Int fallback);
                ])
          end;
          fallback)

let current_jobs = ref 0 (* 0 = not yet initialized *)

let jobs () =
  if !current_jobs = 0 then current_jobs := default_jobs ();
  !current_jobs

(* ---------- pool ---------- *)

type pool = {
  mutex : Mutex.t;
  work : Condition.t; (* queue became non-empty, or stopping *)
  batch_done : Condition.t; (* some batch's pending count hit zero *)
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t array;
}

let the_pool : pool option ref = ref None
let exit_hooked = ref false

let worker pool =
  let rec loop () =
    Mutex.lock pool.mutex;
    let rec next () =
      if pool.stop then None
      else
        match Queue.take_opt pool.queue with
        | Some t -> Some t
        | None ->
            Condition.wait pool.work pool.mutex;
            next ()
    in
    match next () with
    | None -> Mutex.unlock pool.mutex
    | Some task ->
        Mutex.unlock pool.mutex;
        task ();
        loop ()
  in
  loop ()

let shutdown () =
  match !the_pool with
  | None -> ()
  | Some pool ->
      Mutex.lock pool.mutex;
      pool.stop <- true;
      Condition.broadcast pool.work;
      Mutex.unlock pool.mutex;
      Array.iter Domain.join pool.domains;
      the_pool := None

(* Pool of [j - 1] workers; the driver is the j-th executor. *)
let ensure_pool j =
  (match !the_pool with
  | Some p when Array.length p.domains = j - 1 -> ()
  | Some _ -> shutdown ()
  | None -> ());
  match !the_pool with
  | Some p -> p
  | None ->
      let pool =
        {
          mutex = Mutex.create ();
          work = Condition.create ();
          batch_done = Condition.create ();
          queue = Queue.create ();
          stop = false;
          domains = [||];
        }
      in
      pool.domains <-
        Array.init (j - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
      the_pool := Some pool;
      if not !exit_hooked then begin
        exit_hooked := true;
        at_exit shutdown
      end;
      pool

let set_jobs j =
  let j = Stdlib.max 1 j in
  if j <> jobs () then begin
    (* Tear the old pool down now; the next fan-out rebuilds it. *)
    shutdown ();
    current_jobs := j
  end

(* Run every task (each must be exception-free: callers wrap their chunk
   bodies) and return once all have finished.  The caller participates in
   draining the queue, so j jobs means j domains doing work. *)
let run_tasks pool (tasks : (unit -> unit) array) =
  let pending = ref (Array.length tasks) in
  let wrap task () =
    task ();
    Mutex.lock pool.mutex;
    decr pending;
    if !pending = 0 then Condition.broadcast pool.batch_done;
    Mutex.unlock pool.mutex
  in
  Mutex.lock pool.mutex;
  Array.iter (fun t -> Queue.add (wrap t) pool.queue) tasks;
  Condition.broadcast pool.work;
  let rec drain () =
    match Queue.take_opt pool.queue with
    | Some t ->
        Mutex.unlock pool.mutex;
        t ();
        Mutex.lock pool.mutex;
        drain ()
    | None -> ()
  in
  drain ();
  while !pending > 0 do
    Condition.wait pool.batch_done pool.mutex
  done;
  Mutex.unlock pool.mutex

(* ---------- chunked fan-out ---------- *)

(* Several chunks per job: per-item cost is uneven (Ziv precision levels
   differ wildly across oracle inputs), so over-decomposition plus the
   shared queue gives load balancing without sacrificing determinism. *)
let chunk_factor = 8

(* Chunk k of c over n items: [k*n/c, (k+1)*n/c). *)
let chunk_lo n c k = k * n / c
let chunk_hi n c k = (k + 1) * n / c

(* The static grid: at most [j * chunk_factor] chunks, and never so many
   that a chunk holds fewer than [grain] items.  [None] (fewer than two
   chunks) means the caller runs the whole range itself. *)
let grid ~grain n =
  let j = jobs () and grain = Stdlib.max 1 grain in
  if j <= 1 || n < 2 * grain then None
  else Some (j, Stdlib.min (j * chunk_factor) (n / grain))

(* Fan [n] items out as [c] chunk tasks; [body lo hi] fills chunk
   [\[lo, hi)].  The exception of the lowest-numbered failing chunk is
   re-raised after the whole batch has finished, so no worker is ever
   abandoned mid-write. *)
let fan_out j c n body =
  Diag.event ~level:Diag.Debug "parallel.fan-out" (fun () ->
      [ ("jobs", Diag.Int j); ("items", Diag.Int n); ("chunks", Diag.Int c) ]);
  let failed = Array.make c None in
  let tasks =
    Array.init c (fun k () ->
        try body (chunk_lo n c k) (chunk_hi n c k)
        with e -> failed.(k) <- Some (e, Printexc.get_raw_backtrace ()))
  in
  run_tasks (ensure_pool j) tasks;
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    failed

(* map_array / init write chunk results straight into one preallocated
   result array — per-chunk slice arrays plus the final [Array.concat]
   copied every element twice and left a garbage slice per chunk.
   ['b array] cannot be preallocated without a value of type ['b], so
   the driver computes element 0 up front as the fill seed and the
   chunk covering index 0 starts at 1.  Chunks write disjoint ranges;
   the pool mutex publishes the writes back to the driver. *)

let init ?(grain = 1) n f =
  match grid ~grain n with
  | None -> Array.init n f
  | Some (j, c) ->
      let out = Array.make n (f 0) in
      fan_out j c n (fun lo hi ->
          for i = (if lo = 0 then 1 else lo) to hi - 1 do
            out.(i) <- f i
          done);
      out

let map_array ?grain f a = init ?grain (Array.length a) (fun i -> f a.(i))

let iter_chunks ?(grain = 1) n f =
  if n > 0 then
    match grid ~grain n with
    | None -> f 0 n
    | Some (j, c) -> fan_out j c n f
