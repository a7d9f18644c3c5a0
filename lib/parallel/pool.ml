(* A fixed-size domain pool with deterministic map semantics.

   Design notes:
   - Workers are persistent: spawned once at [create], parked on a
     condition variable between jobs.  A job is published by bumping
     [epoch]; chunks are claimed from a shared counter under the pool
     mutex, so scheduling is dynamic but output placement is by index
     and therefore independent of scheduling.
   - The submitting domain participates in the job, so [create
     ~domains:n] uses exactly [n] domains.
   - Re-entrancy: a task that calls back into the pool must not block
     waiting for workers that may themselves be busy (or be this very
     domain).  A domain-local flag marks "currently inside a pool task";
     submissions made while it is set run sequentially in place. *)

module Obs = Mycelium_obs.Obs

(* Aggregate pool metrics (DESIGN.md §8); per-worker splits are exposed
   through [worker_stats]. *)
let m_chunks = Obs.Metrics.counter Obs.Names.pool_chunks_run
let m_exceptions = Obs.Metrics.counter Obs.Names.pool_task_exceptions

type worker_stats = { tasks_run : int; exceptions_caught : int }

type state = {
  mutex : Mutex.t;
  work : Condition.t;            (* signalled when a job is published or on stop *)
  finished : Condition.t;        (* signalled when the last chunk completes *)
  mutable epoch : int;           (* job generation counter *)
  mutable job : (int -> unit) option;
  mutable n_chunks : int;
  mutable next_chunk : int;
  mutable completed : int;
  mutable failure : exn option;  (* first exception raised by a chunk *)
  mutable stop : bool;
}

type t = {
  size : int;
  state : state option;          (* None for the sequential pool *)
  mutable workers : unit Domain.t list;
  (* Per-slot (tasks claimed, exceptions caught); slot 0 is the
     submitting domain, slots 1..size-1 the spawned workers.  Updated
     unconditionally (one atomic increment per claimed chunk, amortised
     over the chunk's work) so the counts are available even when the
     metrics registry is disabled. *)
  stats : (int Atomic.t * int Atomic.t) array;
}

let worker_stats t =
  Array.map
    (fun (tasks, exc) ->
      { tasks_run = Atomic.get tasks; exceptions_caught = Atomic.get exc })
    t.stats

(* Set while the current domain is executing a pool task (worker domains
   set it permanently).  Nested submissions check it and degrade to
   sequential execution. *)
let in_task_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let in_task () = Domain.DLS.get in_task_key

(* Claim and run chunks until none remain.  Called with [st.mutex] held;
   returns with it held.  [slot] identifies the draining domain's entry
   in the pool's per-worker stats. *)
let drain_chunks st slot f =
  let tasks, exceptions = slot in
  while st.next_chunk < st.n_chunks do
    let c = st.next_chunk in
    st.next_chunk <- st.next_chunk + 1;
    let skip = st.failure <> None in
    Mutex.unlock st.mutex;
    let err = if skip then None else (try f c; None with e -> Some e) in
    Atomic.incr tasks;
    Obs.Metrics.incr m_chunks;
    if err <> None then begin
      Atomic.incr exceptions;
      Obs.Metrics.incr m_exceptions
    end;
    Mutex.lock st.mutex;
    (match err with
    | Some e when st.failure = None -> st.failure <- Some e
    | _ -> ());
    st.completed <- st.completed + 1;
    if st.completed = st.n_chunks then Condition.broadcast st.finished
  done

let worker st slot =
  Domain.DLS.set in_task_key true;
  let seen = ref 0 in
  Mutex.lock st.mutex;
  (try
     while not st.stop do
       match st.job with
       | Some f when st.epoch <> !seen ->
         seen := st.epoch;
         drain_chunks st slot f
       | _ -> Condition.wait st.work st.mutex
     done
   with e ->
     Mutex.unlock st.mutex;
     raise e);
  Mutex.unlock st.mutex

let make_stats size = Array.init size (fun _ -> (Atomic.make 0, Atomic.make 0))

let create ~domains =
  let size = max 1 domains in
  if size = 1 then { size = 1; state = None; workers = []; stats = make_stats 1 }
  else
    let st =
      {
        mutex = Mutex.create ();
        work = Condition.create ();
        finished = Condition.create ();
        epoch = 0;
        job = None;
        n_chunks = 0;
        next_chunk = 0;
        completed = 0;
        failure = None;
        stop = false;
      }
    in
    let stats = make_stats size in
    let workers =
      List.init (size - 1) (fun i -> Domain.spawn (fun () -> worker st stats.(i + 1)))
    in
    { size; state = Some st; workers; stats }

let shutdown t =
  match t.state with
  | None -> ()
  | Some st ->
    Mutex.lock st.mutex;
    st.stop <- true;
    Condition.broadcast st.work;
    Mutex.unlock st.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []

(* Run [f 0 .. f (chunks-1)] across the pool; the caller participates.
   Raises the first task exception after all chunks have drained. *)
let run_chunks t ~chunks f =
  if chunks > 0 then
    match t.state with
    | None ->
      for c = 0 to chunks - 1 do
        f c
      done
    | Some _ when in_task () ->
      for c = 0 to chunks - 1 do
        f c
      done
    | Some st ->
      Obs.span Obs.Names.pool_job ~attrs:[ ("chunks", Obs.Json.Int chunks) ] @@ fun () ->
      Mutex.lock st.mutex;
      st.job <- Some f;
      st.n_chunks <- chunks;
      st.next_chunk <- 0;
      st.completed <- 0;
      st.failure <- None;
      st.epoch <- st.epoch + 1;
      Condition.broadcast st.work;
      Domain.DLS.set in_task_key true;
      let restore () = Domain.DLS.set in_task_key false in
      (try drain_chunks st t.stats.(0) f
       with e ->
         restore ();
         Mutex.unlock st.mutex;
         raise e);
      restore ();
      while st.completed < st.n_chunks do
        Condition.wait st.finished st.mutex
      done;
      let failure = st.failure in
      st.job <- None;
      st.failure <- None;
      Mutex.unlock st.mutex;
      (match failure with Some e -> raise e | None -> ())

let mapi_array t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.size = 1 || n = 1 || in_task () then Array.mapi f arr
  else begin
    let out = Array.make n None in
    (* A few chunks per domain so a slow element does not serialise the
       tail; chunking only affects scheduling, never results. *)
    let chunks = min n (t.size * 4) in
    let per = (n + chunks - 1) / chunks in
    run_chunks t ~chunks (fun c ->
        let lo = c * per in
        let hi = min n (lo + per) in
        for i = lo to hi - 1 do
          out.(i) <- Some (f i arr.(i))
        done);
    Array.map (function Some v -> v | None -> assert false) out
  end

let map_array t f arr = mapi_array t (fun _ x -> f x) arr

let init t n f =
  if n < 0 then invalid_arg "Pool.init";
  mapi_array t (fun i () -> f i) (Array.make n ())

(* ------------------------------------------------------------------ *)
(* The process-wide default pool                                       *)
(* ------------------------------------------------------------------ *)

(* [MYCELIUM_DOMAINS], or 1 (sequential) when unset or invalid. *)
let env_domains =
  lazy
    (let parse s = int_of_string_opt (String.trim s) in
     match Option.bind (Sys.getenv_opt "MYCELIUM_DOMAINS") parse with
     | Some n when n >= 1 -> n
     | Some _ | None -> 1)

let forced : int option Atomic.t = Atomic.make None

let resolve () =
  match Atomic.get forced with Some n -> n | None -> Lazy.force env_domains

let current_domains () = resolve ()

let sequential = { size = 1; state = None; workers = []; stats = make_stats 1 }
let current = ref sequential
let current_mutex = Mutex.create ()

(* The live default pool's size, read when metrics are exported; it
   never forces the pool to be (re)built. *)
let () =
  Obs.Sampler.register_source ~name:"pool" (fun () ->
      [ (Obs.Names.pool_domains, float_of_int (!current).size) ])

(* The default pool is only (re)built from the main domain: tasks never
   call [default] with a different resolved size (nested calls run
   sequentially without touching it), so the lock is belt-and-braces. *)
let default () =
  if Int.equal (!current).size (resolve ()) then !current
  else begin
    Mutex.lock current_mutex;
    let want = resolve () in
    if not (Int.equal (!current).size want) then begin
      shutdown !current;
      current := create ~domains:want
    end;
    let p = !current in
    Mutex.unlock current_mutex;
    p
  end

let with_domains n f =
  let saved = Atomic.get forced in
  Atomic.set forced (Some (max 1 n));
  Fun.protect
    ~finally:(fun () ->
      Atomic.set forced saved;
      ignore (default ()))
    (fun () ->
      ignore (default ());
      f ())
