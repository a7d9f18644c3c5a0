(** A small fixed-size work pool over OCaml 5 [Domain]s.

    The pool exists to parallelise the hot paths of the pipeline —
    per-device contribution build/verify, per-limb RNS/NTT operations,
    sibling subtree aggregation and per-round mixnet delivery — without
    changing any observable result.  The contract every caller relies on:

    {b Determinism.}  [map_array] applies a pure function to each element
    and writes results by index; a caller that folds the results does so
    {e sequentially in element order}.  Neither the number of domains nor
    the scheduling of chunks can influence the output, so query results
    are byte-identical at 1, 2 or 8 domains.
    Tasks must not share mutable state (in particular [Rng.t] handles —
    see [lib/util/rng.mli]); a task makes its own generator with
    [Rng.keyed] from its stable coordinates instead.

    {b Nesting.}  A task that itself calls into the pool (e.g. an
    [Rq.mul] inside a per-device build) runs that inner work sequentially
    on its own domain.  This keeps the pool deadlock-free and makes
    library code safe to call from anywhere.

    {b Exceptions.}  If a task raises, the first exception observed is
    re-raised on the caller's domain after all chunks have drained. *)

(* lint: allow interface — a pool is a handle to live domains; identity, not structure, is what distinguishes two pools *)
type t

type worker_stats = { tasks_run : int; exceptions_caught : int }

(* lint: allow unused-export — test_obs and test_parallel read the
   per-slot counts back *)
val worker_stats : t -> worker_stats array
(** Per-slot execution counts: slot 0 is the submitting domain, slots
    1..[domains]-1 the spawned workers.

    {b Invariant.}  [tasks_run] counts chunks claimed from the pool's
    shared chunk queue, so summed over all slots it equals the total
    number of chunks submitted through the queue — a deterministic
    quantity — while the per-slot split depends on scheduling and may
    differ between runs.  [exceptions_caught] counts chunks whose task
    raised (the first exception is re-raised to the submitter after the
    job drains; later ones are swallowed but still counted here).
    Chunks that degrade to in-place sequential execution (the 1-domain
    pool, single-element arrays, nested submissions) never enter the
    queue and are not counted.  The same counts aggregate into the
    observability registry as the [pool.chunks_run] /
    [pool.task_exceptions] metrics (see [lib/obs]) when tracing is
    enabled; [worker_stats] itself is always live. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array pool f arr] is [Array.map f arr], with the applications of
    [f] distributed over the pool's domains.  [f] must be safe to run
    concurrently with itself on distinct elements. *)

val mapi_array : t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Indexed variant of [map_array]. *)

val init : t -> int -> (int -> 'a) -> 'a array
(** [init pool n f] is [Array.init n f] with [f] run on the pool. *)

(** {1 The process-wide default pool}

    Most call sites use [default ()] rather than threading a pool handle
    through every API.  Its size is a [with_domains] override (tests)
    if one is active, else the [MYCELIUM_DOMAINS] environment variable,
    else 1 (sequential). *)

val default : unit -> t
(** The shared pool, (re)sized on demand to the resolved domain count:
    [domains - 1] spawned workers plus the submitting domain, or a
    purely sequential pool that spawns nothing at one domain.  A
    resize joins the old pool's workers; at process exit the idle
    workers end with the process, with no exit hook. *)

(* lint: allow unused-export — the determinism suites (test_crypto,
   test_faults, test_obs, test_parallel, test_serve) pin the pool size *)
val with_domains : int -> (unit -> 'a) -> 'a
(** [with_domains n f] runs [f] with the default pool forced to [n]
    domains (taking precedence over [MYCELIUM_DOMAINS]),
    restoring the previous setting afterwards.  Used by the determinism
    tests to compare runs at 1/2/8 domains within one process. *)

val current_domains : unit -> int
(** Domain count the default pool resolves to right now. *)

