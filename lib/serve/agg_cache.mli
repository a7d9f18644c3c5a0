(** The serving layer's encrypted-aggregate cache (DESIGN.md §14):
    maps a query shape ({!Mycelium_core.Runtime.shape}) to a
    {!Mycelium_core.Runtime.prepared} — the relinearized aggregate a
    repeated ego-centric query can decrypt directly, skipping gather
    and aggregation entirely. Cached ciphertexts stay decryptable
    across committee rotations because VSR redistributes shares of the
    same key.

    Eviction is deterministic LRU: the use clock is a strictly monotone
    tick, so the victim is a pure function of the operation sequence.
    Hits, misses and evictions are counted in [Obs] under
    [serve.cache_hits] / [serve.cache_misses] / [serve.cache_evictions]. *)

(* lint: allow interface — the cache owns mutable recency state and
   Obs counters; handles are compared by identity only *)
type t

val create : capacity:int -> t
(** [capacity = 0] disables the cache: every {!find} misses, {!put} is
    a no-op. A cache serves one runtime: its graph, degree bound and
    keys are fixed at init, so entries of different runtimes must never
    share a cache. *)

val key : Mycelium_query.Ast.t -> string
(** The cache key: {!Mycelium_core.Runtime.shape}, the canonical query
    text with the analyst-chosen name blanked, so equal-shaped queries
    share an entry. Clip bounds are part of the text. *)

val find : t -> string -> Mycelium_core.Runtime.prepared option
(** Counts a hit or a miss, and refreshes recency on hit. *)

val put : t -> string -> Mycelium_core.Runtime.prepared -> unit

val length : t -> int
val evictions : t -> int

(* lint: allow unused-export — test_serve reads the per-instance hit
   count back *)
val hits : t -> int
(** Per-instance lookup counters (the Obs [serve.cache_*] counters are
    process-global); used by the scheduler's hit-accounting tests. *)

(* lint: allow unused-export — test_serve reads the per-instance miss
   count back *)
val misses : t -> int
