(** The multi-query serving layer (DESIGN.md §14): a budget-gated
    scheduler that accumulates admitted queries into batches sharing
    one mixnet round-trip and one committee threshold-decryption
    session, backed by the encrypted-aggregate cache ({!Agg_cache})
    and the per-user admission accountant ({!Accountant}).

    A batch flushes when it reaches [batch_size] members or when the
    oldest pending member has waited [deadline_s] (checked against the
    caller-supplied arrival clock, so scheduling is deterministic and
    replayable from a workload file). Batching is invisible in the
    released bytes: every member's DP noise comes from its own
    [Member_noise] stream, keyed by [seed] and its admission sequence
    number ({!Mycelium_util.Rng.keyed}), and its injected transit
    faults from its own query-shape-derived fault coordinate, so a
    query releases byte-identical results at batch size 1 or 8, cache
    hit or miss. Two [Serve] instances over one runtime with the same
    [seed] share member streams: give each its own seed.

    Duplicate query shapes arriving in the same batch also hit the
    cache: a chunk runs in two passes — first occurrences compute and
    write back, duplicates then decrypt the cached aggregate — and the
    responses are re-merged in admission order. *)

type config = {
  batch_size : int;  (** flush when this many members are pending *)
  deadline_s : float;
      (** flush when the oldest pending member has waited this long on
          the arrival clock *)
  per_user_budget : float;  (** each analyst's total epsilon *)
  accounting : Mycelium_dp.Dp.accounting;
  cache_capacity : int;  (** 0 disables the encrypted-aggregate cache *)
  allow_unbudgeted : bool;
      (** admit [epsilon = infinity] queries (the single-query debug
          semantics); off by default — a serving layer refuses to
          release unbudgeted results *)
  seed : int64;  (** root of the per-member DP-noise streams *)
}

val default_config : config
(** batch 8, deadline 1.0, per-user budget 10 under Basic composition,
    cache capacity 64, unbudgeted queries refused, seed 1. *)

type request = {
  user : string;
  epsilon : float;
  sql : string;
  name : string option;
      (** the analyst's query name (e.g. the corpus id), threaded to
          the parser so audit-ledger rows and responses carry it
          instead of the parser's ["query"] placeholder; [None] keeps
          the placeholder.  Names never enter the cache key — equal
          shapes share an entry regardless. *)
}

type rejection =
  | Parse_rejected of string
  | Invalid of Mycelium_core.Runtime.query_error
  | Unbudgeted
      (** [epsilon = infinity] without the [allow_unbudgeted] override *)
  | Budget_rejected of float
      (** the user's remaining budget; the rejected charge deducted
          nothing *)

type admission = Queued of int  (** the member's sequence number *) | Rejected of rejection

type response = {
  seq : int;
  user : string;
  query_name : string;
  cache_hit : bool;
  outcome :
    (Mycelium_core.Runtime.query_result, Mycelium_core.Runtime.query_error) result;
}

(* lint: allow interface — the scheduler owns a runtime handle, the
   accountant and the cache; handles are compared by identity only *)
type t

val create : ?config:config -> Mycelium_core.Runtime.t -> t

val submit : t -> arrival:float -> request -> admission * response list
(** Admit one request at time [arrival] (monotone, caller-supplied):
    deadline-flush the queue if the oldest member timed out, then
    check the epsilon ({!Mycelium_core.Runtime.check_epsilon}; a bad
    one is [Rejected (Invalid (Invalid_epsilon eps))]), parse,
    validate, gate unbudgeted queries and charge the user's budget —
    all before any crypto work. The returned responses are
    whatever batches flushed during this call (deadline or size
    trigger), possibly including the new member. *)

val drain : t -> response list
(** Flush everything pending (end of workload / shutdown). Members run
    in admission order, chunked by [batch_size] and by the ring
    capacity of one decryption session. *)

val pending_count : t -> int
val accountant : t -> Accountant.t
val cache : t -> Agg_cache.t
val rejection_to_string : rejection -> string
