(** The end-to-end Mycelium system (§4, §5): devices on a contact
    graph, a global BGV key held in committee shares, the aggregator,
    and the full query pipeline —

    analyst query -> parse/analyze -> budget charge -> flooding ->
    per-row encrypted contributions with well-formedness ZKPs ->
    spanning-tree local aggregation with transcript ZKPs -> aggregator
    verification + summation tree -> deferred relinearization ->
    committee threshold decryption with in-MPC Laplace noise ->
    released result -> committee rotation (VSR).

    By default the contributions move over an abstract reliable channel
    (the mixnet is exercised and measured separately); pass
    [route_through_mixnet] to push every 1-hop contribution through the
    full onion-routing simulator, where churn turns into the §6.3
    default-value behaviour. *)

type config = {
  params : Mycelium_bgv.Params.t;
  committee_size : int;
  committee_threshold : int;
  epsilon_budget : float;
  degree_bound : int;  (** d; must be >= the graph's max degree *)
  seed : int64;
      (** root of all randomness, the mixnet's included: every draw,
          set-up's too, comes from a stream keyed by its purpose
          ({!Mycelium_util.Rng.keyed}) *)
  byzantine_fraction : float;
      (** fraction of devices submitting over-weighted contributions
          with forged proofs (§4.6's attack), in [\[0, 1\]] *)
  route_through_mixnet : Mycelium_mixnet.Sim.config option;
      (** the runtime overrides [n_devices], [degree] and [seed] with
          the population, [degree_bound] and its own [seed] *)
  relin_degree : int option;
      (** relinearization-key degree bound. An origin's product has
          degree [multiplications + 1] (d^hops + 1: one row per vertex
          of its ball), and {!validate_query} refuses as [Infeasible],
          before any charge, a query whose degree exceeds the key's.
          The default is the largest degree admission can let through
          at [params]: 1 + the largest d^h (h >= 1) within
          {!Mycelium_query.Analysis.max_multiplications}, and at least
          2 (5 at test_small with d = 4, 7 at test_medium with
          d = 6). *)
  accounting : Mycelium_dp.Dp.accounting;
      (** budget accountant: Basic sequential composition (the paper's
          conservative default) or Advanced composition (§4.4's
          suggested refinement) *)
  faults : Mycelium_faults.Fault_plan.t option;
      (** deterministic fault plan injected into every query this
          runtime executes (chaos testing); [None] — the default —
          disables every injection point. Under a plan the pipeline
          degrades per §6.3: churned devices' contributions are
          substituted with default values (rows go missing, offline
          origins submit an encryption of zero so the summation-tree
          shape is stable), droppable channel sends retry with
          exponential backoff, crashed committee members are excluded
          and threshold decryption proceeds with any threshold+1 live
          shares, and aggregator restarts rebuild the summation tree
          from its durable leaves. What actually fired is returned in
          [query_result.degradation]. *)
  ledger : string option;
      (** append one audit record per executed query — budget charge,
          clipping and degree bounds, the wall time of each pipeline
          stage, degradation report, mixnet bytes and committee shares
          used — to this JSONL file (schema ["mycelium-ledger/1"];
          DESIGN.md §13); default [None]. Summarize with
          [mycelium audit <file>]. The ledger observes the pipeline and
          never feeds back into results.

          Tracing has no field here: it is the process-wide
          {!Mycelium_obs.Obs.enable} (or [MYCELIUM_TRACE=1]). A traced
          query records [runtime.init] at bring-up, then one span per
          stage it runs — [query.gather], [query.aggregate],
          [summation_tree.build], [summation_tree.audit],
          [bgv.relinearize], [committee.decrypt_batch],
          [committee.rotate] — with the layers below them as children
          (DESIGN.md §8). Query results, DP noise and degradation
          reports are byte-identical with tracing on or off. *)
}

val default_config : config
(** test_medium BGV parameters, committee of 10 with threshold 4,
    budget 10, d=6, honest devices, abstract channel, no faults. *)

(* lint: allow interface — the runtime is a stateful orchestrator (graph, keys, committee, ledger); handles are compared by identity only *)
type t

val init : config -> Mycelium_graph.Contact_graph.t -> t
(** If the graph's maximum degree exceeds [degree_bound] (possible for
    graphs loaded from external data rather than
    {!Mycelium_graph.Contact_graph.generate}), it is deterministically
    clipped with {!Mycelium_graph.Contact_graph.clip_to_degree_bound};
    {!graph} returns the clipped graph the queries actually run over.

    Raises [Invalid_argument] naming both numbers, before any key is
    generated, if the graph has fewer devices than [committee_size]:
    the committee is drawn from the devices.  Likewise, naming the
    field and its value, for a fraction out of range (NaN included). *)

val config : t -> config
val budget : t -> Mycelium_dp.Dp.budget
val graph : t -> Mycelium_graph.Contact_graph.t

type query_error =
  | Parse_error of string
  | Analysis_error of string
  | Infeasible of string
  | Budget_exhausted of float
  | Invalid_epsilon of float
      (** an epsilon that is neither finite and positive nor infinity
          (NaN, zero, a negative value, negative infinity); refused
          before any charge *)
  | Pipeline_error of string

val check_epsilon : float -> (unit, query_error) result
(** The admission check on an analyst's epsilon, which both
    {!run_batch} and the serving layer's [submit] make before any
    charge: finite and positive, or [infinity] (release exactly).
    Anything else is [Error (Invalid_epsilon eps)]. *)

type query_result = {
  info : Mycelium_query.Analysis.info;
  result : Mycelium_query.Semantics.result;
  noisy_bins : float array;
  discarded_contributions : int;  (** rows rejected by ZKP checks *)
  origins_included : int;
  committee_generation : int;
  committee_shares : int;
      (** decryption shares actually combined for the release (>=
          threshold + 1; fewer than the committee size when crashed
          members were excluded) *)
  mixnet_losses : int;  (** rows lost in transit (mixnet mode only) *)
  mixnet_bytes : int;
      (** bytes deposited at aggregator mailboxes for this query's
          round (0 over the abstract channel) *)
  c_rounds : int;
      (** C-rounds the query's communication occupies: 2*hops
          vertex-program rounds of k_mix+1 C-rounds each (§3.5); with
          hour-long rounds, the wall-clock the paper quotes in §6.3 *)
  degradation : Mycelium_faults.Injector.report;
      (** what the fault plan actually injected and how the pipeline
          degraded; {!Mycelium_faults.Injector.empty_report} when
          [config.faults] is [None]. Deterministic: the same config,
          graph and query reproduce this report exactly. *)
}

val run_query : epsilon:float -> t -> string -> (query_result, query_error) result
(** Parse and execute a query, charging [epsilon] against {!budget}
    ([infinity] releases exactly and is never charged). The query runs
    as a batch of one through {!run_batch}; its DP noise comes from
    the [Query_noise] stream of (config seed, query id), which no
    served member's [Member_noise] stream can equal. On success the
    committee rotates. *)

val exact_bins_for_tests : t -> Mycelium_query.Analysis.info -> int array
(** The plaintext oracle on the same graph (for equality checks with
    epsilon = infinity). *)

(** {2 Batched execution (DESIGN.md §14)}

    Every query executes as a member of a batch: {!run_query} is a
    batch of one, and the serving layer ({!Mycelium_serve}) submits
    admitted queries in batches. One mixnet round-trip gathers the rows
    of every 1-hop member at once, aggregation stays per member, and
    one committee threshold-decryption session releases the whole
    batch. The member contract that makes batching invisible in the
    released bytes: a member's DP noise comes from its own
    [bi_noise_seed] stream, and its injected transit faults are
    evaluated at a coordinate the runtime derives from its query shape
    (name blanked) — never from the batch composition, the physical
    round counter or the shared session. *)

type prepared
(** A member's gather + aggregation output, ready for (repeated)
    decryption: the relinearized degree-1 aggregate plus the counters
    its execution produced. This is what the serving layer's
    encrypted-aggregate cache stores — the ciphertext stays valid
    across committee rotations because VSR redistributes shares of the
    same key. *)

type batch_item = {
  bi_query : Mycelium_query.Ast.t;
  bi_epsilon : float;
      (** charged against {!budget} at admission, in submission order;
          [infinity] keeps the legacy "release exactly, never charged"
          debug semantics (the serving layer refuses it without an
          explicit override) *)
  bi_noise_seed : int64;
      (** seed of the member's private DP-noise stream: a
          {!Mycelium_util.Rng.key} of its own purpose and coordinates *)
  bi_cached : prepared option;
      (** a cache hit: skip gather and aggregation, go straight to the
          shared decryption session *)
}

val shape : Mycelium_query.Ast.t -> string
(** The query's canonical printed form with the analyst-chosen name
    blanked: the serving layer's cache key, and the digest behind a
    member's transit-fault coordinate. *)

val validate_query :
  t -> Mycelium_query.Ast.t -> (Mycelium_query.Analysis.info, query_error) result
(** The static admission checks of the pipeline (analysis, parameter
    feasibility, an aggregate degree the relinearization key reaches,
    predicate placement, multi-hop restrictions), without
    executing anything. Pure: never touches the budget or any Rng
    stream. *)

val run_batch :
  t -> batch_item list -> (query_result * prepared, query_error) result list
(** Execute a batch end-to-end; the result list is parallel to the
    input. Per member: admission (validation, then the budget charge in
    submission order — the deterministic rejection order), gather
    (1-hop members share one mixnet round when the runtime routes
    through the mixnet), per-member aggregation, then one shared
    {!Committee.decrypt_batch} session and a single committee rotation.
    Each member gets its own [mycelium-ledger/1] row with its own
    charged epsilon and the wall time of each of its stages, 0 for a
    stage it skipped (a cache hit starts at decryption). The stages
    the batch shares are attributed proportionally: the mixnet gather
    by frame-byte share, the decryption session and the rotation
    after it by plaintext-window share; every other stage is measured
    per member. Returns the member's {!prepared} so a caller can cache
    it. *)
