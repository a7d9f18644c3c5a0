(** Deterministic, seed-driven fault plans for the query pipeline.

    A plan describes *which* faults a chaos run injects — per-message
    drops and delays on droppable channels, device churn, crashed
    committee members, forged ZKP contributions, and aggregator
    restarts — without holding any mutable state. Every decision is a
    pure function of [(plan.seed, fault class, event coordinates)]:
    the key {!Mycelium_util.Rng.key} derives under the class's purpose
    ([Fault_churn], [Fault_drop], [Fault_delay] or [Fault_forge]), so:

    - the same plan injects exactly the same faults on every run
      (reproducible chaos: rerunning a failing seed replays the run);
    - injection is independent of evaluation order — components can
      consult the plan concurrently or in any order without skewing
      each other's outcomes;
    - tests can *recompute* the expected fault set and check the
      runtime's degradation report against it exactly.

    The degradation semantics the plan drives are the paper's §6.3:
    churned devices' contributions are substituted with default
    values, droppable channel sends are retried with exponential
    backoff, threshold decryption succeeds with any [threshold + 1]
    live shares, and a restarted aggregator rebuilds its summation
    tree from durable leaves. *)

type t = {
  seed : int64;  (** decision key; independent of the runtime's seed *)
  drop_rate : float;
      (** per-attempt probability that a droppable channel send is
          lost in transit *)
  max_send_attempts : int;
      (** retry budget per send (exponential backoff between tries);
          a message dropped on every attempt is permanently lost *)
  delay_rate : float;  (** probability a delivered message is late *)
  max_delay_rounds : int;  (** worst-case lateness, in C-rounds *)
  churn_rate : float;
      (** per-device probability of being offline for the whole query
          — its contributions get §6.3 default-value substitution *)
  crashed_committee : int list;
      (** committee member indices that crash before decryption and
          are excluded from the participant set *)
  forge_rate : float;
      (** per-device probability of submitting an over-weighted
          contribution with a forged ZKP (§4.6's attack) *)
  aggregator_restarts : int;
      (** how many times the aggregator crashes and recovers while
          building the summation tree *)
}

val none : t
(** The empty plan: every rate 0, nothing crashes. Injecting [none]
    must be behaviourally identical to not injecting at all. *)

val make :
  ?drop_rate:float ->
  ?max_send_attempts:int ->
  ?delay_rate:float ->
  ?max_delay_rounds:int ->
  ?churn_rate:float ->
  ?crashed_committee:int list ->
  ?forge_rate:float ->
  ?aggregator_restarts:int ->
  seed:int64 ->
  unit ->
  t
(** Defaults: all rates 0, [max_send_attempts = 4],
    [max_delay_rounds = 3]. Raises [Invalid_argument] on rates outside
    [0, 1] or non-positive attempt/delay bounds. *)

val is_none : t -> bool
(** No fault of any class can fire under this plan. *)

(** {2 Stateless decisions}

    Coordinates identify the event, not the call site: the same
    coordinates always give the same answer. *)

val device_churned : t -> device:int -> bool
(** Offline for the whole query round. *)

val contribution_forged : t -> device:int -> bool
(** This device forges its ZKPs for this query. Churn takes
    precedence: an offline device sends nothing, forged or not. *)

val send_dropped : t -> round:int -> source:int -> dest:int -> attempt:int -> bool
(** The [attempt]-th transmission of the (source, dest) message of a
    given round is lost. Independent across attempts, so retrying can
    succeed — the transient-loss model behind retry-with-backoff. *)

val send_delay : t -> round:int -> source:int -> dest:int -> int
(** Delivery lateness in rounds: 0 for on-time, otherwise in
    [1, max_delay_rounds]. Late messages still arrive (reordering,
    not loss). *)

val backoff_units : t -> attempts:int -> int
(** Total backoff an operation retried [attempts - 1] times slept
    through, in units of the base delay: sum of 2^i for the failed
    attempts (1 + 2 + 4 + ...). 0 when the first attempt succeeded. *)

(** {2 Expected fault sets — for checking degradation reports} *)

val crashed_members : t -> size:int -> int list
(** [crashed_committee] clamped to valid indices, deduplicated,
    sorted. *)
