(** Deterministic pseudo-random number generation.

    Every randomized component of the library threads an explicit [Rng.t]
    so that simulations, tests and benchmarks are reproducible from a
    seed. The generator is SplitMix64 (Steele et al., OOPSLA'14): tiny
    state and full 64-bit output. Not cryptographically secure;
    protocol-level randomness in the simulation that must be
    unpredictable to the simulated adversary is modeled separately.

    {b Keyed streams.}  Every draw the query pipeline and the mixnet
    simulator make, set-up included, comes from {!keyed}: a stream
    named by (root, purpose, coordinates), so a pure function of
    {e what} it is for, never of how many draws, queries, batches,
    audits or path set-ups came before it, nor of the domain a task
    runs on.  Two purposes never share a stream.

    {b Domain ownership rule.}  A [t] is mutable, unsynchronised state:
    it must only ever be advanced by the domain that created it.  Never
    capture a handle created outside a [Mycelium_parallel.Pool] task
    inside that task — concurrent draws are a data race, and even a
    benign race would make the stream, and every result derived from
    it, depend on scheduling.  A task makes its own generator with
    {!keyed} from its stable coordinates. *)

(* lint: allow interface — a generator is an owned mutable stream;
   handles are compared by identity, never by structure *)
type t

val create : int64 -> t
(** [create seed] makes a fresh generator. Equal seeds give equal
    streams. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val mix64 : int64 -> int64 -> int64
(** [mix64 a b] hash-combines two words through the SplitMix64
    finalizer. Pure: equal inputs give equal outputs. {!key} is built
    from it. *)

(** What a keyed stream is for.  Each purpose has its own tag, so
    streams of different purposes differ at equal roots and
    coordinates.  The coordinates each purpose is keyed by:

    - [Genesis]: [\[\]] — the genesis ceremony: the BGV key pair,
      relinearization keys, ZKP setup and the key's first sharing
    - [Byzantine_set]: [\[\]] — which devices are Byzantine
    - [Contribution_row]: [\[query id; contributor; destination\]]
    - [Origin_aggregate]: [\[query id; origin\]]
    - [Audit_probe]: [\[query id\]]
    - [Decrypt_session]: [\[query id of the batch's first member\]] —
      recruitment and decryption smudging; keyed by the batch, never by
      the committee generation, which a failed session leaves unchanged
    - [Committee_rotation]: [\[generation the rotation creates\]] —
      the first device committee too, as generation 1
    - [Query_noise]: [\[query id\]], from the runtime seed
    - [Member_noise]: [\[admission seq\]], from the serving seed
    - [Fault_churn], [Fault_drop], [Fault_delay], [Fault_forge]: the
      fault plan's decision coordinates, from the plan seed

    The mixnet simulator's purposes, all from its config seed (the
    runtime's seed when a runtime owns the simulator); a C-round is the
    simulator's clock:

    - [Mix_malicious]: [\[\]] — which devices are Byzantine
    - [Mix_device_key]: [\[device; pseudonym index\]] — one
      pseudonym's key pair (the keys fix the map, so the beacon)
    - [Mix_path]: [\[first link id of the attempt\]] — one path set-up
      attempt: hop choice, relay-offline checks, hand-shake encryptions
    - [Mix_link_key]: [\[link id\]] — the link's symmetric key
    - [Mix_churn]: [\[C-round; device\]] — whether the device is online
    - [Mix_shuffle]: [\[C-round; device\]] — a forwarder's mixing order
    - [Mix_dummy]: [\[C-round; slot id\]] — a dummy body
    - [Mix_audit]: [\[C-round; device\]] — the device's map spot checks *)
type purpose =
  | Genesis
  | Byzantine_set
  | Contribution_row
  | Origin_aggregate
  | Audit_probe
  | Decrypt_session
  | Committee_rotation
  | Query_noise
  | Member_noise
  | Fault_churn
  | Fault_drop
  | Fault_delay
  | Fault_forge
  | Mix_malicious
  | Mix_device_key
  | Mix_path
  | Mix_link_key
  | Mix_churn
  | Mix_shuffle
  | Mix_dummy
  | Mix_audit

val key : int64 -> purpose -> int list -> int64
(** [key root purpose coords] folds {!mix64} over [coords], starting
    from [root] mixed with the purpose's tag. Pure. *)

val keyed : int64 -> purpose -> int list -> t
(** [keyed root purpose coords] is [create (key root purpose coords)]:
    the stream of one purpose at one set of coordinates. *)

val bits62 : t -> int
(** Uniform non-negative [int] using 62 of the 64 output bits. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Raises [Invalid_argument] if
    [n <= 0]. Uses rejection sampling, so the distribution is exact. *)

val fill_int : t -> int -> int array -> unit
(** [fill_int t n a] sets [a.(0)], [a.(1)], … in that order to
    [int t n]: the same values as that loop of single draws, and it
    leaves [t] where the loop would, so the next draw is the same too.
    It runs faster, and allocates the same at any length.  Raises
    [Invalid_argument] if [n <= 0]. *)

val fill_centered_binomial : t -> eta:int -> int array -> unit
(** [fill_centered_binomial t ~eta a] sets [a.(0)], [a.(1)], … in that
    order to a centred binomial draw with parameter [eta]: the sum over
    [eta] steps of [+1] if the low bit of [int64 t] is set, then [-1]
    if the low bit of the next [int64 t] is.  Each cell
    lies in [\[-eta, eta\]] with variance [eta/2].  Like {!fill_int} it
    makes exactly the single draws' steps: the same values, and [t]
    left where they would leave it. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] fresh pseudo-random bytes. *)

val fill : t -> Bytes.t -> pos:int -> len:int -> unit
(** [fill t b ~pos ~len] writes [len] fresh pseudo-random bytes into
    [b] at [pos] — the allocation-free form of {!bytes}: it draws the
    same stream, so [fill] into a slice and [bytes] of the same length
    advance the generator identically. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct indices from
    [\[0, n)], in random order. Raises [Invalid_argument] if [k > n]. *)

val laplace : t -> float -> float
(** [laplace t b] draws from the Laplace distribution with mean 0 and
    scale [b]. *)

val gaussian : t -> float -> float
(** [gaussian t sigma] draws from N(0, sigma^2) via Box–Muller. *)

val geometric : t -> float -> int
(** [geometric t p] counts Bernoulli(p) failures before the first
    success; support {0,1,2,...}. *)
