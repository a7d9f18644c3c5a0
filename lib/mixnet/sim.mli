(** Discrete C-round simulation of Mycelium's communication layer
    (§3.2–§3.5).

    One process plays every device plus the aggregator. Time advances
    in C-rounds; messages deposited in a pseudonym's mailbox during
    round t are picked up in round t+1 (or later, if the owner is
    offline — the aggregator buffers). The aggregator commits a Merkle
    tree over every mailbox and a round tree over those to the bulletin
    board each round, and devices verify inclusion proofs for their
    batches, so dropped messages are detectable (§3.4).

    Fault injection: a configurable fraction of devices is Byzantine
    (they collude with the aggregator-side observer, reveal their
    mix mappings, and drop the messages they forward — covering the
    drop with a §3.5 dummy so the traffic pattern stays intact), and
    every device goes offline each round with the churn probability.

    The adversary model is the honest-but-curious aggregator plus the
    Byzantine devices: an {!Observer} records which mailbox slots every
    device downloads and uploads, and computes candidate-sender sets by
    backward closure over those observations (intersecting the replica
    copies of a message, the stronger attack discussed in §6.3).

    Path setup can run the full telescoping hand-shake with real
    public-key cryptography ([fast_setup = false]; C-round accounting
    follows §3.4's k^2+2k), or install the per-hop symmetric keys
    out of band ([fast_setup = true]) for large Monte Carlo runs where
    only the forwarding phase is being measured.

    Randomness: every draw comes from a stream keyed by its
    coordinates under [seed] ({!Mycelium_util.Rng.keyed}, the [Mix_*]
    purposes): the Byzantine set, each pseudonym's key pair (the keys
    fix the map and so the beacon), each path set-up attempt, and a
    link's symmetric key by its link id.  No key, audit, failed set-up
    attempt or earlier {!setup_paths} call shifts another draw, and
    results agree at any domain count.

    Memory model (DESIGN.md §12): mailbox slots live in a flat slab
    and their bodies in two ping-pong byte arenas reused across
    C-rounds and query rounds, so a run's footprint is a function of
    the configured scale, not of how many rounds it has executed. *)

type config = {
  n_devices : int;
  pseudonyms_per_device : int;
      (** P: each device registers this many pseudonyms, numbered
          device-major (device d owns [d*P, (d+1)*P)); the M1/M2 bound
          the §3.3 audits enforce *)
  hops : int;  (** k, at most 15 (packed route encoding) *)
  replicas : int;  (** r *)
  fraction : float;
      (** f, in (0, 1/k]: each hop is served by floor(f * P) >= 1 of the
          P = [n_devices * pseudonyms_per_device] pseudonyms ({!Hopselect}) *)
  degree : int;  (** d: messages per device per query round *)
  malicious_fraction : float;  (** in [\[0, 1\]] *)
  churn : float;  (** offline probability, one decision per (C-round, device) *)
  fast_setup : bool;
  fast_keys : bool;
      (** draw device keypairs without the modular exponentiation;
          the public keys parse, range-check and fingerprint but cannot
          decrypt, so this is valid only together with [fast_setup]
          (enforced by {!create}).  Changes the device keys, and with
          them every hop choice, relative to [fast_keys = false]. *)
  verify_every : int;
      (** Which mailbox inclusion proofs the devices check each
          C-round: 0 none, 1 every non-empty mailbox's, s > 1 a
          deterministic 1-in-s stride over the non-empty mailboxes, for
          large-n runs where building every proof dominates.  Never
          consults the Rng, so it cannot shift any simulated outcome. *)
  anon_sample : int;
      (** 0 or 1: compute the §6.3 candidate-set closure for every
          delivered message.  s > 1: close over every s-th delivered
          message only ([round_stats.anonymity_sets] then holds the
          sample); delivery and identification accounting always covers
          all messages.  Never consults the Rng. *)
  seed : int64;
}

val default_config : config
(** Figure 4's parameters at simulable scale: k=3, r=2, f=0.1, d=10,
    2% malicious, no churn, n=500; exact verification (no sampling). *)

(* lint: allow interface — the simulator is a mutable world (mailboxes, routes, in-flight messages); structural comparison is meaningless *)
type t

val create : config -> t
(** Raises [Invalid_argument] naming the field and its value, before
    any key is generated, if a fraction is out of range (NaN included). *)

val vmap : t -> Vmap.t
val bulletin : t -> Bulletin.t
(* lint: allow unused-export — test_mixnet reads the C-round clock *)
val current_round : t -> int

val audit_all : t -> bool
(** Every honest device runs its §3.3 M1/M2 audits.  Read-only: it
    changes no later outcome. *)

type setup_stats = {
  paths_requested : int;
  paths_established : int;
  paths_failed : int;  (** dropped extensions, detected and abandoned *)
  setup_rounds : int;  (** C-rounds consumed (k^2 + 2k when full) *)
  complaints : int;  (** bulletin complaints posted *)
}

val setup_paths : ?targets:int array array -> t -> setup_stats
(** [targets.(device)] lists destination *pseudonym numbers* (defaults
    to [degree] copies of the device's own pseudonym, the §3.2
    self-loop padding). Each target gets [replicas] independent
    paths. A later call adds its messages to the earlier calls'. *)

type round_stats = {
  messages_sent : int;  (** logical messages (before replication) *)
  delivered : int;  (** at least one replica arrived intact *)
  lost : int;
  copies_delivered : int;
  copies_lost : int;
  dummies_uploaded : int;
  identified : int;  (** messages with a fully-malicious replica path *)
  anonymity_sets : int array;
      (** per delivered message, from the observer (a 1-in-[anon_sample]
          subsample of them when [anon_sample > 1]) *)
  deposited_bytes : int;
      (** bytes deposited across the round's C-rounds: every mailbox
          slot, dummies included, at the round's uniform body length —
          measured, independent of the Obs counters *)
  rounds_used : int;  (** k+1 C-rounds *)
}

val run_query_round : t -> payload:bytes -> round_stats
(** One communication round of the vertex program: every device sends
    its [degree] messages over its established paths; the stats report
    delivery and what the adversary could infer. *)

val run_query_round_with : t -> payload_of:(source:int -> dest:int -> bytes) -> round_stats
(** Same, with a per-(source, destination) payload — how the vertex
    program actually uses the layer (distinct contribution per
    neighbor). All payloads must have equal length, or messages become
    distinguishable; raises [Invalid_argument] otherwise.

    [payload_of] must be pure (same bytes for the same pair, no shared
    mutable state): it is invoked once per online sending group per
    round — for the first such group sequentially, to size the body
    arena, and for the others from the parallel wrap phase, on an
    arbitrary pool domain.  Draw any randomness it needs from a stream
    keyed by the pair ({!Mycelium_util.Rng.keyed}). *)

val deliveries : t -> (int * int * bytes) list
(** [(source_device, dest_pseudonym, payload)] messages opened by their
    destinations in the last query round, in message order; lets
    callers (the vertex program runtime) consume actual message
    contents. *)

type footprint = {
  established_paths : int;
  route_entries : int;  (** forwarding duties across all devices *)
  slot_capacity : int;  (** slot-slab high-water mark, in slots *)
  arena_bytes : int;  (** both body arenas *)
  download_entries : int;  (** observer download records held *)
  link_index_entries : int;  (** live slots in the C-round link index *)
  mailboxes_in_use : int;  (** currently non-empty mailboxes *)
}

val footprint : t -> footprint
(** Sizes of the simulator's long-lived structures, for the bench
    memory gate and the leak-regression tests: after any number of
    query rounds at a fixed configuration, every field must be stable
    (capacities at their high-water mark, per-round tables emptied or
    constant). *)
