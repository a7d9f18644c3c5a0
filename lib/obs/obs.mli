(** Structured tracing, metrics and levels for the query pipeline
    (DESIGN.md §8 and §13).

    {b The overhead contract.}  Every instrumentation point —
    [span], [sampled_span], [instant], and each [Metrics] update —
    starts with a single load of the tracing flag and a conditional
    branch.  While tracing is off nothing else happens: no allocation,
    no clock read, no atomic write.  Levels add no work to instrumented
    code: the exporters read them from their [Sampler] sources.  The
    flag is write-once configuration ([MYCELIUM_TRACE] at startup, or
    [enable] before a run); it is never flipped mid-phase.

    {b One event store.}  Spans are recorded into a per-domain buffer
    reached through [Domain.DLS]; recording takes no lock (a global
    registry mutex is touched once per domain, on its first span), so
    instrumented code is safe inside [Pool] workers.  An event without
    duration — an injected fault, a decryption fallback — is an
    [instant]: a closed span of zero length in the same buffer, so a
    trace shows it inside the span where it happened.  Metrics are
    shared [Atomic] cells.  Exporters ([write_chrome_trace],
    [metrics_table], the Prometheus dump) read every domain's buffer
    and must only be called while no instrumented parallel work is in
    flight.

    {b Determinism.}  Observability never draws from an [Rng.t] and
    never feeds back into computation: query results, DP noise and
    degradation reports are byte-identical with tracing on or off.
    Timestamps exist only in exported traces, never in results. *)

(** Minimal JSON — the one encoder (and parser) in the tree; the bench
    harness, the exporters and the audit ledger share it. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** A finite [Num] is written with the fewest digits (15 or 17) that
      parse back to the same float, so [parse] returns it exactly; a
      non-finite [Num] is written [null]. *)

  val parse : string -> (t, string) result
  (** Strict parser covering everything [to_string] emits; used by the
      exporter round-trip tests and the ledger reader.  [\uXXXX] escapes decode to UTF-8; surrogate pairs
      combine into one code point, and lone or misordered surrogates
      are rejected.  Nesting deeper than a fixed bound is an [Error],
      not a stack overflow. *)

  val member : string -> t -> t option
  (** [member k (Obj kvs)] is the value bound to [k], if any. *)
end

(** {1 The switch} *)

val enabled : unit -> bool
val enable : unit -> unit
(** Turn tracing on (idempotent); resets the trace epoch on the
    off->on edge.  Honoured automatically when [MYCELIUM_TRACE] is set
    to [1]/[true]/[on]/[yes] at startup. *)

val disable : unit -> unit

val with_enabled : (unit -> 'a) -> 'a
(** Run with tracing forced on, restoring the previous state after. *)

val reset : unit -> unit
(** Clear all recorded spans (instants included) and metric values
    (registrations survive) and restart the trace epoch.  Only call
    while no instrumented parallel work is in flight. *)

val now_s : unit -> float
(** Seconds since the trace epoch (wall clock; diagnostic only — never
    feed this into results). *)

(** {1 Name registry} *)

(** Every metric, level and span name used by library code, in one
    module; the one exception is the runtime's stage spans, named once
    in the runtime's stage list (DESIGN.md §8).  Registrations, spans
    and instants in [lib/] and [bin/] must draw names from here or from
    that list (enforced by mycelium-lint's obs-guard rule); bench and
    test executables may use ad-hoc names. *)
module Names : sig
  val rq_limb_ntt_muls : string
  val rq_limb_transforms : string
  val sha256_bytes : string
  val chacha20_bytes : string
  val bgv_encrypts : string
  val bgv_ciphertext_muls : string
  val bgv_relinearizations : string
  val pool_chunks_run : string
  val pool_task_exceptions : string
  val pool_domains : string
  val faults_substituted_contributions : string
  val faults_dropped_messages : string
  val faults_delayed_messages : string
  val faults_channel_retries : string
  val faults_backoff_units : string
  val faults_excluded_committee_members : string
  val faults_forged_rejected : string
  val faults_aggregator_restarts : string
  val faults_decryption_attempts : string
  val mixnet_deposited_bytes : string
  val onion_layers_peeled : string
  val mixnet_dummies_uploaded : string
  val mixnet_anonymity_set : string
  val mixnet_established_paths : string
  val mixnet_arena_bytes : string
  val mixnet_route_entries : string
  val mixnet_mailboxes_in_use : string
  val serve_admitted : string
  val serve_rejected : string
  val serve_batches : string
  val serve_batch_members : string
  val serve_cache_hits : string
  val serve_cache_misses : string
  val serve_cache_evictions : string
  val runtime_init : string
  val sumtree_level : string
  val pool_job : string
  val mixnet_setup : string
  val mixnet_round : string
  val mixnet_deposit : string
  val mixnet_stage : string
  val mixnet_pickup : string
  val rq_mul : string
  val rq_dot : string
  val bgv_mul : string
  val fault_drop : string
  val fault_retry : string
  val fault_backoff : string
  val fault_delay : string
  val fault_substituted : string
  val fault_excluded_committee : string
  val fault_forged_rejected : string
  val fault_aggregator_restart : string
  val decrypt_fallback : string
end

(** {1 Spans} *)

type span = {
  sp_name : string;
  sp_attrs : (string * Json.t) list;
  sp_dom : int;  (** recording domain's numeric id *)
  sp_depth : int;  (** nesting depth within that domain *)
  sp_seq : int;  (** per-domain start order *)
  sp_start : float;  (** seconds since the trace epoch *)
  mutable sp_end : float;  (** NaN while the span is still open *)
}

val span : ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording a hierarchical span around it
    when tracing is enabled.  Exceptions propagate; the span is closed
    either way. *)

val instant : ?attrs:(string * Json.t) list -> string -> unit
(** [instant name] records, when tracing is enabled, a closed span of
    zero length on the calling domain's buffer at its current depth:
    nested in the enclosing span, in call order among its siblings.
    [Injector] marks each injected fault this way ([fault.drop],
    [fault.retry], [fault.backoff], [fault.delay], [fault.substituted],
    [fault.excluded_committee], [fault.forged_rejected],
    [fault.aggregator_restart], [decrypt.fallback]). *)

type sampler

val sampler : every:int -> sampler
(** A call counter for hot operations: used with [sampled_span] to
    record one span per [every] calls instead of one per call. *)

val sampled_span : sampler -> ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a

(* lint: allow unused-export — test_obs reads the recorded spans back *)
val all_spans : unit -> span list
(** Every recorded span, sorted by start time. *)

val span_count : unit -> int

(** {1 Metrics} *)

module Metrics : sig
  type counter
  type histogram

  val counter : string -> counter
  (** Registry lookup-or-create; a name is bound to one metric kind
      for the process lifetime.  Library code must pass a [Names]
      constant (obs-guard enforces this). *)

  val incr : counter -> unit
  val add : counter -> int -> unit
  val value : counter -> int

  val histogram : ?buckets:float array -> string -> histogram
  (** [buckets] are strictly ascending upper bounds (default: powers of
      two from 1 to 2^20); one overflow bucket is added past the last
      bound. *)

  val observe : histogram -> float -> unit
  (** Count [v] in the first bucket whose upper bound is [>= v], or in
      the overflow bucket. *)

  (* lint: allow unused-export — test_obs reads the bucket counts back *)
  val histogram_counts : histogram -> int array

  (* lint: allow unused-export — test_obs reads the sum back *)
  val histogram_sum : histogram -> float

  (* lint: allow unused-export — test_obs reads the count back *)
  val histogram_count : histogram -> int

end

(** {1 Levels} *)

(** Levels — heap words, the pool's size, a simulator's footprint —
    stay with their owners, which register a source here.
    [metrics_table] and [write_prometheus] read every source right
    before they render, into gauges named as the source names them,
    whether or not tracing is on; nothing else reads a source.  The GC
    source ([gc.*]: [Gc.quick_stat] heap words and collection counts)
    is built in. *)
module Sampler : sig
  val register_source : name:string -> (unit -> (string * float) list) -> unit
  (** Register (or replace, by [name]) a source; it returns
      [(gauge_name, value)] pairs.  Exceptions from a source are
      swallowed: telemetry is strictly best-effort. *)

  (* lint: allow unused-export — test_obs reads the registered sources
     back *)
  val source_names : unit -> string list
end

(** {1 Audit ledger} *)

(** Append-only JSONL of per-query audit records (one line per runtime
    query, flushed per line).  [read]/[summarize] back the
    [mycelium audit] CLI verb. *)
module Ledger : sig
  (* lint: allow interface — a ledger handle owns an out_channel and a
     mutex; identity is the only meaningful equality *)
  type t

  val open_ : string -> t
  (** Open (append, create) a ledger file. *)

  val append : t -> Json.t -> unit
  (** Write one record as a single line and flush. *)

  val close : t -> unit

  val read : string -> (Json.t list, string) result
  (** Parse every non-empty line.  Each [Error] names the path: a file
      that cannot be opened, or the first malformed line by its line
      number.  A line is malformed if it is not JSON, not an object
      with ["schema":"mycelium-ledger/1"], or a ["charged":true] row
      whose ["epsilon"] is not a finite number > 0. *)

  type summary = {
    records : int;
    ok : int;
    rejected : int;
    errored : int;
    epsilon_spent : float;  (** sum of charged per-query epsilons *)
    uncharged : int;  (** infinite-epsilon (uncharged) ok queries *)
    by_name : (string * int * float) list;
        (** query name, runs, epsilon charged — first-seen order *)
    stage_s : (string * float) list;
        (** each numeric member of the rows' ["stages"] objects, summed
            by stage name (seconds), in first-seen order; a row without
            ["stages"] adds nothing *)
    budget_total : float option;  (** from the last record carrying it *)
    budget_remaining : float option;
  }

  val summarize : Json.t list -> summary
end

(** {1 Exporters} *)

val write_chrome_trace : string -> unit
(** Write the spans in Chrome [trace_event] format (complete "X"
    events, ts/dur in microseconds, tid = recording domain) — loadable
    in [about://tracing] and Perfetto.  Streamed one event at a time,
    so a 10^6-device trace never materializes as one JSON tree. *)

val metrics_table : unit -> string
(** Every non-zero metric, levels included, one per line. *)

val write_prometheus : string -> unit
(** Write the Prometheus text exposition: each metric, levels
    included, as a [mycelium_]-prefixed family ([# TYPE] lines, a
    gauge per level, cumulative [le] buckets for histograms). *)
