(** Runtime side of fault injection: a {!Fault_plan.t} plus the
    mutable counters that become the query's degradation report.

    One injector lives for one query execution. Pipeline components
    consult it at their droppable points; it decides from the plan
    (statelessly) and records what actually happened. The counts must
    match what a test recomputes from the plan alone — that equality
    is the chaos suite's core assertion. *)

type report = {
  substituted_contributions : int;
      (** contributions replaced by the §6.3 default value because the
          contributing device was churned offline *)
  dropped_messages : int;
      (** channel sends permanently lost after the retry budget *)
  delayed_messages : int;  (** sends that arrived late but arrived *)
  channel_retries : int;  (** individual failed attempts that were retried *)
  backoff_units : int;
      (** total exponential backoff slept, in base-delay units *)
  excluded_committee_members : int;
      (** crashed members excluded from the decryption participant set *)
  forged_rejected : int;
      (** plan-injected forged-ZKP contributions rejected by
          verification *)
  aggregator_restarts : int;
      (** summation-tree rebuilds from durable leaves *)
  decryption_attempts : int;
      (** committee recruitment rounds before threshold+1 answered
          (0 until decryption runs; 1 = first try succeeded) *)
}

val report_equal : report -> report -> bool

(* lint: allow interface — an injector wraps a mutable degradation report; only identity comparison makes sense *)
type t

val create : Fault_plan.t -> t
val plan : t -> Fault_plan.t
val report : t -> report
(** Snapshot of the counters so far. *)

val active : t -> bool
(** [false] when the plan is {!Fault_plan.none} — callers may skip
    their injection points entirely. *)

(** {2 Injection points} *)

val device_offline : t -> device:int -> bool
(** Plan lookup only; pair with {!note_substituted} when the pipeline
    substitutes a default for the missing contribution. *)

val contribution_forged : t -> device:int -> bool

val send : t -> round:int -> source:int -> dest:int -> bool
(** One droppable channel operation: attempts delivery up to the
    plan's retry budget with exponential backoff between tries,
    recording retries, backoff, delays and permanent drops. Returns
    [true] if the message (eventually) arrived. *)

val note_dropped : t -> unit
(** A message lost in transit with no retry loop around it (a mixnet
    replica copy): counts toward [dropped_messages] directly. *)

val note_substituted : t -> unit
val note_excluded_committee : t -> int -> unit
val note_forged_rejected : t -> unit
val note_aggregator_restart : t -> unit
val note_decryption_attempts : t -> int -> unit
