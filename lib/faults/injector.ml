module Obs = Mycelium_obs.Obs

(* Every report counter mirrors into the observability registry (same
   names under the [faults.] prefix) so degradation shows up next to
   the tracing/metrics view of a run.  Metric updates are no-ops while
   tracing is disabled; the report itself is always exact.

   Each injected fault is also an [Obs.instant] with its details, so a
   traced chaos run shows every fault, in order, inside the span where
   it happened.  Both calls are one atomic load while tracing is
   off. *)
let m_substituted = Obs.Metrics.counter Obs.Names.faults_substituted_contributions
let m_dropped = Obs.Metrics.counter Obs.Names.faults_dropped_messages
let m_delayed = Obs.Metrics.counter Obs.Names.faults_delayed_messages
let m_retries = Obs.Metrics.counter Obs.Names.faults_channel_retries
let m_backoff = Obs.Metrics.counter Obs.Names.faults_backoff_units
let m_excluded = Obs.Metrics.counter Obs.Names.faults_excluded_committee_members
let m_forged_rejected = Obs.Metrics.counter Obs.Names.faults_forged_rejected
let m_restarts = Obs.Metrics.counter Obs.Names.faults_aggregator_restarts
let m_decrypt_attempts = Obs.Metrics.counter Obs.Names.faults_decryption_attempts

type report = {
  substituted_contributions : int;
  dropped_messages : int;
  delayed_messages : int;
  channel_retries : int;
  backoff_units : int;
  excluded_committee_members : int;
  forged_rejected : int;
  aggregator_restarts : int;
  decryption_attempts : int;
}

let empty_report =
  {
    substituted_contributions = 0;
    dropped_messages = 0;
    delayed_messages = 0;
    channel_retries = 0;
    backoff_units = 0;
    excluded_committee_members = 0;
    forged_rejected = 0;
    aggregator_restarts = 0;
    decryption_attempts = 0;
  }

let report_equal a b = a = b

type t = { plan : Fault_plan.t; mutable r : report }

let create plan = { plan; r = empty_report }
let plan t = t.plan
let report t = t.r
let active t = not (Fault_plan.is_none t.plan)

let device_offline t ~device = Fault_plan.device_churned t.plan ~device
let contribution_forged t ~device = Fault_plan.contribution_forged t.plan ~device

let send t ~round ~source ~dest =
  let max_attempts = t.plan.Fault_plan.max_send_attempts in
  let rec attempt_send attempt =
    if Fault_plan.send_dropped t.plan ~round ~source ~dest ~attempt then begin
      if attempt >= max_attempts then begin
        let backoff = Fault_plan.backoff_units t.plan ~attempts:attempt in
        t.r <-
          {
            t.r with
            dropped_messages = t.r.dropped_messages + 1;
            backoff_units = t.r.backoff_units + backoff;
          };
        Obs.Metrics.incr m_dropped;
        Obs.Metrics.add m_backoff backoff;
        Obs.instant Obs.Names.fault_drop
          ~attrs:[
            ("round", Obs.Json.Int round);
            ("source", Obs.Json.Int source);
            ("dest", Obs.Json.Int dest);
            ("attempts", Obs.Json.Int attempt);
            ("backoff_units", Obs.Json.Int backoff);
          ];
        false
      end
      else begin
        t.r <- { t.r with channel_retries = t.r.channel_retries + 1 };
        Obs.Metrics.incr m_retries;
        Obs.instant Obs.Names.fault_retry
          ~attrs:[
            ("round", Obs.Json.Int round);
            ("source", Obs.Json.Int source);
            ("dest", Obs.Json.Int dest);
            ("attempt", Obs.Json.Int attempt);
          ];
        attempt_send (attempt + 1)
      end
    end
    else begin
      let backoff = Fault_plan.backoff_units t.plan ~attempts:attempt in
      t.r <- { t.r with backoff_units = t.r.backoff_units + backoff };
      Obs.Metrics.add m_backoff backoff;
      if backoff > 0 then
        Obs.instant Obs.Names.fault_backoff
          ~attrs:[ ("round", Obs.Json.Int round); ("units", Obs.Json.Int backoff) ];
      if Fault_plan.send_delay t.plan ~round ~source ~dest > 0 then begin
        t.r <- { t.r with delayed_messages = t.r.delayed_messages + 1 };
        Obs.Metrics.incr m_delayed;
        Obs.instant Obs.Names.fault_delay
          ~attrs:[
            ("round", Obs.Json.Int round);
            ("source", Obs.Json.Int source);
            ("dest", Obs.Json.Int dest);
          ]
      end;
      true
    end
  in
  attempt_send 1

let note_dropped t =
  t.r <- { t.r with dropped_messages = t.r.dropped_messages + 1 };
  Obs.Metrics.incr m_dropped;
  Obs.instant Obs.Names.fault_drop

let note_substituted t =
  t.r <- { t.r with substituted_contributions = t.r.substituted_contributions + 1 };
  Obs.Metrics.incr m_substituted;
  Obs.instant Obs.Names.fault_substituted

let note_excluded_committee t n =
  t.r <- { t.r with excluded_committee_members = t.r.excluded_committee_members + n };
  Obs.Metrics.add m_excluded n;
  if n > 0 then Obs.instant Obs.Names.fault_excluded_committee ~attrs:[ ("members", Obs.Json.Int n) ]

let note_forged_rejected t =
  t.r <- { t.r with forged_rejected = t.r.forged_rejected + 1 };
  Obs.Metrics.incr m_forged_rejected;
  Obs.instant Obs.Names.fault_forged_rejected

let note_aggregator_restart t =
  t.r <- { t.r with aggregator_restarts = t.r.aggregator_restarts + 1 };
  Obs.Metrics.incr m_restarts;
  Obs.instant Obs.Names.fault_aggregator_restart

let note_decryption_attempts t n =
  t.r <- { t.r with decryption_attempts = t.r.decryption_attempts + n };
  Obs.Metrics.add m_decrypt_attempts n;
  (* Only an actual fallback (more than one threshold-decryption
     attempt) is a fault-class event. *)
  if n > 1 then Obs.instant Obs.Names.decrypt_fallback ~attrs:[ ("attempts", Obs.Json.Int n) ]
