(* Chaos suite for the deterministic fault-injection layer: the plan
   engine itself (stateless decisions, retry/backoff accounting), and
   the end-to-end pipeline degrading per §6.3 under each fault class.

   Every run is keyed by MYCELIUM_CHAOS_SEED (default 1), which the
   @chaos dune alias sweeps over a small matrix — the same seed always
   injects exactly the same faults, so a failure here is replayed with
   `MYCELIUM_CHAOS_SEED=<n> dune exec test/test_faults.exe`. *)

module Rng = Mycelium_util.Rng
module Cg = Mycelium_graph.Contact_graph
module Epidemic = Mycelium_graph.Epidemic
module Analysis = Mycelium_query.Analysis
module Corpus = Mycelium_query.Corpus
module Ast = Mycelium_query.Ast
module Params = Mycelium_bgv.Params
module Bgv = Mycelium_bgv.Bgv
module Committee = Mycelium_core.Committee
module Runtime = Mycelium_core.Runtime
module Sim = Mycelium_mixnet.Sim
module Fault_plan = Mycelium_faults.Fault_plan
module Injector = Mycelium_faults.Injector
module Pool = Mycelium_parallel.Pool
module Obs = Mycelium_obs.Obs
module Json = Mycelium_obs.Obs.Json

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let chaos_seed =
  match Sys.getenv_opt "MYCELIUM_CHAOS_SEED" with
  | None -> 1L
  | Some s -> (
    match Int64.of_string_opt s with
    | Some seed -> seed
    | None ->
      Printf.eprintf "MYCELIUM_CHAOS_SEED=%S is not an integer seed\n" s;
      exit 2)

let small_graph ?(n = 16) ?(d = 4) ?(seed = 4242L) () =
  let rng = Rng.create seed in
  let g =
    Cg.generate
      { Cg.default_config with Cg.population = n; degree_bound = d; extra_contact_rate = 1.5 }
      rng
  in
  let (_ : Epidemic.outcome) = Epidemic.run Epidemic.default_config rng g in
  g

let err_to_string = function
  | Runtime.Parse_error m -> "parse: " ^ m
  | Runtime.Analysis_error m -> "analysis: " ^ m
  | Runtime.Infeasible m -> "infeasible: " ^ m
  | Runtime.Budget_exhausted r -> Printf.sprintf "budget exhausted (%.2f left)" r
  | Runtime.Invalid_epsilon e -> Printf.sprintf "invalid epsilon %g" e
  | Runtime.Pipeline_error m -> "pipeline: " ^ m

(* Acceptance shape: committee of 10 with threshold 4 over a 16-device
   graph, fast BGV parameters. *)
let chaos_config plan =
  {
    Runtime.default_config with
    Runtime.params = Params.test_small;
    degree_bound = 4;
    faults = Some plan;
  }

let run_chaos ?(query = "Q5") plan =
  let g = small_graph () in
  let sys = Runtime.init (chaos_config plan) g in
  match Runtime.run_query ~epsilon:Float.infinity sys (Corpus.find query).Corpus.sql with
  | Error e -> Alcotest.failf "chaos run failed: %s" (err_to_string e)
  | Ok r -> (sys, r)

(* ------------------------------------------------------------------ *)
(* Oracles recomputed from the plan alone                              *)
(* ------------------------------------------------------------------ *)

(* Replays one droppable send's retry loop from the plan. *)
let send_outcome plan ~source ~dest =
  let max_attempts = plan.Fault_plan.max_send_attempts in
  let rec go a retries =
    if Fault_plan.send_dropped plan ~round:0 ~source ~dest ~attempt:a then begin
      if a >= max_attempts then
        `Lost (retries, Fault_plan.backoff_units plan ~attempts:a)
      else go (a + 1) (retries + 1)
    end
    else begin
      let delayed = Fault_plan.send_delay plan ~round:0 ~source ~dest > 0 in
      `Delivered (retries, Fault_plan.backoff_units plan ~attempts:a, delayed)
    end
  in
  go 1 0

(* What a fault-free run reports: every counter zero. *)
let empty_report =
  {
    Injector.substituted_contributions = 0;
    dropped_messages = 0;
    delayed_messages = 0;
    channel_retries = 0;
    backoff_units = 0;
    excluded_committee_members = 0;
    forged_rejected = 0;
    aggregator_restarts = 0;
    decryption_attempts = 0;
  }

let report_to_string (r : Injector.report) =
  Printf.sprintf
    "degradation{substituted=%d; dropped=%d; delayed=%d; retries=%d; backoff=%d; \
     excluded-committee=%d; forged-rejected=%d; restarts=%d; decryption-attempts=%d}"
    r.Injector.substituted_contributions r.dropped_messages r.delayed_messages
    r.channel_retries r.backoff_units r.excluded_committee_members r.forged_rejected
    r.aggregator_restarts r.decryption_attempts

(* Devices in [0, n) that the plan marks offline, and those that forge
   (churned ones excluded). *)
let churned_devices plan ~n =
  List.filter (fun d -> Fault_plan.device_churned plan ~device:d) (List.init n Fun.id)

let forging_devices plan ~n =
  List.filter (fun d -> Fault_plan.contribution_forged plan ~device:d) (List.init n Fun.id)

(* The degradation report the runtime must produce for a query of
   [hops] hops over [g] on the abstract channel — the chaos suite's
   core assertion is that this, computed from the plan alone, matches
   what the pipeline actually recorded. *)

let expected_report plan g ~hops ~committee_size =
  let n = Cg.population g in
  let churned d = Fault_plan.device_churned plan ~device:d in
  let substituted = ref 0 and dropped = ref 0 and delayed = ref 0 in
  let retries = ref 0 and backoff = ref 0 in
  for origin = 0 to n - 1 do
    if churned origin then incr substituted (* Enc(0) leaf at the aggregator *)
    else
      List.iter
        (fun (m, _dist) ->
          if churned m then incr substituted
          else begin
            match send_outcome plan ~source:m ~dest:origin with
            | `Lost (r, b) ->
              incr dropped;
              retries := !retries + r;
              backoff := !backoff + b
            | `Delivered (r, b, late) ->
              retries := !retries + r;
              backoff := !backoff + b;
              if late then incr delayed
          end)
        (Cg.k_hop g origin ~k:hops)
  done;
  if Fault_plan.is_none plan then empty_report
  else
    {
      Injector.substituted_contributions = !substituted;
      dropped_messages = !dropped;
      delayed_messages = !delayed;
      channel_retries = !retries;
      backoff_units = !backoff;
      excluded_committee_members =
        List.length (Fault_plan.crashed_members plan ~size:committee_size);
      forged_rejected = List.length (forging_devices plan ~n);
      aggregator_restarts = plan.Fault_plan.aggregator_restarts;
      decryption_attempts = 1;
    }

(* Origins whose released contribution can differ from the no-fault
   run: churned, forging, or missing at least one neighbor row. Each
   such origin moves at most [sensitivity] of mass per bin. *)
let affected_origins plan g ~hops =
  let n = Cg.population g in
  let churned d = Fault_plan.device_churned plan ~device:d in
  let count = ref 0 in
  for origin = 0 to n - 1 do
    let hit =
      churned origin
      || Fault_plan.contribution_forged plan ~device:origin
      || List.exists
           (fun (m, _) ->
             churned m
             || (match send_outcome plan ~source:m ~dest:origin with
                | `Lost _ -> true
                | `Delivered _ -> false))
           (Cg.k_hop g origin ~k:hops)
    in
    if hit then incr count
  done;
  !count

let check_report msg expected actual =
  if not (Injector.report_equal expected actual) then
    Alcotest.failf "%s:\n  expected %s\n  got      %s" msg
      (report_to_string expected)
      (report_to_string actual)

(* With epsilon = infinity there is no noise, so any deviation from
   the plaintext oracle is pure degradation — bounded per bin by
   (affected origins) * sensitivity. *)
let check_bins msg sys (r : Runtime.query_result) plan =
  let exact = Runtime.exact_bins_for_tests sys r.Runtime.info in
  let hops = r.Runtime.info.Analysis.query.Ast.hops in
  let affected = affected_origins plan (Runtime.graph sys) ~hops in
  let bound = (float_of_int affected *. r.Runtime.info.Analysis.sensitivity) +. 1e-6 in
  Array.iteri
    (fun i b ->
      let e = float_of_int exact.(i) in
      if Float.abs (b -. e) > bound then
        Alcotest.failf "%s: bin %d released %.1f vs exact %.1f exceeds bound %.1f" msg i b e
          bound)
    r.Runtime.noisy_bins

(* ------------------------------------------------------------------ *)
(* Fault_plan unit properties                                          *)
(* ------------------------------------------------------------------ *)

let test_plan_deterministic () =
  let p = Fault_plan.make ~drop_rate:0.4 ~delay_rate:0.3 ~churn_rate:0.2 ~forge_rate:0.1
      ~seed:chaos_seed ()
  in
  for d = 0 to 63 do
    checkb "churn stable" (Fault_plan.device_churned p ~device:d)
      (Fault_plan.device_churned p ~device:d);
    checkb "forge stable" (Fault_plan.contribution_forged p ~device:d)
      (Fault_plan.contribution_forged p ~device:d)
  done;
  for a = 1 to 8 do
    checkb "drop stable"
      (Fault_plan.send_dropped p ~round:0 ~source:3 ~dest:7 ~attempt:a)
      (Fault_plan.send_dropped p ~round:0 ~source:3 ~dest:7 ~attempt:a)
  done;
  checki "delay stable"
    (Fault_plan.send_delay p ~round:1 ~source:2 ~dest:9)
    (Fault_plan.send_delay p ~round:1 ~source:2 ~dest:9)

let test_plan_extremes () =
  let off = Fault_plan.make ~seed:chaos_seed () in
  checkb "zero-rate plan is none" true (Fault_plan.is_none off);
  checkb "none is none" true (Fault_plan.is_none Fault_plan.none);
  for d = 0 to 31 do
    checkb "no churn at 0" false (Fault_plan.device_churned off ~device:d);
    checkb "no forge at 0" false (Fault_plan.contribution_forged off ~device:d)
  done;
  let on = Fault_plan.make ~drop_rate:1.0 ~churn_rate:1.0 ~seed:chaos_seed () in
  for d = 0 to 31 do
    checkb "all churn at 1" true (Fault_plan.device_churned on ~device:d);
    (* churn precedence: an offline device cannot also forge *)
    checkb "churn beats forge" false (Fault_plan.contribution_forged on ~device:d);
    checkb "all drops at 1" true
      (Fault_plan.send_dropped on ~round:0 ~source:d ~dest:(d + 1) ~attempt:1)
  done

let test_plan_rates_are_calibrated () =
  (* Statistical sanity at a fixed internal seed: about half of a big
     population churns at rate 0.5. *)
  let p = Fault_plan.make ~churn_rate:0.5 ~seed:123L () in
  let c = List.length (churned_devices p ~n:1000) in
  checkb (Printf.sprintf "churn count %d in [400, 600]" c) true (c >= 400 && c <= 600)

let test_plan_attempts_independent () =
  (* At drop rate 0.5 some send must drop on attempt 1 and succeed on
     attempt 2 — the transient-loss model behind retry. *)
  let p = Fault_plan.make ~drop_rate:0.5 ~seed:chaos_seed () in
  let found = ref false in
  for s = 0 to 99 do
    if
      Fault_plan.send_dropped p ~round:0 ~source:s ~dest:0 ~attempt:1
      && not (Fault_plan.send_dropped p ~round:0 ~source:s ~dest:0 ~attempt:2)
    then found := true
  done;
  checkb "retry can succeed" true !found

let test_plan_backoff_and_validation () =
  let p = Fault_plan.none in
  List.iter
    (fun (attempts, units) -> checki "backoff" units (Fault_plan.backoff_units p ~attempts))
    [ (1, 0); (2, 1); (3, 3); (4, 7); (5, 15) ];
  (try
     ignore (Fault_plan.make ~drop_rate:1.5 ~seed:0L ());
     Alcotest.fail "drop_rate 1.5 accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Fault_plan.make ~max_send_attempts:0 ~seed:0L ());
     Alcotest.fail "0 attempts accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Fault_plan.make ~aggregator_restarts:(-1) ~seed:0L ());
    Alcotest.fail "negative restarts accepted"
  with Invalid_argument _ -> ()

let test_injector_retry_accounting () =
  (* Certain loss: every attempt drops, so the injector retries to the
     budget, sleeps the full backoff, and reports a permanent drop. *)
  let inj = Injector.create (Fault_plan.make ~drop_rate:1.0 ~max_send_attempts:3 ~seed:7L ()) in
  checkb "lost" false (Injector.send inj ~round:0 ~source:1 ~dest:2);
  let r = Injector.report inj in
  checki "dropped" 1 r.Injector.dropped_messages;
  checki "retries" 2 r.Injector.channel_retries;
  checki "backoff" 3 r.Injector.backoff_units;
  (* Fault-free plan: sends always deliver and the report stays empty. *)
  let quiet = Injector.create Fault_plan.none in
  checkb "inactive" false (Injector.active quiet);
  checkb "delivered" true (Injector.send quiet ~round:0 ~source:1 ~dest:2);
  checkb "empty report" true (Injector.report_equal empty_report (Injector.report quiet))

(* ------------------------------------------------------------------ *)
(* Chaos matrix: fault class x intensity                               *)
(* ------------------------------------------------------------------ *)

let intensities = [ 0.0; 0.1; 0.3 ]

let run_matrix_class name mk () =
  List.iter
    (fun intensity ->
      let plan = mk intensity in
      let sys, r = run_chaos plan in
      let label = Printf.sprintf "%s@%.1f" name intensity in
      let expected =
        expected_report plan (Runtime.graph sys) ~hops:1 ~committee_size:10
      in
      check_report (label ^ " report") expected r.Runtime.degradation;
      check_bins (label ^ " bins") sys r plan)
    intensities

let test_chaos_drop =
  run_matrix_class "drop" (fun i -> Fault_plan.make ~drop_rate:i ~seed:chaos_seed ())

let test_chaos_delay =
  run_matrix_class "delay" (fun i -> Fault_plan.make ~delay_rate:i ~seed:chaos_seed ())

let test_chaos_churn =
  run_matrix_class "churn" (fun i -> Fault_plan.make ~churn_rate:i ~seed:chaos_seed ())

let test_chaos_forge =
  run_matrix_class "forge" (fun i -> Fault_plan.make ~forge_rate:i ~seed:chaos_seed ())

let test_chaos_committee_crash () =
  (* 3 of 10 crashed with threshold 4: any 5 of the 7 survivors carry
     the decryption. *)
  let plan = Fault_plan.make ~crashed_committee:[ 1; 5; 8 ] ~seed:chaos_seed () in
  let sys, r = run_chaos plan in
  let expected = expected_report plan (Runtime.graph sys) ~hops:1 ~committee_size:10 in
  check_report "crash report" expected r.Runtime.degradation;
  checki "3 excluded" 3 r.Runtime.degradation.Injector.excluded_committee_members;
  check_bins "crash bins" sys r plan

let test_chaos_aggregator_restart () =
  List.iter
    (fun restarts ->
      let plan = Fault_plan.make ~aggregator_restarts:restarts ~seed:chaos_seed () in
      let sys, r = run_chaos plan in
      let expected = expected_report plan (Runtime.graph sys) ~hops:1 ~committee_size:10 in
      check_report "restart report" expected r.Runtime.degradation;
      checki "restarts recorded" restarts r.Runtime.degradation.Injector.aggregator_restarts;
      (* The rebuilt tree released the exact result: restarts are
         lossless by construction. *)
      check_bins "restart bins" sys r plan)
    [ 1; 3 ]

let test_chaos_all_classes_combined () =
  let plan =
    Fault_plan.make ~drop_rate:0.2 ~delay_rate:0.2 ~churn_rate:0.1 ~forge_rate:0.1
      ~crashed_committee:[ 2 ] ~aggregator_restarts:1 ~seed:chaos_seed ()
  in
  let sys, r = run_chaos plan in
  let expected = expected_report plan (Runtime.graph sys) ~hops:1 ~committee_size:10 in
  check_report "combined report" expected r.Runtime.degradation;
  check_bins "combined bins" sys r plan

(* ------------------------------------------------------------------ *)
(* Acceptance: reproducibility and liveness                            *)
(* ------------------------------------------------------------------ *)

let test_acceptance_reproducible_degradation () =
  (* 10% churn + 1 crashed committee member (of 10, threshold 4): the
     query still releases within the degradation bound, and re-running
     the identical seed reproduces bit-identical results. *)
  let plan = Fault_plan.make ~churn_rate:0.1 ~crashed_committee:[ 2 ] ~seed:chaos_seed () in
  let sys1, r1 = run_chaos plan in
  let _sys2, r2 = run_chaos plan in
  checkb "same degradation report" true
    (Injector.report_equal r1.Runtime.degradation r2.Runtime.degradation);
  checkb "same released bins" true (r1.Runtime.noisy_bins = r2.Runtime.noisy_bins);
  checki "one excluded member" 1 r1.Runtime.degradation.Injector.excluded_committee_members;
  check_bins "acceptance bins" sys1 r1 plan

let test_chaos_finite_epsilon_still_bounded () =
  (* Under faults and real noise the release stays within the loose
     statistical envelope around the degraded truth. *)
  let plan = Fault_plan.make ~churn_rate:0.1 ~crashed_committee:[ 2 ] ~seed:chaos_seed () in
  let g = small_graph () in
  let sys = Runtime.init (chaos_config plan) g in
  let eps = 0.5 in
  match Runtime.run_query ~epsilon:eps sys (Corpus.find "Q5").Corpus.sql with
  | Error e -> Alcotest.failf "finite-eps chaos failed: %s" (err_to_string e)
  | Ok r ->
    let exact = Runtime.exact_bins_for_tests sys r.Runtime.info in
    let sens = r.Runtime.info.Analysis.sensitivity in
    let hops = r.Runtime.info.Analysis.query.Ast.hops in
    let degradation = float_of_int (affected_origins plan g ~hops) *. sens in
    let sum a = Array.fold_left ( +. ) 0. a in
    let noise_env = 20. *. sens /. eps *. sqrt (float_of_int (Array.length exact)) in
    checkb "mass within degradation + noise envelope" true
      (Float.abs (sum r.Runtime.noisy_bins -. float_of_int (Array.fold_left ( + ) 0 exact))
      < (float_of_int (Array.length exact) *. degradation) +. noise_env)

let test_committee_threshold_liveness_boundary () =
  (* Direct committee-level check of "any threshold+1 live shares":
     size 10, threshold 4 — 5 crashed members still decrypt, 6 cannot. *)
  let ctx = Bgv.make_ctx Params.test_small in
  let rng = Rng.create 31L in
  let genesis, pk, _, _ = Committee.genesis ctx rng ~size:10 ~threshold:4 ~relin_degree:2 in
  let c = Committee.rotate genesis rng ~population:40 in
  let info = Analysis.analyze_exn (Corpus.find "Q5").Corpus.query in
  let ct = Bgv.encrypt_value ctx rng pk 7 in
  (match
     Committee.decrypt_and_release ~excluded:[ 0; 1; 2; 3; 4 ] c rng ctx ~info
       ~epsilon:Float.infinity ct
   with
  | Ok r -> checkb "5 survivors decrypt" true (r.Committee.noisy_bins.(7) = 1.)
  | Error e -> Alcotest.failf "5 crashed members should leave a quorum: %s" e);
  match
    Committee.decrypt_and_release ~excluded:[ 0; 1; 2; 3; 4; 5 ] ~max_attempts:3 c rng ctx
      ~info ~epsilon:Float.infinity ct
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "4 survivors decrypted below the threshold quorum"

let test_chaos_through_mixnet () =
  (* Transit drops ride the mixnet's replica copies; with aggressive
     dropping some logical messages lose every copy and surface as
     §6.3 defaults, yet the run completes and replays identically. *)
  let mix_cfg =
    {
      Sim.default_config with
      Sim.hops = 2;
      replicas = 2;
      fraction = 0.4;
      fast_setup = true;
      verify_every = 0;
    }
  in
  let plan = Fault_plan.make ~drop_rate:0.5 ~seed:2024L () in
  let run () =
    let g = small_graph () in
    let sys =
      Runtime.init
        { (chaos_config plan) with Runtime.route_through_mixnet = Some mix_cfg }
        g
    in
    match Runtime.run_query ~epsilon:Float.infinity sys (Corpus.find "Q5").Corpus.sql with
    | Error e -> Alcotest.failf "mixnet chaos failed: %s" (err_to_string e)
    | Ok r -> (sys, r)
  in
  let _, r1 = run () in
  let _, r2 = run () in
  checkb "copies dropped" true (r1.Runtime.degradation.Injector.dropped_messages > 0);
  checkb "some logical messages lost" true (r1.Runtime.mixnet_losses > 0);
  checkb "replay: identical report" true
    (Injector.report_equal r1.Runtime.degradation r2.Runtime.degradation);
  checkb "replay: identical losses" true (r1.Runtime.mixnet_losses = r2.Runtime.mixnet_losses);
  checkb "replay: identical bins" true (r1.Runtime.noisy_bins = r2.Runtime.noisy_bins);
  (* Bins stay bounded even with rows lost in transit. *)
  let g = small_graph () in
  Array.iter
    (fun v -> checkb "bounded" true (v >= 0. && v <= float_of_int (Cg.population g)))
    r1.Runtime.noisy_bins

let test_mixnet_arena_domains_identical () =
  (* The arena/sharded forwarding path (DESIGN.md §12) carries the same
     determinism contract as the query pipeline: a mixnet run with
     churn, Byzantine forwarders and sampled verification must produce
     byte-identical deliveries and stats at 1, 2 and 8 domains — the
     sequential-decide / parallel-compute / sequential-merge split
     leaves nothing to scheduling. *)
  let cfg =
    {
      Sim.default_config with
      Sim.n_devices = 120;
      degree = 2;
      hops = 3;
      replicas = 2;
      churn = 0.05;
      malicious_fraction = 0.1;
      fast_setup = true;
      verify_every = 3;
      anon_sample = 2;
      seed = 4242L;
    }
  in
  let run domains =
    Pool.with_domains domains (fun () ->
        let t = Sim.create cfg in
        ignore (Sim.setup_paths t);
        let r1 = Sim.run_query_round t ~payload:(Bytes.of_string "chaos-a") in
        let r2 = Sim.run_query_round t ~payload:(Bytes.of_string "chaos-b") in
        (r1, r2, Sim.deliveries t))
  in
  let a1, a2, del1 = run 1 in
  List.iter
    (fun d ->
      let b1, b2, del = run d in
      checkb (Printf.sprintf "round-1 stats identical at %d domains" d) true (b1 = a1);
      checkb (Printf.sprintf "round-2 stats identical at %d domains" d) true (b2 = a2);
      checkb
        (Printf.sprintf "deliveries byte-identical at %d domains" d)
        true (del = del1))
    [ 2; 8 ]

let test_parallel_domains_identical () =
  (* The determinism contract of the parallel layer, checked where it
     matters most: a chaotic run (drops, churn, forgeries, a committee
     crash) must release byte-identical bins, DP noise and degradation
     reports at 1, 2 and 8 domains. [Pool.with_domains] force-overrides
     both the runtime config and MYCELIUM_DOMAINS for the extent of the
     run. *)
  let plan =
    Fault_plan.make ~drop_rate:0.2 ~churn_rate:0.1 ~forge_rate:0.1
      ~crashed_committee:[ 2 ] ~seed:chaos_seed ()
  in
  let run domains =
    Pool.with_domains domains (fun () ->
        let sys, r = run_chaos plan in
        (* A finite-epsilon release on the same system covers the
           in-MPC DP-noise path with the same byte-identical claim. *)
        match Runtime.run_query ~epsilon:0.5 sys (Corpus.find "Q4").Corpus.sql with
        | Error e -> Alcotest.failf "finite-eps run failed: %s" (err_to_string e)
        | Ok r2 -> (r.Runtime.noisy_bins, r.Runtime.degradation, r2.Runtime.noisy_bins)
    )
  in
  let bins1, rep1, noisy1 = run 1 in
  List.iter
    (fun d ->
      let bins, rep, noisy = run d in
      checkb (Printf.sprintf "exact bins identical at %d domains" d) true (bins = bins1);
      checkb
        (Printf.sprintf "degradation report identical at %d domains" d)
        true
        (Injector.report_equal rep rep1);
      checkb (Printf.sprintf "DP noise identical at %d domains" d) true (noisy = noisy1))
    [ 2; 8 ]

(* ------------------------------------------------------------------ *)
(* Fault events in the trace                                           *)
(* ------------------------------------------------------------------ *)

(* Every injected fault is an [Obs.instant], so each fault class must
   leave its own kind in a traced chaos run: a zero-length span, in
   injection order, that the Chrome export names too. *)
let fault_classes =
  [
    ("drop", Fault_plan.make ~drop_rate:0.5 ~seed:chaos_seed (), "fault.drop");
    ("delay", Fault_plan.make ~delay_rate:0.5 ~seed:chaos_seed (), "fault.delay");
    ("churn", Fault_plan.make ~churn_rate:0.5 ~seed:chaos_seed (), "fault.substituted");
    ("forge", Fault_plan.make ~forge_rate:0.5 ~seed:chaos_seed (), "fault.forged_rejected");
    ( "committee-crash",
      Fault_plan.make ~crashed_committee:[ 1; 5; 8 ] ~seed:chaos_seed (),
      "fault.excluded_committee" );
    ( "aggregator-restart",
      Fault_plan.make ~aggregator_restarts:2 ~seed:chaos_seed (),
      "fault.aggregator_restart" );
  ]

let fault_kinds =
  [
    "fault.drop"; "fault.retry"; "fault.backoff"; "fault.delay"; "fault.substituted";
    "fault.excluded_committee"; "fault.forged_rejected"; "fault.aggregator_restart";
    "decrypt.fallback";
  ]

let is_fault (s : Obs.span) = List.mem s.Obs.sp_name fault_kinds

(* A chaos run with tracing on: its report, its spans and its Chrome
   export, re-parsed. *)
let traced_chaos plan =
  Obs.with_enabled (fun () ->
      Obs.reset ();
      let _sys, r = run_chaos plan in
      let spans = Obs.all_spans () in
      let path = Filename.temp_file "chaos_trace" ".json" in
      Obs.write_chrome_trace path;
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove path;
      Obs.reset ();
      match Json.parse s with
      | Error e -> Alcotest.failf "the Chrome export does not re-parse: %s" e
      | Ok doc -> (r.Runtime.degradation, spans, doc))

let test_chaos_faults_traced () =
  List.iter
    (fun (name, plan, kind) ->
      let rep, spans, doc = traced_chaos plan in
      let faults = List.filter is_fault spans in
      let count k = List.length (List.filter (fun s -> s.Obs.sp_name = k) faults) in
      checkb (name ^ ": the trace carries " ^ kind) true (count kind > 0);
      List.iter
        (fun s ->
          checkb (name ^ ": a fault is a closed zero-length span") true
            (Float.equal s.Obs.sp_start s.Obs.sp_end);
          if s.Obs.sp_depth > 0 then
            checkb (name ^ ": a nested fault sits inside its enclosing span") true
              (List.exists
                 (fun p ->
                   p.Obs.sp_dom = s.Obs.sp_dom
                   && p.Obs.sp_depth = s.Obs.sp_depth - 1
                   && p.Obs.sp_start <= s.Obs.sp_start
                   && s.Obs.sp_end <= p.Obs.sp_end)
                 spans))
        faults;
      (* The runtime notes faults on the calling domain, one after the
         other: the trace lists them in the order they were injected. *)
      let rec injection_order = function
        | a :: (b :: _ as rest) ->
          a.Obs.sp_dom = b.Obs.sp_dom && a.Obs.sp_seq < b.Obs.sp_seq && injection_order rest
        | _ -> true
      in
      checkb (name ^ ": faults in injection order") true (injection_order faults);
      (* One instant per fault the report counts. *)
      checki (name ^ ": one fault.drop per dropped message") rep.Injector.dropped_messages
        (count "fault.drop");
      checki (name ^ ": one fault.retry per retry") rep.Injector.channel_retries
        (count "fault.retry");
      checki (name ^ ": one fault.delay per delayed message") rep.Injector.delayed_messages
        (count "fault.delay");
      checki (name ^ ": one fault.substituted per substitution")
        rep.Injector.substituted_contributions (count "fault.substituted");
      checki (name ^ ": one fault.forged_rejected per rejection") rep.Injector.forged_rejected
        (count "fault.forged_rejected");
      checki (name ^ ": one fault.aggregator_restart per restart")
        rep.Injector.aggregator_restarts (count "fault.aggregator_restart");
      (* The export holds the same faults in the same order. *)
      let exported =
        match Json.member "traceEvents" doc with
        | Some (Json.List evs) ->
          List.filter_map
            (fun e ->
              match Json.member "name" e with
              | Some (Json.Str n) when List.mem n fault_kinds -> Some n
              | _ -> None)
            evs
        | _ -> Alcotest.failf "%s: the export has no traceEvents array" name
      in
      checkb (name ^ ": the export names " ^ kind) true (List.mem kind exported);
      checkb (name ^ ": the export lists the faults in order") true
        (exported = List.map (fun s -> s.Obs.sp_name) faults))
    fault_classes

let test_tracing_identical_releases () =
  (* Recording faults in the trace must not move a single released
     byte, at any domain count. *)
  let plan =
    Fault_plan.make ~drop_rate:0.2 ~churn_rate:0.1 ~forge_rate:0.1
      ~crashed_committee:[ 2 ] ~aggregator_restarts:1 ~seed:chaos_seed ()
  in
  let run ~trace domains =
    Pool.with_domains domains (fun () ->
        let release () =
          let _sys, r = run_chaos plan in
          (r.Runtime.noisy_bins, r.Runtime.degradation)
        in
        if not trace then release ()
        else
          Obs.with_enabled (fun () ->
              Obs.reset ();
              let out = release () in
              checkb "the traced chaos run recorded faults" true
                (List.exists is_fault (Obs.all_spans ()));
              Obs.reset ();
              out))
  in
  let bins1, rep1 = run ~trace:false 1 in
  List.iter
    (fun d ->
      let off_bins, off_rep = run ~trace:false d in
      let on_bins, on_rep = run ~trace:true d in
      checkb (Printf.sprintf "tracing off: identical at %d domains" d) true
        (off_bins = bins1 && Injector.report_equal off_rep rep1);
      checkb (Printf.sprintf "tracing on: identical at %d domains" d) true
        (on_bins = bins1 && Injector.report_equal on_rep rep1))
    [ 1; 2; 8 ]

let test_no_faults_empty_report () =
  (* faults = None and faults = Some none-plan both report empty and
     release the exact oracle. *)
  let g = small_graph () in
  let sys =
    Runtime.init { (chaos_config Fault_plan.none) with Runtime.faults = None } g
  in
  match Runtime.run_query ~epsilon:Float.infinity sys (Corpus.find "Q5").Corpus.sql with
  | Error e -> Alcotest.failf "fault-free run failed: %s" (err_to_string e)
  | Ok r ->
    checkb "empty report" true
      (Injector.report_equal empty_report r.Runtime.degradation);
    let exact = Runtime.exact_bins_for_tests sys r.Runtime.info in
    checkb "exact release" true
      (Array.for_all2 (fun a b -> int_of_float a = b) r.Runtime.noisy_bins exact)

let () =
  Alcotest.run "mycelium-faults"
    [
      ( "fault-plan",
        [
          Alcotest.test_case "stateless decisions are stable" `Quick test_plan_deterministic;
          Alcotest.test_case "rate extremes" `Quick test_plan_extremes;
          Alcotest.test_case "rates calibrated" `Quick test_plan_rates_are_calibrated;
          Alcotest.test_case "attempts independent" `Quick test_plan_attempts_independent;
          Alcotest.test_case "backoff + validation" `Quick test_plan_backoff_and_validation;
          Alcotest.test_case "injector retry accounting" `Quick test_injector_retry_accounting;
        ] );
      ( "chaos-matrix",
        [
          Alcotest.test_case "drop x intensity" `Quick test_chaos_drop;
          Alcotest.test_case "delay x intensity" `Quick test_chaos_delay;
          Alcotest.test_case "churn x intensity" `Quick test_chaos_churn;
          Alcotest.test_case "forge x intensity" `Quick test_chaos_forge;
          Alcotest.test_case "committee crash" `Quick test_chaos_committee_crash;
          Alcotest.test_case "aggregator restart" `Quick test_chaos_aggregator_restart;
          Alcotest.test_case "all classes combined" `Quick test_chaos_all_classes_combined;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "reproducible degradation" `Quick
            test_acceptance_reproducible_degradation;
          Alcotest.test_case "finite epsilon bounded" `Quick
            test_chaos_finite_epsilon_still_bounded;
          Alcotest.test_case "threshold liveness boundary" `Quick
            test_committee_threshold_liveness_boundary;
          Alcotest.test_case "chaos through the mixnet" `Quick test_chaos_through_mixnet;
          Alcotest.test_case "identical across domain counts" `Quick
            test_parallel_domains_identical;
          Alcotest.test_case "mixnet arena identical across domains" `Quick
            test_mixnet_arena_domains_identical;
          Alcotest.test_case "no faults, empty report" `Quick test_no_faults_empty_report;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "faults traced per fault class" `Quick test_chaos_faults_traced;
          Alcotest.test_case "tracing on/off identical releases" `Quick
            test_tracing_identical_releases;
        ] );
    ]
