(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§6–§7) and runs Bechamel micro-benchmarks of the
   operations each figure's cost model is built on.

   Usage:
     dune exec bench/main.exe                     -- everything
     dune exec bench/main.exe -- --only fig7      -- one figure
     dune exec bench/main.exe -- --only parallel  -- domain scaling
     dune exec bench/main.exe -- --only ringops   -- ring kernels, Reference vs Montgomery
     dune exec bench/main.exe -- --only mixnet    -- mixnet scale sweep (Figs 7-9)
     dune exec bench/main.exe -- --only lint      -- full-repo static analysis
     dune exec bench/main.exe -- --skip-micro     -- figures only
     dune exec bench/main.exe -- --only micro     -- the Bechamel micro-benchmarks alone
     dune exec bench/main.exe -- --json           -- machine-readable
     dune exec bench/main.exe -- --only ringops --check
                                                  -- CI gate: exit 1 unless the
                                                     Montgomery forward at N=8192
                                                     is >= 2x BENCH_pr4.json

   With --json the pretty output is suppressed and a single JSON
   document goes to stdout: wall-clock seconds per section, the chaos
   timings, the domain-scaling sweep and (unless --skip-micro) the
   per-operation estimates. *)

module Figures = Mycelium_costmodel.Figures
module Device_compute = Mycelium_costmodel.Device_compute
module Rng = Mycelium_util.Rng
module Params = Mycelium_bgv.Params
module Bgv = Mycelium_bgv.Bgv
module Plaintext = Mycelium_bgv.Plaintext
module Zkp = Mycelium_zkp.Zkp
module Ntt = Mycelium_math.Ntt
module Rq = Mycelium_math.Rq
module Sha256 = Mycelium_crypto.Sha256
module Chacha20 = Mycelium_crypto.Chacha20
module Poly1305 = Mycelium_crypto.Poly1305
module Aead = Mycelium_crypto.Aead
module Elgamal = Mycelium_crypto.Elgamal
module Merkle = Mycelium_crypto.Merkle
module Onion = Mycelium_mixnet.Onion
module Sim = Mycelium_mixnet.Sim
module Shamir = Mycelium_secrets.Shamir
module Cg = Mycelium_graph.Contact_graph
module Epidemic = Mycelium_graph.Epidemic
module Runtime = Mycelium_core.Runtime
module Fault_plan = Mycelium_faults.Fault_plan
module Injector = Mycelium_faults.Injector
module Pool = Mycelium_parallel.Pool
module Obs = Mycelium_obs.Obs

(* --only takes one section id or a comma-separated list
   ("--only serving,lint" runs both). *)
let only =
  let rec find = function
    | "--only" :: v :: _ -> Some (String.split_on_char ',' v)
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let skip_micro = Array.exists (fun a -> a = "--skip-micro") Sys.argv
let json_mode = Array.exists (fun a -> a = "--json") Sys.argv
let check_mode = Array.exists (fun a -> a = "--check") Sys.argv

let wants id = match only with None -> true | Some ids -> List.mem id ids

(* All human-readable output funnels through [say] so --json can keep
   stdout clean for the document. *)
let say fmt = Printf.ksprintf (fun s -> if not json_mode then print_string s) fmt

let emit fig = if wants fig.Figures.id then say "%s" (Figures.render fig)

(* ------------------------------------------------------------------ *)
(* JSON accumulator (the shared lib/obs encoder)                       *)
(* ------------------------------------------------------------------ *)

module Json = Mycelium_obs.Obs.Json
open Json (* the constructors: Num, Int, Str, List, Obj *)

(* Sections are prepended (appending to the tail re-walks the list
   every time) and reversed once at emission. *)
let json_sections : (string * Json.t) list ref = ref []

(* [section id f] runs [f] when selected, timing it; [f] returns extra
   key/values merged into the section's JSON record. *)
let section id f =
  if wants id then begin
    let t0 = Unix.gettimeofday () in
    let extras = f () in
    let dt = Unix.gettimeofday () -. t0 in
    json_sections := (id, Obj (("seconds", Num dt) :: extras)) :: !json_sections
  end

(* ------------------------------------------------------------------ *)
(* Figures from the closed-form cost model                             *)
(* ------------------------------------------------------------------ *)

let () =
  say "Mycelium evaluation reproduction (SOSP 2021, Roth et al.)\n";
  say "==========================================================\n";
  let t0 = Unix.gettimeofday () in
  List.iter emit (Figures.all ());
  if only = None then
    json_sections :=
      ("figures", Obj [ ("seconds", Num (Unix.gettimeofday () -. t0)) ]) :: !json_sections

(* ------------------------------------------------------------------ *)
(* Measurement-backed figures                                          *)
(* ------------------------------------------------------------------ *)

let () =
  section "sec6_4" (fun () ->
      let costs = Device_compute.measure (Rng.create 1L) in
      emit (Figures.sec6_4_device_costs costs);
      []);
  section "fig5-mc" (fun () ->
      emit (Figures.fig5_monte_carlo ~n:400 ~seed:7L);
      []);
  section "sec7" (fun () ->
      emit (Figures.sec7_baseline ~n:20_000 ~seed:11L);
      [])

(* ------------------------------------------------------------------ *)
(* Shared end-to-end fixture (chaos and parallel sections)             *)
(* ------------------------------------------------------------------ *)

let bench_graph seed =
  let rng = Rng.create seed in
  let g =
    Cg.generate
      { Cg.default_config with Cg.population = 16; degree_bound = 4; extra_contact_rate = 1.5 }
      rng
  in
  let (_ : Epidemic.outcome) = Epidemic.run Epidemic.default_config rng g in
  g

let bench_config faults =
  { Runtime.default_config with
    Runtime.params = Params.test_small;
    degree_bound = 4;
    seed = 5L;
    faults
  }

let time_query faults =
  let sys = Runtime.init (bench_config faults) (bench_graph 4242L) in
  let t0 = Unix.gettimeofday () in
  match Runtime.run_query ~epsilon:1.0 sys (Mycelium_query.Corpus.find "Q5").Mycelium_query.Corpus.sql with
  | Ok r -> (Unix.gettimeofday () -. t0, r)
  | Error _ -> failwith "bench: query failed"

(* ------------------------------------------------------------------ *)
(* Chaos: end-to-end query cost under the §6.3 fault model             *)
(* ------------------------------------------------------------------ *)

(* Runs the same HISTO query through a fault-free pipeline and through
   one degrading under a fixed fault plan (10% churn, 10% drops, one
   crashed committee member, one aggregator restart), and reports the
   wall-clock cost of graceful degradation plus the deterministic
   degradation report.  Replay with `--only chaos`. *)
let () =
  section "chaos" (fun () ->
      let plan =
        Fault_plan.make ~drop_rate:0.1 ~churn_rate:0.1 ~crashed_committee:[ 2 ]
          ~aggregator_restarts:1 ~seed:2024L ()
      in
      let clean_s, clean = time_query None in
      let faulted_s, faulted = time_query (Some plan) in
      say "\n";
      say "=== Chaos: query under the Section 6.3 fault model ===\n";
      say "  fault-free run      %8.2f ms  (origins %d)\n" (clean_s *. 1e3)
        clean.Runtime.origins_included;
      say "  degraded run        %8.2f ms  (origins %d)\n" (faulted_s *. 1e3)
        faulted.Runtime.origins_included;
      say "  degradation overhead %+7.1f%%\n" ((faulted_s /. clean_s -. 1.0) *. 100.0);
      say "  %s\n" (Injector.report_to_string faulted.Runtime.degradation);
      [
        ("clean_ms", Num (clean_s *. 1e3));
        ("degraded_ms", Num (faulted_s *. 1e3));
        ("overhead_pct", Num ((faulted_s /. clean_s -. 1.0) *. 100.0));
      ])

(* ------------------------------------------------------------------ *)
(* Parallel: domain scaling of the end-to-end query                    *)
(* ------------------------------------------------------------------ *)

(* Sweeps the work pool over 1/2/4/8 domains on the same fault-free
   query and reports wall-clock and speedup relative to the sequential
   run.  The numbers are honest about the host: with fewer physical
   cores than domains the extra domains only add scheduling overhead,
   so the achievable speedup is bounded by [cores].  The release is
   checked byte-identical across the sweep (the determinism contract —
   see DESIGN.md), so this measures the same computation every time. *)
let () =
  section "parallel" (fun () ->
      let cores = Domain.recommended_domain_count () in
      let at domains =
        Pool.with_domains domains (fun () -> time_query None)
      in
      ignore (at 1);
      (* warm the allocator and code paths *)
      let counts = [ 1; 2; 4; 8 ] in
      let runs = List.map (fun d -> (d, at d)) counts in
      let base_s, base = List.assoc 1 runs |> fun (s, r) -> (s, r) in
      say "\n";
      say "=== Parallel: end-to-end query at 1/2/4/8 domains ===\n";
      say "  host cores: %d%s\n" cores
        (if cores < 4 then "  (speedup is bounded by the core count)" else "");
      List.iter
        (fun (d, (s, r)) ->
          if r.Runtime.noisy_bins <> base.Runtime.noisy_bins then
            failwith "bench parallel: result differs across domain counts";
          say "  %d domain%s %10.2f ms   speedup %5.2fx\n" d
            (if d = 1 then " " else "s")
            (s *. 1e3) (base_s /. s))
        runs;
      [
        ("cores", Int cores);
        ( "domains",
          List
            (List.map
               (fun (d, (s, _)) ->
                 Obj
                   [
                     ("domains", Int d);
                     ("ms", Num (s *. 1e3));
                     ("speedup", Num (base_s /. s));
                   ])
               runs) );
      ])

(* ------------------------------------------------------------------ *)
(* Obs: cost of the tracing + metrics instrumentation                  *)
(* ------------------------------------------------------------------ *)

(* The instrumented code is the only code in the tree, so the disabled
   overhead cannot be measured as a diff against an uninstrumented
   build.  Instead: (a) run the end-to-end query with tracing disabled
   and enabled and report the enabled overhead directly; (b) time the
   disabled fast path — one flag load plus a branch — in a
   microbenchmark, count the instrumentation events one enabled query
   actually crosses, and bound the disabled overhead by
   branch_ns * events / disabled_time.  The release must come out
   byte-identical either way (the DESIGN.md §8 contract; also enforced
   by test/test_obs.ml). *)
let () =
  section "obs" (fun () ->
      let best_of n f =
        let best = ref infinity and last = ref None in
        for _ = 1 to n do
          let s, r = f () in
          if s < !best then best := s;
          last := Some r
        done;
        (!best, Option.get !last)
      in
      let disabled_s, disabled_r = best_of 3 (fun () -> time_query None) in
      let enabled_s, enabled_r, spans, events =
        Obs.with_enabled (fun () ->
            ignore (time_query None);
            (* warm *)
            Obs.reset ();
            let s, r = time_query None in
            let count name = Obs.Metrics.(value (counter name)) in
            let spans = Obs.span_count () in
            let events =
              spans + count "rq.limb_ntt_muls" + count "bgv.encrypts"
              + count "bgv.ciphertext_muls" + count "bgv.relinearizations"
              + count "pool.chunks_run"
            in
            (s, r, spans, events))
      in
      if disabled_r.Runtime.noisy_bins <> enabled_r.Runtime.noisy_bins then
        failwith "bench obs: query result differs with tracing enabled";
      if
        not
          (Injector.report_equal disabled_r.Runtime.degradation
             enabled_r.Runtime.degradation)
      then failwith "bench obs: degradation report differs with tracing enabled";
      (* The disabled fast path: Obs.enabled () + branch, including the
         loop around it, so the estimate errs high. *)
      let branch_ns =
        let n = 10_000_000 in
        let acc = ref 0 in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to n do
          if Obs.enabled () then incr acc
        done;
        let dt = Unix.gettimeofday () -. t0 in
        ignore (Sys.opaque_identity !acc);
        dt *. 1e9 /. float_of_int n
      in
      let disabled_overhead_pct =
        branch_ns *. float_of_int events /. (disabled_s *. 1e9) *. 100.
      in
      let enabled_overhead_pct = (enabled_s /. disabled_s -. 1.0) *. 100.0 in
      if disabled_overhead_pct >= 2.0 then
        failwith "bench obs: disabled instrumentation overhead exceeds 2%";
      say "\n";
      say "=== Obs: instrumentation overhead on the end-to-end query ===\n";
      say "  tracing disabled    %8.2f ms\n" (disabled_s *. 1e3);
      say "  tracing enabled     %8.2f ms  (%+.1f%%, %d spans, %d events)\n"
        (enabled_s *. 1e3) enabled_overhead_pct spans events;
      say "  disabled fast path  %8.2f ns/check -> %.4f%% of the query (bound)\n"
        branch_ns disabled_overhead_pct;
      [
        ("disabled_ms", Num (disabled_s *. 1e3));
        ("enabled_ms", Num (enabled_s *. 1e3));
        ("enabled_overhead_pct", Num enabled_overhead_pct);
        ("disabled_overhead_pct", Num disabled_overhead_pct);
        ("spans", Int spans);
        ("events", Int events);
        ("branch_ns", Num branch_ns);
      ])

(* ------------------------------------------------------------------ *)
(* Telemetry: sampler overhead, recorder throughput, ledger appends    *)
(* ------------------------------------------------------------------ *)

(* The telemetry layer has three costs worth tracking: the background
   sampler stealing cycles from the query (measured at off / 10ms / 1ms
   periods on the same end-to-end fixture, with the release checked
   identical across settings), the flight recorder's lock-free note
   path, and the ledger's append+flush.  Under --check the 1ms overhead
   gates against BENCH_pr8.json, the recorder against its own reference
   loop.

   Host speed drifts by more than the overhead being measured, so the
   three settings run interleaved: each repetition times all three
   back to back, starting from a different setting each time, and an
   overhead is the median over repetitions of that repetition's ratio
   to its own sampler-off time. *)
let telemetry_measured = ref None

let () =
  section "telemetry" (fun () ->
      let module Stats = Mycelium_util.Stats in
      let with_sampler period f =
        match period with
        | None -> f ()
        | Some p ->
          Obs.Sampler.start ~period_s:p ();
          Fun.protect ~finally:Obs.Sampler.stop f
      in
      ignore (time_query None);
      (* warm *)
      let periods = [| None; Some 0.010; Some 0.001 |] in
      let reps = 11 in
      let times = Array.make_matrix reps (Array.length periods) 0. in
      let released = ref None in
      for r = 0 to reps - 1 do
        Array.iteri
          (fun j _ ->
            let i = (r + j) mod Array.length periods in
            let s, res = with_sampler periods.(i) (fun () -> time_query None) in
            times.(r).(i) <- s;
            match !released with
            | None -> released := Some res.Runtime.noisy_bins
            | Some bins ->
              if bins <> res.Runtime.noisy_bins then
                failwith "bench telemetry: query result differs with the sampler running")
          periods
      done;
      let median_s i = Stats.median (Array.init reps (fun r -> times.(r).(i))) in
      let pct i =
        let overhead r = (times.(r).(i) /. times.(r).(0) -. 1.0) *. 100.0 in
        Stats.median (Array.init reps overhead)
      in
      let off_s = median_s 0 and s10_s = median_s 1 and s1_s = median_s 2 in
      let ticks = Obs.Sampler.tick_count () in
      (* Recorder: the hot [note] path (fetch_and_add plus a slot
         write) at a realistic detail size, ring wrapping freely,
         against a reference loop that builds the same detail, reads
         the same clock and stores into a plain array ring.  Like the
         sampler, the two run interleaved and the gate reads the
         median of their per-repetition ratio. *)
      Obs.Recorder.enable ~capacity:4096 ();
      let n_events = 200_000 in
      let plain = Array.make 4096 (0, 0., []) in
      let timed f =
        let t0 = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. t0
      in
      let recorder () =
        for i = 1 to n_events do
          Obs.Recorder.note ~detail:[ ("round", Int i); ("source", Int 7) ] "bench.event"
        done
      and reference () =
        for i = 1 to n_events do
          plain.(i land 4095) <- (i, Unix.gettimeofday (), [ ("round", Int i); ("source", Int 7) ])
        done
      in
      let rec_times = Array.make reps 0. and ratios = Array.make reps 0. in
      for r = 0 to reps - 1 do
        let rec_s, ref_s =
          if r mod 2 = 0 then
            let a = timed recorder in
            (a, timed reference)
          else
            let b = timed reference in
            (timed recorder, b)
        in
        rec_times.(r) <- rec_s;
        ratios.(r) <- rec_s /. ref_s
      done;
      let rec_s = Stats.median rec_times and rec_ratio = Stats.median ratios in
      let events_per_s = float_of_int n_events /. rec_s in
      Obs.Recorder.disable ();
      Obs.Recorder.clear ();
      (* Ledger append: one realistic record per call, flushed each
         time (the durability the audit trail promises). *)
      let path = Filename.temp_file "mycelium_bench_ledger" ".jsonl" in
      let l = Obs.Ledger.open_ path in
      let n_rec = 2_000 in
      let record i =
        Obj
          [
            ("schema", Str "mycelium-ledger/1");
            ("query", Int i);
            ("name", Str "bench");
            ("status", Str "ok");
            ("charged", Bool true);
            ("epsilon", Num 0.5);
            ( "phases",
              Obj
                [
                  ("gather_s", Num 0.0123);
                  ("aggregate_s", Num 0.0456);
                  ("summation_s", Num 0.0078);
                  ("decrypt_s", Num 0.0009);
                ] );
            ("budget_spent", Num (0.5 *. float_of_int i));
          ]
      in
      let t0 = Unix.gettimeofday () in
      for i = 1 to n_rec do
        Obs.Ledger.append l (record i)
      done;
      let led_s = Unix.gettimeofday () -. t0 in
      Obs.Ledger.close l;
      Sys.remove path;
      let append_us = led_s *. 1e6 /. float_of_int n_rec in
      telemetry_measured := Some (pct 2, rec_ratio);
      say "\n";
      say "=== Telemetry: sampler / flight recorder / audit ledger ===\n";
      say "  (medians of %d interleaved repetitions)\n" reps;
      say "  sampler off         %8.2f ms\n" (off_s *. 1e3);
      say "  sampler @ 10 ms     %8.2f ms  (%+.1f%%)\n" (s10_s *. 1e3) (pct 1);
      say "  sampler @ 1 ms      %8.2f ms  (%+.1f%%, %d ticks total)\n" (s1_s *. 1e3)
        (pct 2) ticks;
      say "  recorder note       %8.0f ns/event  (%.2f M events/s, %.2fx the plain-store loop)\n"
        (rec_s *. 1e9 /. float_of_int n_events)
        (events_per_s /. 1e6) rec_ratio;
      say "  ledger append       %8.2f us/record (flushed)\n" append_us;
      [
        ("sampler_repetitions", Int reps);
        ("sampler_off_ms", Num (off_s *. 1e3));
        ("sampler_10ms_ms", Num (s10_s *. 1e3));
        ("sampler_10ms_overhead_pct", Num (pct 1));
        ("sampler_1ms_ms", Num (s1_s *. 1e3));
        ("sampler_1ms_overhead_pct", Num (pct 2));
        ("sampler_ticks", Int ticks);
        ("recorder_events_per_s", Num events_per_s);
        ("recorder_event_ns", Num (rec_s *. 1e9 /. float_of_int n_events));
        ("recorder_reference_ratio", Num rec_ratio);
        ("ledger_append_us", Num append_us);
        ("ledger_records", Int n_rec);
      ])

(* ------------------------------------------------------------------ *)
(* Serving: batched round-trips + encrypted-aggregate cache           *)
(* ------------------------------------------------------------------ *)

(* The PR9 serving layer's reason to exist, measured: a mixed ego-query
   workload (three shapes, repeated) released one query at a time with
   the cache off, against the same workload at batch 8 with a warm
   cache — faults on, every contribution routed through the mixnet.
   Both paths run the workload twice and time the second pass, so the
   admission sequence numbers (and with them every member's DP-noise
   seed) line up and the releases can be checked byte-identical before
   the speedup is reported.  The warm-batched sustained qps must reach
   2x the sequential baseline under --check (the acceptance target is
   3x; the gate leaves room for CI noise). *)
let serving_measured = ref None

let () =
  section "serving" (fun () ->
      let module Serve = Mycelium_serve.Serve in
      let module Agg_cache = Mycelium_serve.Agg_cache in
      let module Corpus = Mycelium_query.Corpus in
      let mix_cfg =
        {
          Sim.default_config with
          Sim.hops = 2;
          replicas = 2;
          fraction = 0.4;
          fast_setup = true;
          verify_proofs = false;
        }
      in
      let plan =
        Fault_plan.make ~drop_rate:0.1 ~churn_rate:0.1 ~crashed_committee:[ 2 ] ~seed:2024L ()
      in
      let runtime () =
        Runtime.init
          { (bench_config (Some plan)) with
            Runtime.route_through_mixnet = Some mix_cfg;
            epsilon_budget = Float.max_float
          }
          (bench_graph 4242L)
      in
      (* 16 requests per pass over three query shapes; one user per
         request index so the per-user accountant never binds. *)
      let shapes = [| "Q5"; "Q4"; "Q8"; "Q5"; "Q4"; "Q5"; "Q8"; "Q4" |] in
      let n_requests = 16 in
      let requests =
        List.init n_requests (fun i ->
            {
              Serve.user = Printf.sprintf "analyst%d" i;
              epsilon = 0.25;
              sql = (Corpus.find shapes.(i mod Array.length shapes)).Corpus.sql;
              name = Some shapes.(i mod Array.length shapes);
            })
      in
      let pass srv =
        let t0 = Unix.gettimeofday () in
        let responses = ref [] in
        List.iter
          (fun req ->
            match Serve.submit srv ~arrival:0.0 req with
            | Serve.Queued _, flushed -> responses := List.rev_append flushed !responses
            | Serve.Rejected r, _ ->
              failwith ("bench serving: rejected: " ^ Serve.rejection_to_string r))
          requests;
        let responses = List.rev_append (Serve.drain srv) !responses in
        let dt = Unix.gettimeofday () -. t0 in
        let released =
          List.map
            (fun r ->
              match r.Serve.outcome with
              | Ok qr -> (r.Serve.seq, qr.Runtime.noisy_bins)
              | Error _ -> failwith "bench serving: member errored")
            responses
          |> List.sort compare
        in
        (dt, released, List.exists (fun r -> r.Serve.cache_hit) responses)
      in
      let serve_with ~batch_size ~cache_capacity =
        Serve.create
          ~config:
            { Serve.default_config with
              Serve.batch_size;
              cache_capacity;
              per_user_budget = 1e9
            }
          (runtime ())
      in
      (* Sequential baseline: batch 1, cache off, two passes, the
         second timed (so both paths pay any first-pass warmup). *)
      let seq = serve_with ~batch_size:1 ~cache_capacity:0 in
      let _, _, _ = pass seq in
      let seq_s, seq_released, seq_hit = pass seq in
      if seq_hit then failwith "bench serving: baseline must never hit the cache";
      (* Batched serving: batch 8, cache warm after the first pass. *)
      let batched = serve_with ~batch_size:8 ~cache_capacity:64 in
      let cold_s, _, _ = pass batched in
      let warm_s, warm_released, warm_hit = pass batched in
      if not warm_hit then failwith "bench serving: warm pass did not hit the cache";
      if List.map snd warm_released <> List.map snd seq_released then
        failwith "bench serving: batched releases differ from the sequential baseline";
      let qps s = float_of_int n_requests /. s in
      let speedup = seq_s /. warm_s in
      serving_measured := Some speedup;
      say "\n";
      say "=== Serving: batched round-trips + encrypted-aggregate cache ===\n";
      say "  sequential (batch 1, cache off)  %8.2f ms  %6.1f qps\n" (seq_s *. 1e3) (qps seq_s);
      say "  batched cold (batch 8)           %8.2f ms  %6.1f qps\n" (cold_s *. 1e3) (qps cold_s);
      say "  batched warm (batch 8, cached)   %8.2f ms  %6.1f qps\n" (warm_s *. 1e3) (qps warm_s);
      say "  sustained speedup %.2fx (target 3x, CI floor 2x)\n" speedup;
      [
        ("n_requests", Int n_requests);
        ("sequential_s", Num seq_s);
        ("sequential_qps", Num (qps seq_s));
        ("batched_cold_s", Num cold_s);
        ("batched_cold_qps", Num (qps cold_s));
        ("batched_warm_s", Num warm_s);
        ("batched_warm_qps", Num (qps warm_s));
        ("speedup", Num speedup);
      ])

(* ------------------------------------------------------------------ *)
(* Ringops: the ring kernels, Reference vs Montgomery                 *)
(* ------------------------------------------------------------------ *)

(* Cost of the polynomial arithmetic the whole pipeline sits on, at
   degrees 1024..32768: the Montgomery kernels Rq runs (Bigarray
   radix-4 with lazy reduction) beside the Reference Shoup kernels of
   Ntt, then Rq.mul and the paper-profile pipeline end to end. *)

(* The measured Montgomery forward at N=8192 from the table below,
   compared against the committed BENCH_pr4.json by --check. *)
let mont_fwd_8192_ns = ref None

let () =
  section "ringops" (fun () ->
      let module Rns = Mycelium_math.Rns in
      let module Mont_backend = Mycelium_math.Mont_backend in
      let levels = 3 in
      let ns_per_op ?(reps = 5) ~inner f =
        let best = ref infinity in
        for _ = 1 to reps do
          let t0 = Unix.gettimeofday () in
          for _ = 1 to inner do
            f ()
          done;
          let dt = Unix.gettimeofday () -. t0 in
          if dt < !best then best := dt
        done;
        !best *. 1e9 /. float_of_int inner
      in
      say "\n";
      say "=== Ringops: ring kernels, Reference (Shoup) vs Montgomery (Bigarray radix-4) ===\n";
      say "  %7s %12s %12s %8s %12s %12s %8s %12s %12s\n" "degree" "fwd ref"
        "fwd mont" "speedup" "inv ref" "inv mont" "speedup" "pointwise" "rq.mul";
      let rows =
        List.map
          (fun degree ->
            let rng = Rng.create (Int64.of_int (9000 + degree)) in
            let p = List.hd (Ntt.find_primes ~degree ~bits:30 ~count:1) in
            let rplan = Ntt.make_plan ~p ~degree in
            let mplan = Mont_backend.make_plan ~p ~degree in
            let rand () = Array.init degree (fun _ -> Rng.int rng p) in
            let a = rand () and b = rand () in
            (* Kernel-level: transforms run in place on a scratch row
               (any reduced row is a valid input, so repeated
               application measures steady-state cost). *)
            let scratch = Array.copy a in
            let inner = max 4 (524_288 / degree) in
            let fwd_ref = ns_per_op ~inner (fun () -> Ntt.forward rplan scratch) in
            let fwd_mont = ns_per_op ~inner (fun () -> Mont_backend.forward mplan scratch) in
            let inv_ref = ns_per_op ~inner (fun () -> Ntt.inverse rplan scratch) in
            let inv_mont = ns_per_op ~inner (fun () -> Mont_backend.inverse mplan scratch) in
            let pw =
              ns_per_op ~inner (fun () -> Mont_backend.pointwise_into mplan ~dst:scratch a b)
            in
            if degree = 8192 then mont_fwd_8192_ns := Some fwd_mont;
            (* Rq level: a 3-limb basis, matching the pipeline shape
               (Eval-resident operands, so this measures the pointwise
               path plus dispatch). *)
            let basis = Rns.standard ~degree ~prime_bits:30 ~levels in
            let heavy = max 2 (65_536 / degree) in
            let rq_mul =
              let x = Rq.random_uniform basis (Rng.create 77L) in
              let y = Rq.random_uniform basis (Rng.create 78L) in
              Rq.force_eval x;
              Rq.force_eval y;
              ns_per_op ~inner:heavy (fun () -> ignore (Rq.mul x y))
            in
            say "  %7d %10.1fus %10.1fus %7.2fx %10.1fus %10.1fus %7.2fx %10.2fus %10.1fus\n"
              degree (fwd_ref /. 1e3) (fwd_mont /. 1e3) (fwd_ref /. fwd_mont)
              (inv_ref /. 1e3) (inv_mont /. 1e3) (inv_ref /. inv_mont) (pw /. 1e3)
              (rq_mul /. 1e3);
            ( degree,
              Obj
                [
                  ("degree", Int degree);
                  ("ntt_forward_old_ns", Num fwd_ref);
                  ("ntt_forward_ns", Num fwd_mont);
                  ("ntt_forward_speedup", Num (fwd_ref /. fwd_mont));
                  ("ntt_inverse_old_ns", Num inv_ref);
                  ("ntt_inverse_ns", Num inv_mont);
                  ("ntt_inverse_speedup", Num (inv_ref /. inv_mont));
                  ("pointwise_ns", Num pw);
                  ("rq_mul_ns", Num rq_mul);
                ] ))
          [ 1024; 2048; 4096; 8192; 32768 ]
      in
      (* Paper profile (§5): N=32768, 19 30-bit primes (~550-bit q),
         t=2^30 — the full keygen/encrypt/mul/relinearize/decrypt
         pipeline at the parameters the paper deploys, run end-to-end. *)
      say "\n";
      say "  --- paper profile: N=32768, %d-bit q, t=2^30 ---\n"
        (Params.modulus_bits Params.paper);
      let once label f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
        say "  %-22s %10.1f ms\n" label ms;
        ((label ^ "_ms", Num ms), r)
      in
      let t_ctx, pctx = once "make_ctx" (fun () -> Bgv.make_ctx Params.paper) in
      let prng = Rng.create 4242L in
      let t_keygen, (psk, ppk) = once "keygen" (fun () -> Bgv.keygen pctx prng) in
      (* 30-bit digits keep the relin key at ~19 digit rows instead of
         ~69: the right operating point at a 550-bit modulus. *)
      let t_rk, prk =
        once "relin_keygen" (fun () ->
            Bgv.relin_keygen ~digit_bits:30 pctx prng psk ~max_degree:2)
      in
      let t_enc, (pa, pb) =
        once "encrypt_x2" (fun () ->
            (Bgv.encrypt_value pctx prng ppk 3, Bgv.encrypt_value pctx prng ppk 5))
      in
      let t_mul, pprod = once "mul" (fun () -> Bgv.mul pa pb) in
      let t_relin, prelin = once "relinearize" (fun () -> Bgv.relinearize pctx prk pprod) in
      let t_dec, ppt = once "decrypt" (fun () -> Bgv.decrypt pctx psk prelin) in
      let module Plaintext = Mycelium_bgv.Plaintext in
      if Plaintext.coeff ppt 8 <> 1 || Plaintext.coeff ppt 7 <> 0 then
        failwith "bench ringops: paper-profile pipeline decrypted incorrectly";
      say "  decrypt(x^3 * x^5) = x^8: ok\n";
      [ ("levels", Int levels);
        ( "paper_profile",
          Obj
            ([
               ("degree", Int Params.paper.Params.degree);
               ("modulus_bits", Int (Params.modulus_bits Params.paper));
               ("backend", Str (Rns.backend_name (Bgv.basis pctx)));
             ]
            @ [ t_ctx; t_keygen; t_rk; t_enc; t_mul; t_relin; t_dec ]) );
        ("degrees", List (List.map snd rows)) ])

(* ------------------------------------------------------------------ *)
(* Mixnet at scale: the Figure 7-9 quantities, measured                *)
(* ------------------------------------------------------------------ *)

(* Streams the arena simulator (DESIGN.md §12) across population
   sizes with churn and Byzantine fractions, and reports the measured
   counterparts of the paper's mixnet evaluation: anonymity-set size
   (Fig 7), identification probability (Fig 8), C-round duration and
   deposited bytes / goodput (Fig 9).  Every cell uses [fast_keys] —
   the sweep measures forwarding, mixing and verification, not modular
   exponentiation at setup.  The 10^6-device flagship runs only in a
   full bench (it takes minutes); under --check the reduced cells
   rerun and gate against the committed BENCH_pr7.json. *)

(* The n=10^5 anchor's measurements, for the --check gate. *)
let mixnet_anchor = ref None

let () =
  section "mixnet" (fun () ->
      say "\n=== Mixnet: streaming simulator at scale (Figures 7-9) ===\n";
      say "  %-14s %6s %5s %9s %9s %9s %7s %7s %10s %10s %8s\n" "cell" "churn" "byz"
        "create s" "setup s" "round s" "anon" "ident" "dep MB" "goodput" "heap MB";
      let h_round = Obs.Metrics.histogram "bench.mixnet.cround_seconds" in
      let h_goodput = Obs.Metrics.histogram "bench.mixnet.goodput_mbps" in
      let payload = Bytes.make 32 'q' in
      let run_cell ~label ~n ~degree ~churn ~byz ~qrounds ~verify_sample ~anon_sample =
        let cfg =
          {
            Sim.default_config with
            Sim.n_devices = n;
            degree;
            hops = 3;
            replicas = 2;
            fraction = 0.1;
            churn;
            malicious_fraction = byz;
            fast_setup = true;
            fast_keys = true;
            verify_sample;
            anon_sample;
            seed = 20260809L;
          }
        in
        let t0 = Unix.gettimeofday () in
        let t = Sim.create cfg in
        let create_s = Unix.gettimeofday () -. t0 in
        let t0 = Unix.gettimeofday () in
        let (_ : Sim.setup_stats) = Sim.setup_paths t in
        let setup_s = Unix.gettimeofday () -. t0 in
        let round_s = ref 0. in
        let sent = ref 0 and delivered = ref 0 and identified = ref 0 in
        let dep_bytes = ref 0 in
        let anon_sum = ref 0. and anon_n = ref 0 in
        for _ = 1 to qrounds do
          let t0 = Unix.gettimeofday () in
          let r = Sim.run_query_round t ~payload in
          let dt = Unix.gettimeofday () -. t0 in
          round_s := !round_s +. dt;
          Obs.Metrics.observe h_round dt;
          sent := !sent + r.Sim.messages_sent;
          delivered := !delivered + r.Sim.delivered;
          identified := !identified + r.Sim.identified;
          dep_bytes := !dep_bytes + r.Sim.deposited_bytes;
          Array.iter
            (fun s ->
              anon_sum := !anon_sum +. float_of_int s;
              incr anon_n)
            r.Sim.anonymity_sets
        done;
        let anon_mean = if !anon_n = 0 then 0. else !anon_sum /. float_of_int !anon_n in
        let ident_prob = float_of_int !identified /. float_of_int (max 1 !sent) in
        (* Goodput: delivered payload bytes per second of C-round time
           (Fig 9's useful-throughput axis, with the deposited-bytes
           column giving the overhead it is paid for). *)
        let goodput =
          float_of_int (!delivered * Bytes.length payload) /. max 1e-9 !round_s
        in
        Obs.Metrics.observe h_goodput (goodput /. 1e6);
        let fp = Sim.footprint t in
        let heap_bytes = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
        say "  %-14s %6.2f %5.2f %9.2f %9.2f %9.2f %7.1f %7.4f %10.1f %8.2f/s %8d\n" label
          churn byz create_s setup_s
          (!round_s /. float_of_int qrounds)
          anon_mean ident_prob
          (float_of_int !dep_bytes /. 1e6)
          (goodput /. 1e6)
          (heap_bytes / (1024 * 1024));
        if n = 100_000 then mixnet_anchor := Some (goodput, heap_bytes);
        Obj
          [
            ("label", Str label);
            ("n", Int n);
            ("churn", Num churn);
            ("byz", Num byz);
            ("query_rounds", Int qrounds);
            ("create_seconds", Num create_s);
            ("setup_seconds", Num setup_s);
            ("cround_seconds", Num (!round_s /. float_of_int (qrounds * cfg.Sim.hops + qrounds)));
            ("round_seconds", Num (!round_s /. float_of_int qrounds));
            ("messages", Int !sent);
            ("delivered", Int !delivered);
            ("anonymity_mean", Num anon_mean);
            ("identification_probability", Num ident_prob);
            ("deposited_bytes", Int !dep_bytes);
            ("goodput_bytes_per_s", Num goodput);
            ("slot_capacity", Int fp.Sim.slot_capacity);
            ("arena_bytes", Int fp.Sim.arena_bytes);
            ("top_heap_bytes", Int heap_bytes);
          ]
      in
      Obs.with_enabled (fun () ->
          let cells = ref [] in
          let add c = cells := c :: !cells in
          (* Churn x Byzantine sweep at n=10^4: the Fig 7/8 axes. *)
          List.iter
            (fun churn ->
              List.iter
                (fun byz ->
                  add
                    (run_cell
                       ~label:(Printf.sprintf "n10k-c%g-b%g" churn byz)
                       ~n:10_000 ~degree:2 ~churn ~byz ~qrounds:1 ~verify_sample:0
                       ~anon_sample:0))
                [ 0.0; 0.02; 0.1 ])
            [ 0.0; 0.05 ];
          (* The n=10^5 anchor: sampled verification and closure, two
             query rounds — the cell the --check gate reruns. *)
          add
            (run_cell ~label:"n100k" ~n:100_000 ~degree:1 ~churn:0.01 ~byz:0.02
               ~qrounds:2 ~verify_sample:101 ~anon_sample:13);
          (* The 10^6 flagship: the paper's Fig 9 scale.  Skipped under
             --check (minutes of runtime); the gate instead asserts the
             committed record has it. *)
          if not check_mode then
            add
              (run_cell ~label:"n1000k" ~n:1_000_000 ~degree:1 ~churn:0.01 ~byz:0.02
                 ~qrounds:2 ~verify_sample:1009 ~anon_sample:101);
          [ ("payload_bytes", Int (Bytes.length payload)); ("cells", List (List.rev !cells)) ]))

(* ------------------------------------------------------------------ *)
(* Lint: the full-repo static-analysis pass                            *)
(* ------------------------------------------------------------------ *)

(* Times the same walk `dune build @lint` runs — parse every .ml/.mli
   under lib/, bin/, bench/ and test/ of the build tree and check every
   rule — so the cost of the gate is tracked alongside the code it
   gates.  The tree is the one this executable was built in
   (<build>/bench/main.exe), wherever dune put it and whatever the
   working directory; an executable outside a build tree skips the
   section, and --check then fails. *)

(* (cold_ms, warm_ms, warm summarizations) for the --check gate below. *)
let analyze_cold_warm_ms = ref None

let () =
  section "lint" (fun () ->
      let module Lint = Mycelium_lint.Lint in
      let root = Filename.dirname (Filename.dirname Sys.executable_name) in
      if not (Sys.file_exists (Filename.concat root "lib")) then begin
        say "\n=== Lint: no build tree at %s; section skipped ===\n" root;
        [ ("skipped", Bool true) ]
      end
      else begin
        let cwd = Sys.getcwd () in
        let report, dt =
          Fun.protect
            ~finally:(fun () -> Sys.chdir cwd)
            (fun () ->
              Sys.chdir root;
              let roots =
                List.filter Sys.file_exists [ "lib"; "bin"; "bench"; "test" ]
              in
              let t0 = Unix.gettimeofday () in
              let report = Lint.run ~roots () in
              (report, Unix.gettimeofday () -. t0))
        in
        let files = report.Lint.files in
        say "\n";
        say "=== Lint: full-repo static analysis ===\n";
        say "  %d files in %.1f ms (%.0f files/s)\n" files (dt *. 1e3)
          (float_of_int files /. dt);
        say "  violations %d, suppressed %d\n"
          (List.length report.Lint.violations)
          (List.length report.Lint.suppressed);
        let syntactic =
          [
            ("files", Int files);
            ("ms", Num (dt *. 1e3));
            ("files_per_s", Num (float_of_int files /. dt));
            ("violations", Int (List.length report.Lint.violations));
            ("suppressed", Int (List.length report.Lint.suppressed));
          ]
        in
        (* The interprocedural analyzer over the built .cmt trees, in
           the scope `dune build @analyze` sweeps: one cold run against
           a fresh summary cache, then warm runs (best of three) that
           should skip every summarization.  Skipped when the tree
           holds no .cmt (`dune build @check` writes them for every
           directory). *)
        let module A = Mycelium_lint.Analyze in
        let built dirs =
          List.filter Sys.file_exists (List.map (Filename.concat root) dirs)
        in
        let aroots = built A.repo_roots and callers = built A.repo_callers in
        if aroots = [] || List.concat_map (fun r -> A.find_cmts r []) aroots = []
        then begin
          say "  (no .cmt build tree; analyzer cells skipped)\n";
          syntactic @ [ ("analyze_skipped", Bool true) ]
        end
        else begin
          let cache = Filename.temp_file "mycelium_analyze_bench" ".cache" in
          Sys.remove cache;
          Fun.protect
            ~finally:(fun () -> if Sys.file_exists cache then Sys.remove cache)
            (fun () ->
              let timed () =
                let t0 = Unix.gettimeofday () in
                let res = A.run ~cache ~source_root:root ~callers ~roots:aroots () in
                (res, (Unix.gettimeofday () -. t0) *. 1e3)
              in
              let cold, cold_ms = timed () in
              let warms = List.init 3 (fun _ -> timed ()) in
              let warm, warm_ms =
                List.fold_left
                  (fun (br, bms) (r, ms) -> if ms < bms then (r, ms) else (br, bms))
                  (List.hd warms) (List.tl warms)
              in
              analyze_cold_warm_ms := Some (cold_ms, warm_ms, warm.A.stats.A.sa_summarized);
              let s = cold.A.stats in
              say "=== Analyze: interprocedural privacy flow ===\n";
              say "  %d modules, %d functions; cold %.1f ms, warm %.1f ms (%.2fx)\n"
                s.A.sa_modules s.A.sa_functions cold_ms warm_ms (cold_ms /. warm_ms);
              say "  violations %d, suppressed %d; warm cache hits %d/%d\n"
                (List.length cold.A.report.Lint.violations)
                (List.length cold.A.report.Lint.suppressed)
                warm.A.stats.A.sa_cache_hits
                (warm.A.stats.A.sa_cache_hits + warm.A.stats.A.sa_summarized);
              syntactic
              @ [
                  ("analyze_modules", Int s.A.sa_modules);
                  ("analyze_functions", Int s.A.sa_functions);
                  ("analyze_cold_ms", Num cold_ms);
                  ("analyze_warm_ms", Num warm_ms);
                  ("analyze_warm_speedup", Num (cold_ms /. warm_ms));
                  ("analyze_violations", Int (List.length cold.A.report.Lint.violations));
                  ("analyze_suppressed", Int (List.length cold.A.report.Lint.suppressed));
                ])
        end
      end)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let rng = Rng.create 42L in
  (* BGV at the medium test parameters: the per-operation costs behind
     §6.4 and Figure 9b. *)
  let ctx = Bgv.make_ctx Params.test_medium in
  let sk, pk = Bgv.keygen ctx rng in
  let ct_a = Bgv.encrypt_value ctx rng pk 1 in
  let ct_b = Bgv.encrypt_value ctx rng pk 2 in
  let prod = Bgv.mul ct_a ct_b in
  let rk = Bgv.relin_keygen ctx rng sk ~max_degree:2 in
  (* A device's §4.6 proof over its encryption of x^3, and the
     aggregator's check of it. *)
  let srs = Zkp.setup rng in
  let pt =
    Plaintext.monomial ~plain_modulus:(Bgv.plain_modulus ctx)
      ~degree:(Bgv.params ctx).Params.degree ~exponent:3
  in
  let ct_proven = Bgv.encrypt ctx (Rng.create 7L) pk pt in
  let proof =
    match Zkp.prove_contribution srs ctx pk ~plaintext:pt ~seed:7L ct_proven with
    | Some proof -> proof
    | None -> failwith "bench: honest contribution refused"
  in
  (* NTT at N=1024 (the figure-scaling primitive), plus the schoolbook
     oracle as an ablation. *)
  let p = List.hd (Ntt.find_primes ~degree:1024 ~bits:28 ~count:1) in
  let plan = Ntt.make_plan ~p ~degree:1024 in
  let poly_a = Array.init 1024 (fun i -> (i * 7) mod p) in
  let poly_b = Array.init 1024 (fun i -> (i * 13) mod p) in
  let p256 = List.hd (Ntt.find_primes ~degree:256 ~bits:28 ~count:1) in
  let small_plan = Ntt.make_plan ~p:p256 ~degree:256 in
  let small_a = Array.init 256 (fun i -> (i * 7) mod p256) in
  let small_b = Array.init 256 (fun i -> (i * 13) mod p256) in
  (* Crypto primitives behind the mixnet figures. *)
  let msg_4k = Bytes.create 4096 in
  let key32 = Rng.bytes rng 32 in
  let hop_keys = List.init 3 (fun _ -> Rng.bytes rng 32) in
  let eg_pk, eg_sk = Elgamal.generate rng in
  let eg_ct = Elgamal.encrypt rng eg_pk key32 in
  let leaves = Array.init 256 (fun i -> Bytes.of_string (string_of_int i)) in
  let tree = Merkle.build leaves in
  let shamir_p = 1073479681 in
  [
    Test.make ~name:"fig9b/bgv-add" (Staged.stage (fun () -> ignore (Bgv.add ct_a ct_b)));
    Test.make ~name:"sec6_4/bgv-encrypt" (Staged.stage (fun () -> ignore (Bgv.encrypt_value ctx rng pk 3)));
    Test.make ~name:"sec6_4/rq-sample-cbd"
      (Staged.stage (fun () ->
           ignore (Rq.sample_cbd (Bgv.basis ctx) ~eta:(Bgv.params ctx).Params.error_eta rng)));
    Test.make ~name:"sec6_4/bgv-mul" (Staged.stage (fun () -> ignore (Bgv.mul ct_a ct_b)));
    Test.make ~name:"sec6_4/bgv-relinearize" (Staged.stage (fun () -> ignore (Bgv.relinearize ctx rk prod)));
    Test.make ~name:"sec6_4/zkp-prove-contribution"
      (Staged.stage (fun () ->
           ignore (Zkp.prove_contribution srs ctx pk ~plaintext:pt ~seed:7L ct_proven)));
    Test.make ~name:"sec6_4/zkp-verify-contribution"
      (Staged.stage (fun () -> ignore (Zkp.verify_contribution srs ctx ct_proven proof)));
    Test.make ~name:"fig9b/bgv-serialize" (Staged.stage (fun () -> ignore (Bgv.serialize ct_a)));
    Test.make ~name:"ablation/ntt-mul-1024" (Staged.stage (fun () -> ignore (Ntt.multiply plan poly_a poly_b)));
    Test.make ~name:"ablation/naive-mul-256" (Staged.stage (fun () -> ignore (Ntt.multiply_naive ~p:p256 small_a small_b)));
    Test.make ~name:"ablation/ntt-mul-256" (Staged.stage (fun () -> ignore (Ntt.multiply small_plan small_a small_b)));
    Test.make ~name:"fig5/sha256-4k" (Staged.stage (fun () -> ignore (Sha256.digest msg_4k)));
    Test.make ~name:"fig5/chacha20-4k"
      (Staged.stage (fun () ->
           ignore (Chacha20.encrypt ~key:key32 ~nonce:(Chacha20.nonce_of_round 1) msg_4k)));
    Test.make ~name:"fig5/poly1305-4k" (Staged.stage (fun () -> ignore (Poly1305.mac ~key:key32 msg_4k)));
    Test.make ~name:"fig5/aead-seal-4k" (Staged.stage (fun () -> ignore (Aead.seal ~key:key32 ~round:1 msg_4k)));
    Test.make ~name:"fig5/onion-wrap-3hops"
      (Staged.stage (fun () -> ignore (Onion.wrap ~hop_keys ~round:1 msg_4k)));
    Test.make ~name:"fig5d/elgamal-encrypt" (Staged.stage (fun () -> ignore (Elgamal.encrypt rng eg_pk key32)));
    Test.make ~name:"fig5d/elgamal-decrypt" (Staged.stage (fun () -> ignore (Elgamal.decrypt eg_sk eg_ct)));
    Test.make ~name:"fig9a/merkle-build-256" (Staged.stage (fun () -> ignore (Merkle.build leaves)));
    Test.make ~name:"fig9a/merkle-prove" (Staged.stage (fun () -> ignore (Merkle.prove tree 17)));
    Test.make ~name:"fig8/shamir-share-c10"
      (Staged.stage (fun () ->
           ignore (Shamir.share_secret ~p:shamir_p rng ~threshold:4 ~parties:10 123456)));
  ]

let run_micro () =
  let open Bechamel in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) ~kde:None () in
  let grouped = Test.make_grouped ~name:"mycelium" (micro_tests ()) in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  say "\n";
  say "=== Micro-benchmarks (Bechamel) ===\n";
  List.filter_map
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) ->
        let pretty =
          if est > 1e9 then Printf.sprintf "%8.2f s " (est /. 1e9)
          else if est > 1e6 then Printf.sprintf "%8.2f ms" (est /. 1e6)
          else if est > 1e3 then Printf.sprintf "%8.2f us" (est /. 1e3)
          else Printf.sprintf "%8.0f ns" est
        in
        say "  %-32s %s\n" name pretty;
        Some (name, Num est)
      | Some [] | None ->
        say "  %-32s (no estimate)\n" name;
        None)
    rows

let () =
  if (not skip_micro) && wants "micro" then begin
    let t0 = Unix.gettimeofday () in
    let estimates = run_micro () in
    json_sections :=
      ( "micro",
        Obj
          [
            ("seconds", Num (Unix.gettimeofday () -. t0));
            ("estimates_ns", Obj estimates);
          ] )
      :: !json_sections
  end

(* ------------------------------------------------------------------ *)
(* JSON document (last: every section has run)                         *)
(* ------------------------------------------------------------------ *)

let () =
  if json_mode then
    print_endline
      (Json.to_string
         (Obj
            [
              ("schema", Str "mycelium-bench/1");
              ("cores", Int (Domain.recommended_domain_count ()));
              ("sections", Obj (List.rev !json_sections));
            ]))

(* ------------------------------------------------------------------ *)
(* --check gates (run last so --json stays intact)                     *)
(* ------------------------------------------------------------------ *)

(* A failed gate prints its reason and exits 1. *)
let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("check: " ^ s); exit 1) fmt

(* The committed baseline [name], parsed, from the nearest directory
   upward of the working directory that holds it: the gates run from
   the repository root and from _build/default/test. *)
let committed_baseline name =
  let rec find_root dir =
    if Sys.file_exists (Filename.concat dir name) then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else find_root parent
  in
  match find_root (Sys.getcwd ()) with
  | None -> fail "%s not found upward of %s" name (Sys.getcwd ())
  | Some root ->
    let ic = open_in_bin (Filename.concat root name) in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (match Json.parse s with
    | Error e -> fail "%s does not parse: %s" name e
    | Ok doc -> doc)

let ( >>= ) o f = Option.bind o f

(* The ringops gate fails the process unless the Montgomery forward at
   N=8192 measured above is at least 2x faster than the ntt_forward_ns
   committed in BENCH_pr4.json (the Reference Shoup number of
   record).  Keeps the Montgomery kernels' reason to exist from
   silently regressing. *)
let () =
  if check_mode && wants "ringops" then begin
    let reference_ns =
      let row =
        Json.member "sections" (committed_baseline "BENCH_pr4.json")
        >>= Json.member "ringops" >>= Json.member "degrees"
        >>= function
        | List rows ->
          List.find_opt (fun r -> Json.member "degree" r = Some (Int 8192)) rows
        | _ -> None
      in
      match row >>= Json.member "ntt_forward_ns" with
      | Some (Num ns) -> ns
      | _ -> fail "BENCH_pr4.json has no ntt_forward_ns row at degree 8192"
    in
    match !mont_fwd_8192_ns with
    | None -> fail "ringops section did not measure the N=8192 forward"
    | Some measured ->
      let speedup = reference_ns /. measured in
      if speedup < 2.0 then
        fail
          "montgomery forward at N=8192 is %.0f ns vs %.0f ns committed (%.2fx < 2x floor)"
          measured reference_ns speedup;
      say "check: montgomery forward at N=8192: %.0f ns vs %.0f ns committed (%.2fx >= 2x) ok\n"
        measured reference_ns speedup
  end

(* ------------------------------------------------------------------ *)
(* --check: the analyzer summary-cache gate                            *)
(* ------------------------------------------------------------------ *)

(* The cache's reason to exist: a warm run must skip every
   summarization and come in measurably under the cold run (best warm
   of three against one cold, so scheduler noise cannot flip it). *)
let () =
  if check_mode && wants "lint" then begin
    match !analyze_cold_warm_ms with
    | None ->
      fail "analyzer cells skipped (no .cmt in the build tree): the cache gate measured nothing"
    | Some (cold_ms, warm_ms, warm_summarized) ->
      if warm_summarized <> 0 then
        fail "warm analyzer run re-summarized %d modules (want 0)" warm_summarized;
      if warm_ms >= cold_ms *. 0.9 then
        fail "warm analyzer run %.1f ms vs cold %.1f ms (< 1.11x; cache buys nothing)"
          warm_ms cold_ms;
      say "check: analyzer summary cache: cold %.1f ms, warm %.1f ms (%.2fx) ok\n"
        cold_ms warm_ms (cold_ms /. warm_ms)
  end

(* ------------------------------------------------------------------ *)
(* --check: the mixnet memory/throughput gate                          *)
(* ------------------------------------------------------------------ *)

(* Reruns the reduced-N mixnet cells (the section above skips the 10^6
   flagship under --check) and compares the n=10^5 anchor against the
   committed BENCH_pr7.json: top-heap must stay under 2x the committed
   bytes (a leak regression at this scale at least doubles it) and
   goodput must hold 0.6x the committed rate (generous to scheduler
   noise — losing the arena path costs far more than that).  Also
   asserts the committed record still carries the flagship cell, so
   the 10^6 measurement of record cannot silently vanish. *)
let () =
  if check_mode && wants "mixnet" then begin
    let doc = committed_baseline "BENCH_pr7.json" in
    let cells =
      match Json.member "sections" doc >>= Json.member "mixnet" >>= Json.member "cells" with
      | Some (List cells) -> cells
      | _ -> fail "BENCH_pr7.json has no mixnet cells"
    in
    let cell label =
      List.find_opt
        (fun c -> match Json.member "label" c with Some (Str l) -> String.equal l label | _ -> false)
        cells
    in
    if cell "n1000k" = None then fail "BENCH_pr7.json lost the n=10^6 flagship cell";
    let committed_goodput, committed_heap =
      match
        ( cell "n100k" >>= Json.member "goodput_bytes_per_s",
          cell "n100k" >>= Json.member "top_heap_bytes" )
      with
      | Some (Num g), Some (Int h) -> (g, h)
      | _ -> fail "BENCH_pr7.json anchor cell n100k is missing goodput or heap"
    in
    match !mixnet_anchor with
    | None -> fail "mixnet section did not run the n=10^5 anchor"
    | Some (goodput, heap) ->
      if heap > 2 * committed_heap then
        fail "mixnet anchor top-heap %d MB vs %d MB committed (> 2x ceiling)"
          (heap / (1024 * 1024))
          (committed_heap / (1024 * 1024));
      if goodput < 0.6 *. committed_goodput then
        fail "mixnet anchor goodput %.2f MB/s vs %.2f MB/s committed (< 0.6x floor)"
          (goodput /. 1e6) (committed_goodput /. 1e6);
      say "check: mixnet anchor heap %d MB <= 2x %d MB, goodput %.2f MB/s >= 0.6x %.2f MB/s ok\n"
        (heap / (1024 * 1024))
        (committed_heap / (1024 * 1024))
        (goodput /. 1e6) (committed_goodput /. 1e6)
  end

(* ------------------------------------------------------------------ *)
(* --check: the telemetry gate                                         *)
(* ------------------------------------------------------------------ *)

(* The 1ms-sampler overhead (the median over interleaved repetitions)
   may drift at most 10 percentage points above the figure committed in
   BENCH_pr8.json (the sampler must stay in the noise of a ~100ms
   query).  The recorder's note may cost at most 3 times the
   plain-store reference loop, the median over interleaved repetitions.
   Both loops run on the same host at the same time, so the ratio holds
   where an absolute rate recorded on another host does not.  It reads
   about 1.5 on a 2-core host under load, and 4.5 with the note's body
   run five times over, so a recorder 5x slower fails. *)
let recorder_ratio_ceiling = 3.0

let () =
  if check_mode && wants "telemetry" then begin
    let committed_pct =
      match
        Json.member "sections" (committed_baseline "BENCH_pr8.json")
        >>= Json.member "telemetry"
        >>= Json.member "sampler_1ms_overhead_pct"
      with
      | Some (Num p) -> p
      | _ -> fail "BENCH_pr8.json telemetry section is missing its gate field"
    in
    match !telemetry_measured with
    | None -> fail "telemetry section did not run"
    | Some (pct, ratio) ->
      if pct > committed_pct +. 10.0 then
        fail "sampler @ 1ms overhead %.1f%% vs %.1f%% committed (> +10 point ceiling)" pct
          committed_pct;
      if ratio > recorder_ratio_ceiling then
        fail "recorder note costs %.2fx the plain-store loop (> %.1fx ceiling)" ratio
          recorder_ratio_ceiling;
      say "check: telemetry sampler %.1f%% <= %.1f%%+10, recorder %.2fx <= %.1fx the plain loop ok\n"
        pct committed_pct ratio recorder_ratio_ceiling
  end

(* ------------------------------------------------------------------ *)
(* --check: the serving gate                                           *)
(* ------------------------------------------------------------------ *)

(* The serving section already verified byte-identity between the
   batched and sequential releases; the gate holds the performance
   claim: warm batch-8 serving must sustain at least 2x the sequential
   qps measured in the same run (the acceptance target is 3x; the CI
   floor leaves room for scheduler noise on shared hosts).  An in-run
   ratio, so the gate is host-speed independent. *)
let () =
  if check_mode && wants "serving" then begin
    match !serving_measured with
    | None -> fail "serving section did not run"
    | Some speedup ->
      if speedup < 2.0 then
        fail "warm batch-8 serving is %.2fx the sequential baseline (< 2x floor)" speedup;
      say "check: warm batch-8 serving %.2fx >= 2x sequential baseline ok\n" speedup
  end
