(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§6–§7), runs Bechamel micro-benchmarks of the
   operations each figure's cost model is built on, and gates the
   per-operation costs against one committed baseline.

   Usage:
     dune exec bench/main.exe                     -- everything
     dune exec bench/main.exe -- --only fig7      -- one section (or a comma-separated list)
     dune exec bench/main.exe -- --only ringops   -- ring kernels, Reference vs Montgomery
     dune exec bench/main.exe -- --only mixnet    -- the gated mixnet cell (n=1500)
     dune exec bench/main.exe -- --only mixnet-scale  -- Figs 7-9 sweep, n=10^4 to 10^6 (minutes)
     dune exec bench/main.exe -- --only lint      -- full-repo static analysis (timed, not gated)
     dune exec bench/main.exe -- --skip-micro     -- figures only
     dune exec bench/main.exe -- --only micro     -- the Bechamel micro-benchmarks alone
     dune exec bench/main.exe -- --json           -- machine-readable
     dune exec bench/main.exe -- --only <ids> --check
                                                  -- exit 1 unless every gated cell of the
                                                     selected sections holds its bound
                                                     against bench/baseline.json

   An unknown --only id exits 2 and names the known ids.  With --json
   the pretty output is suppressed and a single JSON document goes to
   stdout: the host's core count and OCaml version, wall-clock seconds
   and figures per section, and "cells", every gated figure by name.

   Gated times are nominal: wall time scaled by the host-speed factor of
   benchmark/calib.ml, measured right around each timed call, so a
   baseline recorded on one stretch of a shared host holds on another.
   bench/baseline.json is such a document, compiled into this
   executable; the gate (`dune build @slow`) and its recording run the
   same sections (README.md, "Benching and regression"):
     dune build
     ./_build/default/bench/main.exe --only serving,ringops,mixnet,micro \
       --json > baseline.json && mv baseline.json bench/baseline.json *)

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
module Corpus = Mycelium_query.Corpus
module Analysis = Mycelium_query.Analysis
module Parser = Mycelium_query.Parser
module Runtime = Mycelium_core.Runtime
module Contribution = Mycelium_core.Contribution
module Committee = Mycelium_core.Committee
module Fault_plan = Mycelium_faults.Fault_plan
module Injector = Mycelium_faults.Injector
module Obs = Mycelium_obs.Obs
module Stats = Mycelium_util.Stats
module Gate = Mycelium_bench_gate.Gate

let skip_micro = Array.exists (fun a -> a = "--skip-micro") Sys.argv
let json_mode = Array.exists (fun a -> a = "--json") Sys.argv
let check_mode = Array.exists (fun a -> a = "--check") Sys.argv

let figures = Figures.all ()

let known_ids =
  List.map (fun f -> f.Figures.id) figures
  @ [ "sec6_4"; "fig5-mc"; "sec7"; "obs"; "telemetry"; "serving"; "ringops"; "mixnet";
      "mixnet-scale"; "lint"; "micro" ]

(* --only takes one section id or a comma-separated list
   ("--only serving,lint" runs both); an id nothing answers to is
   refused before anything runs. *)
let only =
  let rec find = function
    | "--only" :: v :: _ -> Some (String.split_on_char ',' v)
    | _ :: rest -> find rest
    | [] -> None
  in
  let only = find (Array.to_list Sys.argv) in
  Option.iter
    (List.iter (fun id ->
         if not (List.mem id known_ids) then begin
           Printf.eprintf "bench: unknown section id %S; known ids: %s\n" id
             (String.concat ", " known_ids);
           exit 2
         end))
    only;
  only

let wants id =
  (match only with None -> true | Some ids -> List.mem id ids)
  && not (skip_micro && id = "micro")

(* All human-readable output funnels through [say] so --json can keep
   stdout clean for the document. *)
let say fmt = Printf.ksprintf (fun s -> if not json_mode then print_string s) fmt

let emit fig = if wants fig.Figures.id then say "%s" (Figures.render fig)

(* ------------------------------------------------------------------ *)
(* JSON accumulator (the shared lib/obs encoder) and gated cells       *)
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

(* Every figure the gate reads, in measurement order (reversed). *)
let cells : Gate.cell list ref = ref []

let gate ?limit name better value = cells := { Gate.name; value; better; limit } :: !cells

(* [f ()]'s result and the nominal seconds it took: its wall time
   scaled by the host-speed factor that the reference samples right
   around it give (benchmark/calib.ml). *)
let nominal_time f =
  let (r, dt), speed =
    Calib.around Calib.Mixed (fun () ->
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, Unix.gettimeofday () -. t0))
  in
  (r, dt *. speed)

(* Costs at nominal host speed, one per measure: five rounds over
   [measures], each run scaled by the host-speed factor that the
   reference samples right around it give (benchmark/calib.ml), and a
   cost is its measure's median over the rounds ([nan] if every run
   returned [nan]).  Interleaving puts a slow or fast stretch of a
   shared host into one run of a few measures, not into every run of
   one. *)
let nominal_medians measures =
  let rounds =
    List.init 5 (fun _ ->
        List.map
          (fun measure ->
            let v, speed = Calib.around Calib.Mixed measure in
            v *. speed)
          measures)
  in
  List.mapi
    (fun i _ ->
      match List.filter Float.is_finite (List.map (fun round -> List.nth round i) rounds) with
      | [] -> Float.nan
      | runs -> Stats.median (Array.of_list runs))
    measures

(* ------------------------------------------------------------------ *)
(* Figures from the closed-form cost model, then measured ones         *)
(* ------------------------------------------------------------------ *)

let () =
  say "Mycelium evaluation reproduction (SOSP 2021, Roth et al.)\n";
  say "==========================================================\n";
  let t0 = Unix.gettimeofday () in
  List.iter emit figures;
  if only = None then
    json_sections :=
      ("figures", Obj [ ("seconds", Num (Unix.gettimeofday () -. t0)) ]) :: !json_sections

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
(* Shared end-to-end fixture (obs, serving, micro)                     *)
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
  match Runtime.run_query ~epsilon:1.0 sys (Corpus.find "Q5").Corpus.sql with
  | Ok r -> (Unix.gettimeofday () -. t0, r)
  | Error _ -> failwith "bench: query failed"

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
(* Telemetry: ledger appends                                           *)
(* ------------------------------------------------------------------ *)

(* The audit ledger's append+flush, timed and printed; no cell is
   gated on it. *)
let () =
  section "telemetry" (fun () ->
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
            ( "stages",
              Obj
                [
                  ("query.gather", Num 0.0123);
                  ("query.aggregate", Num 0.0456);
                  ("summation_tree.build", Num 0.0078);
                  ("summation_tree.audit", Num 0.0004);
                  ("bgv.relinearize", Num 0.0021);
                  ("committee.decrypt_batch", Num 0.0009);
                  ("committee.rotate", Num 0.0011);
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
      say "\n";
      say "=== Telemetry: audit ledger ===\n";
      say "  ledger append       %8.2f us/record (flushed)\n" append_us;
      [
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
   the speedup is reported.  The gate reads the speedup, an in-run
   ratio, and keeps its old floor of 2x where that is stricter. *)
let () =
  section "serving" (fun () ->
      let module Serve = Mycelium_serve.Serve in
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
      (* A pass's nominal seconds (each call timed on its own, so the
         reference samples stand for it), its releases by sequence
         number, and whether any request hit the cache. *)
      let pass srv =
        let total = ref 0. in
        let timed f =
          let r, s = nominal_time f in
          total := !total +. s;
          r
        in
        let responses = ref [] in
        List.iter
          (fun req ->
            match timed (fun () -> Serve.submit srv ~arrival:0.0 req) with
            | Serve.Queued _, flushed -> responses := List.rev_append flushed !responses
            | Serve.Rejected r, _ ->
              failwith ("bench serving: rejected: " ^ Serve.rejection_to_string r))
          requests;
        let responses = List.rev_append (timed (fun () -> Serve.drain srv)) !responses in
        let released =
          List.map
            (fun r ->
              match r.Serve.outcome with
              | Ok qr -> (r.Serve.seq, qr.Runtime.noisy_bins)
              | Error _ -> failwith "bench serving: member errored")
            responses
          |> List.sort compare
        in
        (!total, released, List.exists (fun r -> r.Serve.cache_hit) responses)
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
      (* A warm pass takes milliseconds: its time is the median of five. *)
      let warm_s =
        Stats.median
          (Array.init 5 (fun i ->
               if i = 0 then warm_s
               else
                 let s, _, _ = pass batched in
                 s))
      in
      let qps s = float_of_int n_requests /. s in
      let speedup = seq_s /. warm_s in
      gate "serving/speedup" Gate.Higher speedup ~limit:2.0;
      say "\n";
      say "=== Serving: batched round-trips + encrypted-aggregate cache (nominal) ===\n";
      say "  sequential (batch 1, cache off)  %8.2f ms  %6.1f qps\n" (seq_s *. 1e3) (qps seq_s);
      say "  batched cold (batch 8)           %8.2f ms  %6.1f qps\n" (cold_s *. 1e3) (qps cold_s);
      say "  batched warm (batch 8, cached)   %8.2f ms  %6.1f qps\n" (warm_s *. 1e3) (qps warm_s);
      say "  sustained speedup %.2fx (target 3x)\n" speedup;
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
(* Ringops: the ring kernels                                         *)
(* ------------------------------------------------------------------ *)

(* Cost of the polynomial arithmetic the whole pipeline sits on, at
   degrees 1024..32768: the Montgomery kernels Rq runs (Bigarray
   radix-4 with lazy reduction), then Rq.mul and the paper-profile
   pipeline end to end.  Kernel times are nominal; the gate reads the
   forward and inverse transforms at N=8192. *)
let () =
  section "ringops" (fun () ->
      let module Rns = Mycelium_math.Rns in
      let module Mont_backend = Mycelium_math.Mont_backend in
      let levels = 3 in
      let ns_per_op ~inner f () =
        let t0 = Unix.gettimeofday () in
        for _ = 1 to inner do
          f ()
        done;
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int inner
      in
      say "\n";
      say "=== Ringops: ring kernels, Montgomery (Bigarray radix-4), nominal ===\n";
      say "  %7s %12s %12s %12s %12s\n" "degree" "forward" "inverse" "pointwise" "rq.mul";
      let rows =
        List.map
          (fun degree ->
            let rng = Rng.create (Int64.of_int (9000 + degree)) in
            let p = List.hd (Ntt.find_primes ~degree ~bits:30 ~count:1) in
            let mplan = Mont_backend.make_plan ~p ~degree in
            let rand () = Array.init degree (fun _ -> Rng.int rng p) in
            let a = rand () and b = rand () in
            (* Kernel-level: transforms run in place on a scratch row
               (any reduced row is a valid input, so repeated
               application measures steady-state cost). *)
            let scratch = Array.copy a in
            let inner = max 4 (524_288 / degree) in
            (* Rq level: a 3-limb basis, matching the pipeline shape
               (Eval-resident operands, so this measures the pointwise
               path plus dispatch). *)
            let basis = Rns.standard ~degree ~prime_bits:30 ~levels in
            let heavy = max 2 (65_536 / degree) in
            let x = Rq.random_uniform basis (Rng.create 77L) in
            let y = Rq.random_uniform basis (Rng.create 78L) in
            Rq.force_eval x;
            Rq.force_eval y;
            let costs =
              Array.of_list
                (nominal_medians
                   [
                     ns_per_op ~inner (fun () -> Mont_backend.forward mplan scratch);
                     ns_per_op ~inner (fun () -> Mont_backend.inverse mplan scratch);
                     ns_per_op ~inner (fun () -> Mont_backend.pointwise_into mplan ~dst:scratch a b);
                     ns_per_op ~inner:heavy (fun () -> ignore (Rq.mul x y));
                   ])
            in
            let fwd = costs.(0) and inv = costs.(1) and pw = costs.(2) and rq_mul = costs.(3) in
            if degree = 8192 then begin
              gate "ringops/ntt_forward_8192_ns" Gate.Lower fwd;
              gate "ringops/ntt_inverse_8192_ns" Gate.Lower inv
            end;
            say "  %7d %10.1fus %10.1fus %10.2fus %10.1fus\n" degree (fwd /. 1e3) (inv /. 1e3)
              (pw /. 1e3) (rq_mul /. 1e3);
            ( degree,
              Obj
                [
                  ("degree", Int degree);
                  ("ntt_forward_ns", Num fwd);
                  ("ntt_inverse_ns", Num inv);
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
      (* One key pair per prime: 19 rows for s^2. *)
      let t_rk, prk =
        once "relin_keygen" (fun () -> Bgv.relin_keygen pctx prng psk ~max_degree:2)
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
   exponentiation at setup.  Round times and goodput are nominal.
   "mixnet" is the one cell the gate reads, at n=1500: the heap its
   simulator holds, its goodput over the median round time, and its
   delivered count.  Its rounds take tens of milliseconds, so the
   reference samples around each one stand for it, and its working set
   stays small enough that another process's memory traffic does not
   slow it more than the reference.  "mixnet-scale" is the churn x
   Byzantine sweep at n=10^4, the n=10^5 anchor and the n=10^6 flagship
   (minutes of runtime; test_mixnet's acceptance cell covers the 10^5
   scale in tier 1). *)

let mixnet_payload = Bytes.make 32 'q'

let mixnet_header () =
  say "\n=== Mixnet: streaming simulator at scale (Figures 7-9) ===\n";
  say "  %-14s %6s %5s %9s %9s %9s %7s %7s %10s %10s %8s\n" "cell" "churn" "byz"
    "create s" "setup s" "round s" "anon" "ident" "dep MB" "goodput" "heap MB"

let mixnet_cell ~gated ~label ~n ~degree ~churn ~byz ~qrounds ~verify_every ~anon_sample () =
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
      verify_every;
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
  let round_s = Array.make qrounds 0. in
  let sent = ref 0 and delivered = ref 0 and identified = ref 0 in
  let dep_bytes = ref 0 in
  let anon_sum = ref 0. and anon_n = ref 0 in
  for i = 0 to qrounds - 1 do
    let r, dt = nominal_time (fun () -> Sim.run_query_round t ~payload:mixnet_payload) in
    round_s.(i) <- dt;
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
  (* Goodput: delivered payload bytes per second of C-round time (Fig
     9's useful-throughput axis, with the deposited-bytes column giving
     the overhead it is paid for). *)
  let good_bytes = float_of_int (!delivered * Bytes.length mixnet_payload) in
  let total_s = Array.fold_left ( +. ) 0. round_s in
  let goodput = good_bytes /. max 1e-9 total_s in
  let fp = Sim.footprint t in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  say "  %-14s %6.2f %5.2f %9.2f %9.2f %9.2f %7.1f %7.4f %10.1f %8.2f/s %8d\n" label churn byz
    create_s setup_s
    (total_s /. float_of_int qrounds)
    anon_mean ident_prob
    (float_of_int !dep_bytes /. 1e6)
    (goodput /. 1e6)
    (top_heap / (1024 * 1024));
  if gated then begin
    let held = Obj.reachable_words (Obj.repr t) * (Sys.word_size / 8) in
    gate "mixnet/sim_heap_mb" Gate.Lower (float_of_int held /. 1048576.);
    let per_round = good_bytes /. float_of_int qrounds in
    gate "mixnet/goodput_nominal_mbps" Gate.Higher (per_round /. Stats.median round_s /. 1e6);
    gate "mixnet/delivered" Gate.Exact (float_of_int !delivered)
  end;
  Obj
    [
      ("label", Str label);
      ("n", Int n);
      ("churn", Num churn);
      ("byz", Num byz);
      ("query_rounds", Int qrounds);
      ("create_seconds", Num create_s);
      ("setup_seconds", Num setup_s);
      ("cround_seconds", Num (total_s /. float_of_int (qrounds * cfg.Sim.hops + qrounds)));
      ("round_seconds", Num (total_s /. float_of_int qrounds));
      ("messages", Int !sent);
      ("delivered", Int !delivered);
      ("anonymity_mean", Num anon_mean);
      ("identification_probability", Num ident_prob);
      ("deposited_bytes", Int !dep_bytes);
      ("goodput_bytes_per_s", Num goodput);
      ("slot_capacity", Int fp.Sim.slot_capacity);
      ("arena_bytes", Int fp.Sim.arena_bytes);
      ("top_heap_bytes", Int top_heap);
    ]

let mixnet_section id cells =
  section id (fun () ->
      mixnet_header ();
      let cells = List.map (fun cell -> cell ()) cells in
      [ ("payload_bytes", Int (Bytes.length mixnet_payload)); ("cells", List cells) ])

(* The gated cell: every mailbox proof checked, a sampled closure. *)
let () =
  mixnet_section "mixnet"
    [
      mixnet_cell ~gated:true ~label:"n1500" ~n:1_500 ~degree:1 ~churn:0.01 ~byz:0.02 ~qrounds:15
        ~verify_every:1 ~anon_sample:13;
    ]

(* The churn x Byzantine sweep at n=10^4 (the Fig 7/8 axes), then the
   n=10^5 anchor (sampled verification and closure, two query rounds)
   and the 10^6 flagship, the paper's Fig 9 scale. *)
let () =
  mixnet_section "mixnet-scale"
    (List.concat_map
       (fun churn ->
         List.map
           (fun byz ->
             mixnet_cell ~gated:false
               ~label:(Printf.sprintf "n10k-c%g-b%g" churn byz)
               ~n:10_000 ~degree:2 ~churn ~byz ~qrounds:1 ~verify_every:1 ~anon_sample:0)
           [ 0.0; 0.02; 0.1 ])
       [ 0.0; 0.05 ]
    @ [
        mixnet_cell ~gated:false ~label:"n100k" ~n:100_000 ~degree:1 ~churn:0.01 ~byz:0.02
          ~qrounds:2 ~verify_every:101 ~anon_sample:13;
        mixnet_cell ~gated:false ~label:"n1000k" ~n:1_000_000 ~degree:1 ~churn:0.01 ~byz:0.02
          ~qrounds:2 ~verify_every:1009 ~anon_sample:101;
      ])

(* ------------------------------------------------------------------ *)
(* Lint: the full-repo static-analysis pass                            *)
(* ------------------------------------------------------------------ *)

(* Times the same walk `dune build @lint` runs — parse every .ml/.mli
   under lib/, bin/, bench/ and test/ of the build tree and check every
   rule — and one run of the analyzer, so the cost of the two checks
   is tracked alongside the code they check.  Nothing here is gated.
   The tree is the one this executable was built in
   (<build>/bench/main.exe), wherever dune put it and whatever the
   working directory; an executable outside a build tree skips the
   section. *)

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
           the scope `dune build @analyze` sweeps, run once.  Skipped
           when the tree holds no .cmt (`dune build @check` writes them
           for every directory). *)
        let module A = Mycelium_lint.Analyze in
        let built dirs =
          List.filter Sys.file_exists (List.map (Filename.concat root) dirs)
        in
        let aroots = built A.repo_roots and callers = built A.repo_callers in
        if aroots = [] || List.concat_map (fun r -> A.find_cmts r []) aroots = []
        then begin
          say "  (no .cmt build tree; analyzer run skipped)\n";
          syntactic @ [ ("analyze_skipped", Bool true) ]
        end
        else begin
          let t0 = Unix.gettimeofday () in
          let res = A.run ~source_root:root ~callers ~roots:aroots () in
          let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
          let s = res.A.stats in
          say "=== Analyze: interprocedural privacy flow ===\n";
          say "  %d modules, %d functions in %.1f ms\n" s.A.sa_modules s.A.sa_functions ms;
          say "  violations %d, suppressed %d\n"
            (List.length res.A.report.Lint.violations)
            (List.length res.A.report.Lint.suppressed);
          syntactic
          @ [
              ("analyze_modules", Int s.A.sa_modules);
              ("analyze_functions", Int s.A.sa_functions);
              ("analyze_ms", Num ms);
              ("analyze_violations", Int (List.length res.A.report.Lint.violations));
              ("analyze_suppressed", Int (List.length res.A.report.Lint.suppressed));
            ]
        end
      end)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

(* Each test is (name, gated cell, operation); a gated cell is the
   cell's name and the units one run processes (bytes, for the per-byte
   cells).  An estimate is the nominal median of five short Bechamel
   runs ([nominal_medians]). *)
let micro_tests () =
  let rng = Rng.create 42L in
  (* BGV at the medium test parameters: the per-operation costs behind
     §6.4 and Figure 9b. *)
  let ctx = Bgv.make_ctx Params.test_medium in
  let sk, pk = Bgv.keygen ctx rng in
  let ct_a = Bgv.encrypt_value ctx rng pk 1 in
  let ct_b = Bgv.encrypt_value ctx rng pk 2 in
  let prod = Bgv.mul ct_a ct_b in
  let rk = Bgv.relin_keygen ctx rng sk ~max_degree:2 in
  (* The committee's last decryption step reads an Eval-resident sum. *)
  let c0 = (Bgv.components prod).(0) in
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
  (* One query's device and committee work at the same parameters: a
     Q5 row built and checked, a batched decryption of four aggregates,
     one key hand-off. *)
  let comm, cpk, _, csrs =
    Committee.genesis ctx (Rng.create 43L) ~size:10 ~threshold:4 ~relin_degree:2
  in
  let info = Analysis.analyze_exn ~degree_bound:4 (Parser.parse_exn (Corpus.find "Q5").Corpus.sql) in
  let graph = bench_graph 4242L in
  let dest = Cg.vertex graph 0 and edge = Option.map snd (List.nth_opt (Cg.neighbors graph 0) 0) in
  let row = Contribution.build csrs ctx rng cpk info ~dest ~edge in
  let batch =
    List.init 4 (fun i ->
        ( { Committee.b_info = info; b_epsilon = 1.0; b_noise_rng = Rng.create (Int64.of_int i) },
          Bgv.encrypt_value ctx rng cpk 1 ))
  in
  (* The negacyclic product on the Montgomery kernels at N=1024 (the
     figure-scaling primitive) and N=256, beside the schoolbook product
     as an ablation. *)
  let module Mont_backend = Mycelium_math.Mont_backend in
  let ntt_multiply plan n a b () =
    let fa = Array.make n 0 and fb = Array.make n 0 in
    Mont_backend.forward_into plan ~src:a ~dst:fa;
    Mont_backend.forward_into plan ~src:b ~dst:fb;
    Mont_backend.pointwise_into plan ~dst:fa fa fb;
    Mont_backend.inverse plan fa
  in
  let p = List.hd (Ntt.find_primes ~degree:1024 ~bits:28 ~count:1) in
  let plan = Mont_backend.make_plan ~p ~degree:1024 in
  let poly_a = Array.init 1024 (fun i -> (i * 7) mod p) in
  let poly_b = Array.init 1024 (fun i -> (i * 13) mod p) in
  let p256 = List.hd (Ntt.find_primes ~degree:256 ~bits:28 ~count:1) in
  let small_plan = Mont_backend.make_plan ~p:p256 ~degree:256 in
  let small_a = Array.init 256 (fun i -> (i * 7) mod p256) in
  let small_b = Array.init 256 (fun i -> (i * 13) mod p256) in
  (* Crypto primitives behind the mixnet figures. *)
  let msg_4k = Bytes.create 4096 in
  let key32 = Rng.bytes rng 32 in
  let hop_keys = Array.init 3 (fun _ -> Rng.bytes rng 32) in
  let onion = Bytes.create 4096 in
  let eg_pk, eg_sk = Elgamal.generate rng in
  let eg_ct = Elgamal.encrypt rng eg_pk key32 in
  let leaves = Array.init 256 (fun i -> Bytes.of_string (string_of_int i)) in
  let tree = Merkle.build leaves in
  (* The key-sized ring element a committee rotation re-shares. *)
  let key_poly = Rq.random_uniform (Bgv.basis ctx) rng in
  let gated cell units = Some (cell, units) in
  [
    ("fig9b/bgv-add", None, fun () -> ignore (Bgv.add ct_a ct_b));
    ("sec6_4/bgv-encrypt", gated "bgv_encrypt_ns" 1., fun () -> ignore (Bgv.encrypt_value ctx rng pk 3));
    ( "sec6_4/rq-sample-cbd",
      None,
      fun () -> ignore (Rq.sample_cbd (Bgv.basis ctx) ~eta:(Bgv.params ctx).Params.error_eta rng) );
    ("sec6_4/bgv-mul", gated "bgv_mul_ns" 1., fun () -> ignore (Bgv.mul ct_a ct_b));
    ( "sec6_4/bgv-relinearize",
      gated "bgv_relinearize_ns" 1.,
      fun () -> ignore (Bgv.relinearize ctx rk prod) );
    ( "sec6_4/bgv-relin-keygen-d8",
      gated "bgv_relin_keygen_ns" 1.,
      fun () -> ignore (Bgv.relin_keygen ctx rng sk ~max_degree:8) );
    ("sec6_5/bgv-decode", gated "bgv_decode_ns" 1., fun () -> ignore (Bgv.decode_noisy ctx c0));
    ( "sec6_4/zkp-prove-contribution",
      None,
      fun () -> ignore (Zkp.prove_contribution srs ctx pk ~plaintext:pt ~seed:7L ct_proven) );
    ( "sec6_4/zkp-verify-contribution",
      None,
      fun () -> ignore (Zkp.verify_contribution srs ctx ct_proven proof) );
    ( "sec6_4/contribution-build",
      gated "contribution_build_ns" 1.,
      fun () -> ignore (Contribution.build csrs ctx rng cpk info ~dest ~edge) );
    ( "sec6_4/contribution-verify",
      gated "contribution_verify_ns" 1.,
      fun () -> ignore (Contribution.verify csrs ctx info row) );
    ( "sec6_5/committee-decrypt-batch4",
      gated "committee_decrypt_batch4_ns" 1.,
      fun () -> ignore (Committee.decrypt_batch comm rng ctx ~members:batch) );
    ( "sec6_5/committee-rotate",
      gated "committee_rotate_ns" 1.,
      fun () -> ignore (Committee.rotate comm rng ~population:16) );
    ("fig9b/bgv-serialize", None, fun () -> ignore (Bgv.serialize ct_a));
    ("ablation/ntt-mul-1024", None, ntt_multiply plan 1024 poly_a poly_b);
    ( "ablation/naive-mul-256",
      None,
      fun () -> ignore (Ntt.multiply_naive ~p:p256 small_a small_b) );
    ("ablation/ntt-mul-256", None, ntt_multiply small_plan 256 small_a small_b);
    ("fig5/sha256-4k", gated "sha256_ns_per_byte" 4096., fun () -> ignore (Sha256.digest msg_4k));
    ( "fig5/chacha20-4k",
      gated "chacha20_ns_per_byte" 4096.,
      fun () -> ignore (Chacha20.encrypt ~key:key32 ~nonce:(Chacha20.nonce_of_round 1) msg_4k) );
    ( "fig5/poly1305-4k",
      gated "poly1305_ns_per_byte" 4096.,
      fun () -> ignore (Poly1305.mac ~key:key32 msg_4k) );
    ("fig5/aead-seal-4k", None, fun () -> ignore (Aead.seal ~key:key32 ~round:1 msg_4k));
    ( "fig5/onion-wrap-3hops",
      None,
      fun () -> Onion.wrap_into ~hop_keys ~round:1 ~inner:msg_4k ~dst:onion ~dst_pos:0 );
    ( "fig5/onion-peel-4k",
      gated "onion_peel_4k_ns" 1.,
      fun () ->
        Onion.peel_into ~key:key32 ~round:1 ~src:msg_4k ~src_pos:0 ~dst:msg_4k ~dst_pos:0 4096 );
    ("fig5d/elgamal-encrypt", None, fun () -> ignore (Elgamal.encrypt rng eg_pk key32));
    ("fig5d/elgamal-decrypt", None, fun () -> ignore (Elgamal.decrypt eg_sk eg_ct));
    ("fig9a/merkle-build-256", None, fun () -> ignore (Merkle.build leaves));
    ("fig9a/merkle-prove", None, fun () -> ignore (Merkle.prove tree 17));
    ( "fig8/shamir-share-c10",
      None,
      fun () -> ignore (Shamir.share_rq rng ~threshold:4 ~parties:10 key_poly) );
  ]

let () =
  section "micro" (fun () ->
      let open Bechamel in
      let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
      let instance = Toolkit.Instance.monotonic_clock in
      let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.08) ~kde:None () in
      let tests = micro_tests () in
      (* One short Bechamel run of a test: its ns per call. *)
      let run (name, cell, f) () =
        (* A gated cell starts from a compacted heap, so its figure does
           not depend on what the cells before it left behind. *)
        if Option.is_some cell then Gc.compact ();
        let test = Test.make ~name (Staged.stage f) in
        match
          Option.bind
            (Hashtbl.find_opt (Analyze.all ols instance (Benchmark.all cfg [ instance ] test)) name)
            Analyze.OLS.estimates
        with
        | Some (est :: _) -> est
        | Some [] | None -> Float.nan
      in
      say "\n";
      say "=== Micro-benchmarks (Bechamel, nominal) ===\n";
      let estimates =
        List.filter_map
          (fun ((name, cell, _), est) ->
            if Float.is_nan est then begin
              say "  %-32s (no estimate)\n" name;
              None
            end
            else begin
              let pretty =
                if est > 1e9 then Printf.sprintf "%8.2f s " (est /. 1e9)
                else if est > 1e6 then Printf.sprintf "%8.2f ms" (est /. 1e6)
                else if est > 1e3 then Printf.sprintf "%8.2f us" (est /. 1e3)
                else Printf.sprintf "%8.0f ns" est
              in
              say "  %-32s %s\n" name pretty;
              Option.iter (fun (cell, units) -> gate ("micro/" ^ cell) Gate.Lower (est /. units)) cell;
              Some (name, Num est)
            end)
          (List.combine tests (nominal_medians (List.map run tests)))
      in
      [ ("estimates_ns", Obj estimates) ])

(* ------------------------------------------------------------------ *)
(* JSON document, then the --check gate (last: every section has run)  *)
(* ------------------------------------------------------------------ *)

let () =
  if json_mode then
    print_endline
      (Json.to_string
         (Obj
            [
              ("schema", Str "mycelium-bench/1");
              ("cores", Int (Domain.recommended_domain_count ()));
              ("ocaml", Str Sys.ocaml_version);
              ("sections", Obj (List.rev !json_sections));
              ("cells", Obj (List.rev_map (fun c -> (c.Gate.name, Num c.Gate.value)) !cells));
            ]))

let () =
  if check_mode then begin
    let baseline =
      match Json.parse Baseline.text with
      | Ok doc -> doc
      | Error e ->
        prerr_endline ("check: bench/baseline.json does not parse: " ^ e);
        exit 1
    in
    let recorded key =
      match Json.member key baseline with
      | Some (Int n) -> string_of_int n
      | Some (Str s) -> s
      | _ -> "?"
    in
    say "\ncheck: baseline recorded on %s cores, OCaml %s; this host %d cores, OCaml %s\n"
      (recorded "cores") (recorded "ocaml") (Domain.recommended_domain_count ()) Sys.ocaml_version;
    match Gate.check ~baseline:(Gate.baseline_cells baseline) ~selected:wants (List.rev !cells) with
    | [] ->
      prerr_endline "check: the selected sections gate no cell";
      exit 1
    | results ->
      List.iter
        (function
          | Ok m -> say "check: %s ok\n" m
          | Error m -> prerr_endline ("check: FAIL " ^ m))
        results;
      if List.exists Result.is_error results then exit 1
  end
