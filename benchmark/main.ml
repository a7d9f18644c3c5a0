(* The end-to-end benchmark (README.md in this directory).

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>
     main.exe --selftest

   A timed run (--trace 0) runs a closed loop through the public entry
   points (Runtime.run_query or Serve.submit) for --seconds, in segments
   each opened by a fresh bring-up of the workload's system, and reports
   latency, throughput, the median bring-up as setup_s, and peak
   memory.  A traced run (--trace 1) replays a sample of the requests
   through the public layer functions with a span around each call and
   reports the per-layer table.  Every release is checked against the
   plaintext oracle; the last line of stdout is the result object. *)

module Rng = Mycelium_util.Rng
module Stats = Mycelium_util.Stats
module Pool = Mycelium_parallel.Pool
module Rns = Mycelium_math.Rns
module Bgv = Mycelium_bgv.Bgv
module Ast = Mycelium_query.Ast
module Analysis = Mycelium_query.Analysis
module Semantics = Mycelium_query.Semantics
module Runtime = Mycelium_core.Runtime
module Serve = Mycelium_serve.Serve
module Obs = Mycelium_obs.Obs
module Json = Obs.Json

let now = Unix.gettimeofday

(* Every metric the benchmark prints, by name and unit; BENCHMARK.json
   declares the same lists (the self-test holds them equal). *)
let end_to_end =
  [
    ("latency_p50_s", "s");
    ("latency_tail_s", "s");
    ("throughput_qps", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

(* Per request unless the unit says otherwise; times are self times. *)
let per_layer =
  [
    ("query.parse_s", "s");
    ("query.validate_s", "s");
    ("serve.admit_s", "s");
    ("serve.queue_wait_s", "s");
    ("serve.flush_s", "s/batch");
    ("serve.batch_members", "count/batch");
    ("serve.cache_lookups", "count");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.cache_evictions", "count");
    ("contribution.build_s", "s");
    ("contribution.build_calls", "count");
    ("contribution.verify_s", "s");
    ("contribution.verify_calls", "count");
    ("contribution.wire_bytes", "B");
    ("contribution.discarded", "count");
    ("contribution.aggregate_origin_s", "s");
    ("contribution.aggregate_origin_calls", "count");
    ("contribution.aggregate_subtree_s", "s");
    ("contribution.aggregate_subtree_calls", "count");
    ("summation_tree.build_s", "s");
    ("summation_tree.leaves", "count");
    ("summation_tree.audit_s", "s");
    ("bgv.relinearize_s", "s");
    ("bgv.encrypts", "count");
    ("bgv.ciphertext_muls", "count");
    ("bgv.relinearizations", "count");
    ("rq.limb_transforms", "count");
    ("rq.limb_ntt_muls", "count");
    ("committee.decrypt_s", "s");
    ("committee.decrypt_batch_s", "s");
    ("committee.rotate_s", "s");
    ("committee.shares_used", "count");
    ("mixnet.setup_paths_s", "s/run");
    ("mixnet.round_s", "s");
    ("mixnet.deposited_bytes", "B");
    ("mixnet.losses", "count");
    ("onion.layers_peeled", "count");
    ("mixnet.dummies_uploaded", "count");
    ("mixnet_bytes_per_query", "B");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_words", "words");
    ("gc.top_heap_mb", "MB");
    ("unattributed_s", "s");
    ("trace.overhead_s", "s");
  ]

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type outcome = {
  req : Workload.request;
  latency : float;  (** from the client's call to the return of the call that hands back the release *)
  result : (Runtime.query_result, string) result;
}

(* One round of the closed loop: one request on direct-mixed, one batch
   (every client submits once) on the serve workloads. *)
type round = {
  outcomes : outcome list;
  busy_s : float;  (** summed duration of the entry-point calls *)
  admits : float list;  (** submit calls that flushed nothing *)
  flushes : float list;  (** calls that ran a batch *)
  waits : float list;  (** per member: end of its submit to the start of the flushing call *)
}

let error_string e = Serve.rejection_to_string (Serve.Invalid e)

let direct_round (sys : Workload.system) stream =
  let req = Workload.next stream in
  let t0 = now () in
  let res = Runtime.run_query ~epsilon:req.Workload.epsilon sys.Workload.rt req.Workload.sql in
  let dt = now () -. t0 in
  {
    outcomes = [ { req; latency = dt; result = Result.map_error error_string res } ];
    busy_s = dt;
    admits = [];
    flushes = [];
    waits = [];
  }

let serve_round (sys : Workload.system) srv stream =
  let queued = Hashtbl.create 8 in
  let outcomes = ref [] and busy = ref 0. and admits = ref [] and flushes = ref [] and waits = ref [] in
  let call f =
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    busy := !busy +. (t1 -. t0);
    (t0, t1, r)
  in
  let collect t0 t1 responses =
    flushes := (t1 -. t0) :: !flushes;
    List.iter
      (fun (resp : Serve.response) ->
        let req, started, submitted = Hashtbl.find queued resp.Serve.seq in
        waits := Float.max 0. (t0 -. submitted) :: !waits;
        outcomes :=
          { req; latency = t1 -. started; result = Result.map_error error_string resp.Serve.outcome }
          :: !outcomes)
      responses
  in
  for client = 0 to (Workload.settings sys.Workload.kind).Workload.clients - 1 do
    let req = Workload.next stream in
    let t0, t1, (admission, flushed) = call (fun () -> Workload.submit sys srv ~client req) in
    (match admission with
    | Serve.Queued seq -> Hashtbl.replace queued seq (req, t0, t1)
    | Serve.Rejected e ->
      outcomes := { req; latency = t1 -. t0; result = Error (Serve.rejection_to_string e) } :: !outcomes);
    match flushed with [] -> admits := (t1 -. t0) :: !admits | _ :: _ -> collect t0 t1 flushed
  done;
  if Serve.pending_count srv > 0 then begin
    let t0, t1, flushed = call (fun () -> Serve.drain srv) in
    collect t0 t1 flushed
  end;
  { outcomes = List.rev !outcomes; busy_s = !busy; admits = !admits; flushes = !flushes; waits = !waits }

let run_round (sys : Workload.system) stream =
  match sys.Workload.srv with None -> direct_round sys stream | Some srv -> serve_round sys srv stream

let released r = List.filter_map (fun o -> Result.to_option o.result) r.outcomes
let request_count rounds = List.fold_left (fun acc r -> acc + List.length r.outcomes) 0 rounds

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let oracle_bins = Hashtbl.create 16

let oracle rt sql info =
  match Hashtbl.find_opt oracle_bins sql with
  | Some bins -> bins
  | None ->
    let bins = Array.map float_of_int (Runtime.exact_bins_for_tests rt info) in
    Hashtbl.replace oracle_bins sql bins;
    bins

(* [None] when the release is right.  Exact probes must equal the
   oracle; a finite-epsilon release must lie within 50 Laplace scales
   of it in every bin (each draw lands outside with probability e^-50). *)
let check rt o =
  match o.result with
  | Error e -> Some e
  | Ok r -> (
    let info = r.Runtime.info in
    let exact = oracle rt o.req.Workload.sql info in
    let bound = 50. *. info.Analysis.sensitivity /. o.req.Workload.epsilon in
    let within a b = Float.abs (a -. b) <= bound in
    if r.Runtime.discarded_contributions > 0 || r.Runtime.mixnet_losses > 0 then
      Some "rows were discarded or lost"
    else if Array.length r.Runtime.noisy_bins <> Array.length exact then Some "wrong bin count"
    else
      match info.Analysis.query.Ast.output with
      | Ast.Histo _ ->
        if Array.for_all2 within r.Runtime.noisy_bins exact then None
        else Some "histogram bins off the oracle"
      | Ast.Gsum _ -> (
        match (r.Runtime.result, Semantics.decode info exact) with
        | Semantics.Sums noised, Semantics.Sums sums
          when Array.for_all2 Float.equal r.Runtime.noisy_bins exact
               && Array.length noised = Array.length sums ->
          if Array.for_all2 (fun (_, a) (_, b) -> within a b) noised sums then None
          else Some "group sums off the oracle"
        | _ -> Some "GSUM release does not match the oracle's bins"))

let failures rt outcomes =
  List.filter_map
    (fun o ->
      Option.map
        (fun why -> Printf.sprintf "%s (epsilon %g): %s" o.req.Workload.name o.req.Workload.epsilon why)
        (check rt o))
    outcomes

let warm_outcomes warm =
  List.map
    (fun (req, res) -> { req; latency = 0.; result = Result.map_error error_string res })
    warm

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(* The highest percentile with at least ten samples beyond it: the
   eleventh-largest sample (the largest when there are fewer).  Its
   percentile moves smoothly with the sample count, so a run a little
   shorter or slower never jumps to a lower rung.  Returns (value,
   percentile, samples beyond). *)
let tail samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let i = max 0 (n - 11) in
  let beyond = n - 1 - i in
  (sorted.(i), 100. *. float_of_int (n - beyond) /. float_of_int n, beyond)

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

let with_units table values = List.map (fun (name, unit) -> (name, unit, List.assoc name values)) table

let provenance kind ~seed extra =
  let st = Workload.settings kind in
  Json.Obj
    ([
       ("workload", Json.Str (Workload.name kind));
       ("seed", Json.Int seed);
       ("nproc", Json.Int (Host.nproc ()));
       ("domains", Json.Int (Pool.current_domains ()));
       ("ocaml", Json.Str Sys.ocaml_version);
       ("ring_backend", Json.Str (Rns.backend_name (Bgv.basis (Bgv.make_ctx st.Workload.params))));
     ]
    @ extra)

let probe_json (alu, mem) = Json.Obj [ ("alu_ns_per_iter", Json.Num alu); ("memory_ns_per_step", Json.Num mem) ]

(* ------------------------------------------------------------------ *)
(* Timed run                                                           *)
(* ------------------------------------------------------------------ *)

(* The timed phase is split into segments, each opened by a fresh,
   identical bring-up that then serves it.  setup_s is the median of
   those bring-ups: spread across the whole run like the loop itself,
   set-up never rests on one short interval of a contended host (the
   first bring-up in a process is also the slow one).

   Every time the run reports is in nominal seconds: the wall seconds of
   a bring-up, or of a chunk of rounds, scaled by the host-speed factor
   of the reference samples taken right before and after it (Calib).
   The wall-clock figures are printed beside them. *)
let segments = 5

(* Rounds run between two host-speed samples: at least one, and as many
   as fill a quarter of a second, so the samples stay a few percent of
   the loop on serve-warm's short batches too. *)
let chunk_s = 0.25

let run_chunk sys stream =
  let t0 = now () in
  let rec go acc =
    let acc = run_round sys stream :: acc in
    if now () -. t0 < chunk_s then go acc else List.rev acc
  in
  go []

let timed_run kind ~seed ~seconds ~quick =
  let probe_before = Host.probe () in
  let segments = if quick then 1 else segments in
  let reference = (Workload.settings kind).Workload.reference in
  let stream = Workload.stream kind ~seed in
  (* Each round is checked and folded as soon as it completes: the run
     keeps numbers, not releases, so memory never grows with speed. *)
  let bad = ref [] and setups = ref [] and wall_setups = ref [] and warm_requests = ref 0 in
  let wall = ref 0. and busy = ref 0. and wall_busy = ref 0. and speeds = ref [] in
  let requests = ref 0 and latencies = ref [] and wall_latencies = ref [] in
  let tail_samples = ref [] and wall_tail_samples = ref [] in
  let mixnet_bytes = ref 0 in
  for _ = 1 to segments do
    Gc.compact ();
    let (setup, (sys, warm)), speed =
      Calib.around reference (fun () ->
          let t0 = now () in
          let r = Workload.bring_up kind ~seed in
          (now () -. t0, r))
    in
    setups := (setup *. speed) :: !setups;
    wall_setups := setup :: !wall_setups;
    warm_requests := !warm_requests + List.length warm;
    bad := List.rev_append (failures sys.Workload.rt (warm_outcomes warm)) !bad;
    Gc.compact ();
    let t_start = now () in
    while now () -. t_start < seconds /. float_of_int segments do
      let rounds, speed = Calib.around reference (fun () -> run_chunk sys stream) in
      speeds := speed :: !speeds;
      List.iter
        (fun round ->
          busy := !busy +. (round.busy_s *. speed);
          wall_busy := !wall_busy +. round.busy_s;
          requests := !requests + List.length round.outcomes;
          bad := List.rev_append (failures sys.Workload.rt round.outcomes) !bad;
          let released =
            List.filter_map
              (fun o ->
                Result.to_option o.result
                |> Option.map (fun q ->
                       mixnet_bytes := !mixnet_bytes + q.Runtime.mixnet_bytes;
                       o.latency))
              round.outcomes
          in
          wall_latencies := List.rev_append released !wall_latencies;
          (* The members of one batch finish together: one tail sample each. *)
          if released <> [] then begin
            let slowest = List.fold_left Float.max 0. released in
            wall_tail_samples := slowest :: !wall_tail_samples;
            tail_samples := (slowest *. speed) :: !tail_samples
          end;
          latencies := List.rev_append (List.map (fun l -> l *. speed) released) !latencies)
        rounds
    done;
    wall := !wall +. (now () -. t_start)
  done;
  let wall = !wall and busy = !busy and wall_busy = !wall_busy in
  let rss = Host.peak_rss_mb () in
  let bad = List.rev !bad and latencies = Array.of_list !latencies in
  let wall_latencies = Array.of_list !wall_latencies in
  let tail_samples = Array.of_list !tail_samples and wall_tail_samples = Array.of_list !wall_tail_samples in
  let probe_after = Host.probe () in
  if Array.length latencies = 0 then failwith "benchmark: no request was released";
  let tail_s, tail_p, tail_beyond = tail tail_samples in
  let wall_tail_s, _, _ = tail wall_tail_samples in
  let setups = Array.of_list (List.rev !setups) and wall_setups = Array.of_list (List.rev !wall_setups) in
  let speed = Stats.median (Array.of_list !speeds) in
  let released = Array.length latencies in
  let mixnet_bytes = float_of_int !mixnet_bytes /. float_of_int released in
  let values =
    [
      ("latency_p50_s", Stats.median latencies);
      ("latency_tail_s", tail_s);
      ("throughput_qps", float_of_int released /. busy);
      ("setup_s", Stats.median setups);
      ("peak_rss_mb", rss);
    ]
  in
  let wall_values =
    [
      ("latency_p50_s", Stats.median wall_latencies);
      ("latency_tail_s", wall_tail_s);
      ("throughput_qps", float_of_int released /. wall_busy);
      ("setup_s", Stats.median wall_setups);
    ]
  in
  let notes =
    [
      ("latency_p50_s", Printf.sprintf "median of %d requests" released);
      ( "latency_tail_s",
        Printf.sprintf "p%.2f of %d %s, %d samples beyond" tail_p (Array.length tail_samples)
          (if kind = Workload.Direct_mixed then "requests" else "batches")
          tail_beyond );
      ("throughput_qps", Printf.sprintf "%d released in %.3f s of calls" released busy);
      ( "setup_s",
        Printf.sprintf "median of %d bring-ups: %s" segments
          (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setups))) );
      ("peak_rss_mb", "VmHWM");
    ]
  in
  List.iter (fun why -> Printf.printf "FAILED %s\n" why) bad;
  Printf.printf "times in nominal seconds; host speed factor %.4f (median over chunks); %.3f s wall\n" speed wall;
  List.iter
    (fun (name, unit) ->
      let wall = match List.assoc_opt name wall_values with Some w -> Printf.sprintf "%.6f wall" w | None -> "" in
      Printf.printf "%-16s %14.6f %-4s %-14s (%s)\n" name (List.assoc name values) unit wall (List.assoc name notes))
    end_to_end;
  Printf.printf "%-16s %14.6f %-4s %.6f wall (diagnostic)\n" "latency_mean_s" (Stats.mean latencies) "s"
    (Stats.mean wall_latencies);
  Printf.printf "%-16s %14.1f %-4s (mean per release; per-layer metric)\n" "mixnet_bytes/q" mixnet_bytes "B";
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ( "provenance",
              provenance kind ~seed
                ([
                   ("requests", Json.Int !requests);
                   ("released", Json.Int released);
                   ("timed_wall_s", Json.Num wall);
                   ("benchmark_own_s", Json.Num (wall -. wall_busy));
                   ("host_speed", Json.Num speed);
                   ("latency_mean_s", Json.Num (Stats.mean latencies));
                   ("wall_latency_mean_s", Json.Num (Stats.mean wall_latencies));
                   ("tail_percentile", Json.Num tail_p);
                   ("tail_samples", Json.Int (Array.length tail_samples));
                   ("tail_samples_beyond", Json.Int tail_beyond);
                   ("bring_ups", Json.Int segments);
                   ("mixnet_bytes_per_query", Json.Num mixnet_bytes);
                 ]
                @ List.map (fun (name, v) -> ("wall_" ^ name, Json.Num v)) wall_values) );
            ("host_probe", Json.Obj [ ("before", probe_json probe_before); ("after", probe_json probe_after) ]);
          ]));
  let failed = List.length bad in
  print_result ~correct:(failed = 0) ~attempted:(!warm_requests + !requests) ~failed
    (with_units end_to_end values);
  failed

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* (untraced rounds, traced rounds, replayed rounds) *)
let traced_sizes kind ~quick =
  match (kind, quick) with
  | Workload.Direct_mixed, false -> (5, 5, 2)
  | Workload.Direct_mixed, true -> (2, 2, 1)
  | Workload.Serve_mixnet, false -> (2, 2, 1)
  | Workload.Serve_mixnet, true -> (1, 1, 1)
  | Workload.Serve_warm, false -> (40, 40, 10)
  | Workload.Serve_warm, true -> (5, 5, 2)

let mixnet_metrics =
  [
    "mixnet.setup_paths_s";
    "mixnet.round_s";
    "mixnet.deposited_bytes";
    "mixnet.losses";
    "onion.layers_peeled";
    "mixnet.dummies_uploaded";
    "mixnet_bytes_per_query";
  ]

(* The bypass predictions: which layers a workload must never touch. *)
let prediction_failures kind value =
  let must name ok why = if ok then [] else [ Printf.sprintf "%s = %g: %s" name (value name) why ] in
  let no_mixnet () = List.concat_map (fun n -> must n (value n = 0.) "the abstract channel bypasses the mixnet") mixnet_metrics in
  match kind with
  | Workload.Direct_mixed -> no_mixnet ()
  | Workload.Serve_warm ->
    no_mixnet ()
    @ must "contribution.build_calls" (value "contribution.build_calls" = 0.) "cache hits build nothing"
    @ must "bgv.encrypts" (value "bgv.encrypts" = 0.) "cache hits encrypt nothing"
    @ must "serve.cache_hit_ratio" (value "serve.cache_hit_ratio" = 1.) "every request hits"
  | Workload.Serve_mixnet ->
    must "serve.cache_hit_ratio" (value "serve.cache_hit_ratio" = 0.) "every request misses"
    @ must "mixnet.deposited_bytes" (value "mixnet.deposited_bytes" > 0.) "rows travel the mixnet"

let traced_run kind ~seed ~quick =
  let probe_before = Host.probe () in
  let sys, warm = Workload.bring_up kind ~seed in
  let stream = Workload.stream kind ~seed in
  let n_plain, n_traced, n_replayed = traced_sizes kind ~quick in
  Gc.compact ();
  let plain = List.init n_plain (fun _ -> run_round sys stream) in
  Obs.enable ();
  Obs.reset ();
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let traced = List.init n_traced (fun _ -> run_round sys stream) in
  let g1 = Gc.quick_stat () in
  let counters =
    List.map
      (fun name -> (name, float_of_int (Obs.Metrics.value (Obs.Metrics.counter name))))
      Obs.Names.
        [
          bgv_encrypts;
          bgv_ciphertext_muls;
          bgv_relinearizations;
          rq_limb_transforms;
          rq_limb_ntt_muls;
          mixnet_deposited_bytes;
          onion_layers_peeled;
          mixnet_dummies_uploaded;
          serve_batches;
          serve_batch_members;
          serve_cache_hits;
          serve_cache_misses;
          serve_cache_evictions;
        ]
  in
  let counter name = List.assoc name counters in
  (* Replay a seeded sample of the traced rounds on the benchmark's own
     fixture. *)
  let fx = Replay.create sys.Workload.rt ~seed in
  if kind = Workload.Serve_warm then Replay.prime fx (Workload.warm_up_requests kind);
  Replay.reset_counts fx;
  Spans.reset ();
  let traced_arr = Array.of_list traced in
  let sample =
    Rng.sample_without_replacement
      (Rng.create (Rng.mix64 (Int64.of_int seed) 0x73616d706c65L))
      n_replayed (Array.length traced_arr)
  in
  Array.sort Int.compare sample;
  let real_s = ref 0. and replayed = ref 0 in
  Array.iter
    (fun i ->
      let round = traced_arr.(i) in
      let reqs = List.map (fun o -> o.req) round.outcomes in
      (match kind with
      | Workload.Direct_mixed -> List.iter (Replay.direct fx) reqs
      | Workload.Serve_mixnet -> Replay.mixnet_batch fx reqs
      | Workload.Serve_warm -> Replay.warm_batch fx reqs);
      real_s := !real_s +. round.busy_s;
      replayed := !replayed + List.length reqs)
    sample;
  let replay_s = Spans.total_s () in
  Obs.disable ();
  let probe_after = Host.probe () in
  let per base x = if base = 0. then 0. else x /. base in
  let requests = float_of_int (request_count traced) in
  let per_request = per requests in
  let replayed = float_of_int !replayed in
  let layer_s name = per replayed (Spans.self_s name) in
  let layer_calls name = per replayed (float_of_int (Spans.calls name)) in
  let mean l = if l = [] then 0. else Stats.mean (Array.of_list l) in
  let lookups = counter Obs.Names.serve_cache_hits +. counter Obs.Names.serve_cache_misses in
  let results = List.concat_map released traced in
  let sum_over f = List.fold_left (fun acc r -> acc +. float_of_int (f r)) 0. results in
  let busy rounds = List.fold_left (fun acc r -> acc +. r.busy_s) 0. rounds in
  let gc_delta f = per_request (f g1 -. f g0) in
  let values =
    [
      ("query.parse_s", layer_s "query.parse");
      ("query.validate_s", layer_s "query.validate");
      ("serve.admit_s", mean (List.concat_map (fun r -> r.admits) traced));
      ("serve.queue_wait_s", mean (List.concat_map (fun r -> r.waits) traced));
      ("serve.flush_s", mean (List.concat_map (fun r -> r.flushes) traced));
      ("serve.batch_members", per (counter Obs.Names.serve_batches) (counter Obs.Names.serve_batch_members));
      ("serve.cache_lookups", per_request lookups);
      ("serve.cache_hit_ratio", per lookups (counter Obs.Names.serve_cache_hits));
      ("serve.cache_evictions", per_request (counter Obs.Names.serve_cache_evictions));
      ("contribution.build_s", layer_s "contribution.build");
      ("contribution.build_calls", layer_calls "contribution.build");
      ("contribution.verify_s", layer_s "contribution.verify");
      ("contribution.verify_calls", layer_calls "contribution.verify");
      ("contribution.wire_bytes", per replayed (float_of_int fx.Replay.wire_bytes));
      ("contribution.discarded", per replayed (float_of_int fx.Replay.discarded));
      ("contribution.aggregate_origin_s", layer_s "contribution.aggregate_origin");
      ("contribution.aggregate_origin_calls", layer_calls "contribution.aggregate_origin");
      ("contribution.aggregate_subtree_s", layer_s "contribution.aggregate_subtree");
      ("contribution.aggregate_subtree_calls", layer_calls "contribution.aggregate_subtree");
      ("summation_tree.build_s", layer_s "summation_tree.build");
      ("summation_tree.leaves", per replayed (float_of_int fx.Replay.leaves));
      ("summation_tree.audit_s", layer_s "summation_tree.audit");
      ("bgv.relinearize_s", layer_s "bgv.relinearize");
      ("bgv.encrypts", per_request (counter Obs.Names.bgv_encrypts));
      ("bgv.ciphertext_muls", per_request (counter Obs.Names.bgv_ciphertext_muls));
      ("bgv.relinearizations", per_request (counter Obs.Names.bgv_relinearizations));
      ("rq.limb_transforms", per_request (counter Obs.Names.rq_limb_transforms));
      ("rq.limb_ntt_muls", per_request (counter Obs.Names.rq_limb_ntt_muls));
      ("committee.decrypt_s", layer_s "committee.decrypt");
      ("committee.decrypt_batch_s", layer_s "committee.decrypt_batch");
      ("committee.rotate_s", layer_s "committee.rotate");
      ("committee.shares_used", per (float_of_int fx.Replay.releases) (float_of_int fx.Replay.shares));
      ("mixnet.setup_paths_s", fx.Replay.setup_paths_s);
      ("mixnet.round_s", layer_s "mixnet.round");
      ("mixnet.deposited_bytes", per_request (counter Obs.Names.mixnet_deposited_bytes));
      ("mixnet.losses", per_request (sum_over (fun r -> r.Runtime.mixnet_losses)));
      ("onion.layers_peeled", per_request (counter Obs.Names.onion_layers_peeled));
      ("mixnet.dummies_uploaded", per_request (counter Obs.Names.mixnet_dummies_uploaded));
      ("mixnet_bytes_per_query", per (float_of_int (List.length results)) (sum_over (fun r -> r.Runtime.mixnet_bytes)));
      ("gc.minor_collections", gc_delta (fun s -> float_of_int s.Gc.minor_collections));
      ("gc.major_collections", gc_delta (fun s -> float_of_int s.Gc.major_collections));
      ("gc.promoted_words", gc_delta (fun s -> s.Gc.promoted_words));
      ("gc.top_heap_mb", float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
      ("unattributed_s", per replayed (!real_s -. replay_s));
      ( "trace.overhead_s",
        per_request (busy traced) -. per (float_of_int (request_count plain)) (busy plain) );
    ]
  in
  let bad =
    failures sys.Workload.rt
      (warm_outcomes warm @ List.concat_map (fun r -> r.outcomes) (plain @ traced))
    @ (if fx.Replay.mismatches > 0 then [ "the replay's exact release differs from the oracle" ] else [])
    @ prediction_failures kind (fun name -> List.assoc name values)
  in
  List.iter (fun why -> Printf.printf "FAILED %s\n" why) bad;
  Printf.printf "per-layer table (%s; %d traced requests, %.0f replayed)\n" (Workload.name kind)
    (int_of_float requests) replayed;
  List.iter
    (fun (name, unit) -> Printf.printf "  %-38s %16.9g %s\n" name (List.assoc name values) unit)
    per_layer;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ( "provenance",
              provenance kind ~seed
                [
                  ("untraced_requests", Json.Int (request_count plain));
                  ("traced_requests", Json.Int (int_of_float requests));
                  ("replayed_requests", Json.Int (int_of_float replayed));
                ] );
            ("host_probe", Json.Obj [ ("before", probe_json probe_before); ("after", probe_json probe_after) ]);
          ]));
  let failed = List.length bad in
  print_result ~correct:(failed = 0)
    ~attempted:(List.length warm + request_count plain + request_count traced + int_of_float replayed)
    ~failed (with_units per_layer values);
  failed

(* ------------------------------------------------------------------ *)
(* Self-test                                                           *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let declared key =
  match Json.parse (read_file "BENCHMARK.json") with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok doc -> (
    match Json.member key doc with
    | Some (Json.List ms) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.Str n), Some (Json.Str u) -> (n, u)
          | _ -> failwith ("BENCHMARK.json: malformed " ^ key))
        ms
    | _ -> failwith ("BENCHMARK.json: no " ^ key))

(* Run this executable on one workload at reduced size; the exit status
   and the parsed last line of its output. *)
let run_child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec last acc = match input_line ic with l -> last (Some l) | exception End_of_file -> acc in
  let line = last None in
  let status = Unix.close_process_in ic in
  (status, Option.bind line (fun l -> Result.to_option (Json.parse l)))

let selftest () =
  let failed = ref 0 in
  let expect what ok =
    Printf.printf "selftest: %s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failed
  in
  let sort = List.sort compare in
  expect "BENCHMARK.json declares the end-to-end metrics printed" (sort (declared "end_to_end") = sort end_to_end);
  expect "BENCHMARK.json declares the per-layer metrics printed" (sort (declared "per_layer") = sort per_layer);
  List.iter
    (fun (name, kind) ->
      let take seed =
        let s = Workload.stream kind ~seed in
        List.init 24 (fun _ -> Workload.next s)
      in
      expect (name ^ ": the same seed gives the same requests") (take 1 = take 1);
      expect (name ^ ": another seed gives other requests") (take 1 <> take 2))
    Workload.all;
  List.iter
    (fun (name, kind) ->
      List.iter
        (fun (trace, table) ->
          let what = Printf.sprintf "%s --trace %s" name trace in
          let status, result =
            run_child [ "--workload"; name; "--seed"; "7"; "--seconds"; "3"; "--trace"; trace; "--quick" ]
          in
          expect (what ^ " exits 0") (status = Unix.WEXITED 0);
          match result with
          | None -> expect (what ^ " prints a result object") false
          | Some r ->
            let field k = Json.member k r in
            expect (what ^ " is correct with no failed operation")
              (field "correct" = Some (Json.Bool true) && field "failed" = Some (Json.Int 0));
            let metrics = Option.value (field "metrics") ~default:(Json.Obj []) in
            let value m =
              match Option.bind (Json.member m metrics) (Json.member "value") with
              | Some (Json.Num v) -> v
              | Some (Json.Int v) -> float_of_int v
              | _ -> Float.nan
            in
            List.iter
              (fun (m, unit) ->
                expect
                  (Printf.sprintf "%s prints %s in %s" what m unit)
                  (Option.bind (Json.member m metrics) (Json.member "unit") = Some (Json.Str unit)
                  && Float.is_finite (value m)))
              table;
            if trace = "1" then
              List.iter (fun why -> expect (what ^ " bypass prediction: " ^ why) false)
                (prediction_failures kind value))
        [ ("0", end_to_end); ("1", per_layer) ])
    Workload.all;
  !failed

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

(* Settings that would change what a timed run measures. *)
let guarded_env =
  [
    "MYCELIUM_DOMAINS";
    "MYCELIUM_TRACE";
    "MYCELIUM_LEDGER";
    "MYCELIUM_RECORDER";
    "MYCELIUM_SAMPLE_MS";
    "MYCELIUM_RING_BACKEND";
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let quick = ref false and self = ref false and probe = ref false in
  let usage =
    "main.exe --workload <" ^ String.concat "|" (List.map fst Workload.all)
    ^ "> --seed <n> --seconds <s> --trace <0|1> [--quick]\nmain.exe --selftest"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload to run");
      ("--seed", Arg.Set_int seed, " seed of the requests, keys and noise");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 1: traced run with the per-layer table");
      ("--quick", Arg.Set quick, " reduced size (the self-test's runs)");
      ("--selftest", Arg.Set self, " run the benchmark's own checks");
      ("--probe", Arg.Set probe, " print the host-speed probe and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.filter (fun v -> Option.is_some (Sys.getenv_opt v)) guarded_env with
  | _ :: _ as set ->
    Printf.eprintf "benchmark: refusing to run with %s set\n" (String.concat ", " set);
    exit 2
  | [] ->
    if !probe then begin
      Host.print_probe ();
      exit 0
    end;
    if !self then exit (if selftest () = 0 then 0 else 1);
    let kind =
      match List.assoc_opt !workload Workload.all with
      | Some k -> k
      | None ->
        prerr_endline usage;
        exit 2
    in
    let failed =
      if !trace = 1 then traced_run kind ~seed:!seed ~quick:!quick
      else timed_run kind ~seed:!seed ~seconds:!seconds ~quick:!quick
    in
    exit (if failed = 0 then 0 else 1)
