(* Serving-layer suite (DESIGN.md §14): the admission accountant under
   concurrent submitters, the encrypted-aggregate cache's hit ≡ miss
   byte-identity, and the acceptance cell of the batching design —
   a workload released through batch-3 serving at 8 domains with
   tracing on is byte-identical, per member, to the same workload
   released one query at a time, with faults injected. *)

module Rng = Mycelium_util.Rng
module Dp = Mycelium_dp.Dp
module Cg = Mycelium_graph.Contact_graph
module Epidemic = Mycelium_graph.Epidemic
module Corpus = Mycelium_query.Corpus
module Analysis = Mycelium_query.Analysis
module Params = Mycelium_bgv.Params
module Runtime = Mycelium_core.Runtime
module Sim = Mycelium_mixnet.Sim
module Fault_plan = Mycelium_faults.Fault_plan
module Injector = Mycelium_faults.Injector
module Pool = Mycelium_parallel.Pool
module Obs = Mycelium_obs.Obs
module Serve = Mycelium_serve.Serve
module Accountant = Mycelium_serve.Accountant
module Agg_cache = Mycelium_serve.Agg_cache

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let small_graph ?(n = 16) ?(d = 4) ?(seed = 4242L) () =
  let rng = Rng.create seed in
  let g =
    Cg.generate
      { Cg.default_config with Cg.population = n; degree_bound = d; extra_contact_rate = 1.5 }
      rng
  in
  let (_ : Epidemic.outcome) = Epidemic.run Epidemic.default_config rng g in
  g

(* The acceptance fixture: fast BGV parameters, faults on (transit
   drops, device churn, one crashed committee member), every 1-hop
   contribution routed through the mixnet. The mixnet's own churn and
   malicious-node knobs stay off: those losses are physical per-round
   events, while the injected fault plan is applied at each member's
   logical fault coordinate — the determinism contract batching relies
   on (DESIGN.md §14). *)
let mix_cfg =
  {
    Sim.default_config with
    Sim.hops = 2;
    replicas = 2;
    fraction = 0.4;
    fast_setup = true;
    verify_every = 0;
  }

let serve_runtime ?ledger ?(faults = true) () =
  let plan =
    Fault_plan.make ~drop_rate:0.2 ~churn_rate:0.1 ~crashed_committee:[ 2 ] ~seed:7L ()
  in
  let cfg =
    {
      Runtime.default_config with
      Runtime.params = Params.test_small;
      degree_bound = 4;
      faults = (if faults then Some plan else None);
      route_through_mixnet = Some mix_cfg;
      ledger;
    }
  in
  Runtime.init cfg (small_graph ())

(* A mixed six-query workload: three distinct shapes (Q5 histogram with
   group-by, Q4 filtered histogram, Q8 GSUM), with Q5 and Q4 repeated
   so a warm cache hits. *)
let workload =
  List.map
    (fun (user, q) ->
      { Serve.user; epsilon = 0.3; sql = (Corpus.find q).Corpus.sql; name = Some q })
    [ ("alice", "Q5"); ("bob", "Q4"); ("carol", "Q5"); ("alice", "Q8");
      ("bob", "Q5"); ("carol", "Q4") ]

let run_workload ?ledger ~batch_size ~cache_capacity () =
  let rt = serve_runtime ?ledger () in
  let config = { Serve.default_config with Serve.batch_size; cache_capacity } in
  let srv = Serve.create ~config rt in
  let responses = ref [] in
  List.iteri
    (fun i req ->
      let adm, flushed = Serve.submit srv ~arrival:(float_of_int i *. 0.01) req in
      (match adm with
      | Serve.Queued _ -> ()
      | Serve.Rejected r -> Alcotest.failf "unexpected rejection: %s" (Serve.rejection_to_string r));
      responses := !responses @ flushed)
    workload;
  let responses = !responses @ Serve.drain srv in
  (rt, srv, List.sort (fun a b -> compare a.Serve.seq b.Serve.seq) responses)

let released r =
  match r.Serve.outcome with
  | Ok qr ->
    (qr.Runtime.noisy_bins, qr.Runtime.mixnet_losses, qr.Runtime.discarded_contributions,
     qr.Runtime.origins_included)
  | Error _ -> Alcotest.failf "member %d errored" r.Serve.seq

(* ------------------------------------------------------------------ *)
(* Accountant                                                          *)
(* ------------------------------------------------------------------ *)

(* Uniform in [0, 1) with 53 bits: the top bits of the next output. *)
let unit_float rng = Int64.to_float (Int64.shift_right_logical (Rng.int64 rng) 11) *. 0x1.0p-53

(* No over-admission under concurrent submitters: 4 domains hammer the
   same three users; whatever interleaving happens, no user's admitted
   total may exceed their budget, and the accountant's spent figure
   must equal the sum of exactly the admitted charges. Swept over the
   seed matrix the chaos tier uses. *)

let test_accountant_concurrent_no_overadmission () =
  List.iter
    (fun seed ->
      let total = 1.0 in
      let acct = Accountant.create ~per_user_total:total () in
      let n_domains = 4 and n_charges = 64 in
      let worker d () =
        let rng = Rng.create (Rng.mix64 seed (Int64.of_int d)) in
        let admitted = Array.make 3 0.0 in
        for _ = 1 to n_charges do
          let u = Rng.int rng 3 in
          let eps = 0.01 +. (0.1 *. unit_float rng) in
          match Accountant.charge acct ~user:(Printf.sprintf "u%d" u) eps with
          | Ok () -> admitted.(u) <- admitted.(u) +. eps
          | Error (`Exhausted _) -> ()
        done;
        admitted
      in
      let domains = List.init n_domains (fun d -> Domain.spawn (worker d)) in
      let per_domain = List.map Domain.join domains in
      for u = 0 to 2 do
        let user = Printf.sprintf "u%d" u in
        let spent = Accountant.spent acct ~user in
        checkb
          (Printf.sprintf "seed %Ld user %s not over-admitted" seed user)
          true
          (spent <= total +. 1e-9);
        let admitted_sum =
          List.fold_left (fun a arr -> a +. arr.(u)) 0.0 per_domain
        in
        checkb
          (Printf.sprintf "seed %Ld user %s spent = admitted sum" seed user)
          true
          (Float.abs (spent -. admitted_sum) < 1e-6)
      done)
    [ 1L; 7L; 42L ]

(* Single-threaded, the same request sequence produces the same
   admit/reject decisions in the same order — the deterministic
   rejection order the batch scheduler inherits. *)
let test_accountant_rejection_order_deterministic () =
  let sequence acct =
    let rng = Rng.create 99L in
    List.init 40 (fun _ ->
        let u = Printf.sprintf "u%d" (Rng.int rng 2) in
        let eps = 0.05 +. (0.2 *. unit_float rng) in
        match Accountant.charge acct ~user:u eps with
        | Ok () -> `Admitted (u, eps)
        | Error (`Exhausted r) -> `Rejected (u, r))
  in
  let a = sequence (Accountant.create ~per_user_total:1.0 ()) in
  let b = sequence (Accountant.create ~per_user_total:1.0 ()) in
  checkb "identical decision sequence" true (a = b);
  checkb "some rejections happened" true
    (List.exists (function `Rejected _ -> true | `Admitted _ -> false) a)

(* ------------------------------------------------------------------ *)
(* Admission gates                                                     *)
(* ------------------------------------------------------------------ *)

let test_unbudgeted_rejected () =
  let rt = serve_runtime ~faults:false () in
  let srv = Serve.create rt in
  let req = { Serve.user = "alice"; epsilon = Float.infinity;
              sql = (Corpus.find "Q5").Corpus.sql; name = Some "Q5" } in
  (match Serve.submit srv ~arrival:0.0 req with
  | Serve.Rejected Serve.Unbudgeted, [] -> ()
  | Serve.Rejected r, _ ->
    Alcotest.failf "wrong rejection: %s" (Serve.rejection_to_string r)
  | Serve.Queued _, _ -> Alcotest.fail "infinite epsilon must not be admitted");
  checki "nothing pending" 0 (Serve.pending_count srv);
  (* The explicit override restores the single-query debug semantics:
     admitted, released exactly, never charged. *)
  let srv =
    Serve.create
      ~config:{ Serve.default_config with Serve.allow_unbudgeted = true }
      (serve_runtime ~faults:false ())
  in
  match Serve.submit srv ~arrival:0.0 req with
  | Serve.Queued _, _ -> (
    match Serve.drain srv with
    | [ { Serve.outcome = Ok _; _ } ] ->
      checkb "unbudgeted query charged nothing" true
        (Accountant.spent (Serve.accountant srv) ~user:"alice" = 0.0)
    | _ -> Alcotest.fail "override run did not release")
  | Serve.Rejected r, _ ->
    Alcotest.failf "override rejected: %s" (Serve.rejection_to_string r)

let test_user_budget_gates_admission () =
  let rt = serve_runtime ~faults:false () in
  let config = { Serve.default_config with Serve.per_user_budget = 0.5; batch_size = 32 } in
  let srv = Serve.create ~config rt in
  let q = (Corpus.find "Q5").Corpus.sql in
  let submit user eps =
    fst (Serve.submit srv ~arrival:0.0 { Serve.user; epsilon = eps; sql = q; name = None })
  in
  (match submit "alice" 0.3 with
  | Serve.Queued _ -> ()
  | Serve.Rejected r -> Alcotest.failf "first charge rejected: %s" (Serve.rejection_to_string r));
  (match submit "alice" 0.3 with
  | Serve.Rejected (Serve.Budget_rejected remaining) ->
    checkb "rejection reports the remaining budget" true
      (Float.abs (remaining -. 0.2) < 1e-9)
  | _ -> Alcotest.fail "over-budget submit must be rejected");
  (* The rejected charge deducted nothing, and another user is
     unaffected. *)
  (match submit "alice" 0.2 with
  | Serve.Queued _ -> ()
  | Serve.Rejected _ -> Alcotest.fail "exact-fit charge after rejection must be admitted");
  match submit "bob" 0.5 with
  | Serve.Queued _ -> checki "admitted members pending" 3 (Serve.pending_count srv)
  | Serve.Rejected _ -> Alcotest.fail "bob's budget is his own"

(* An aggregate the relinearization key cannot reduce is refused at
   admission, before any charge, through both entry points: Q1 at
   d = 3 multiplies d^2 + 1 = 10 rows, test_wide's noise model admits
   that many multiplications, and a key of degree 6 would raise at the
   aggregator after the charge.  (The default key reaches degree 10
   here and admits Q1, so the key is set explicitly.) *)
let test_aggregate_beyond_relin_key_refused () =
  let rt =
    Runtime.init
      {
        Runtime.default_config with
        Runtime.params = Testkit.test_wide;
        degree_bound = 3;
        relin_degree = Some 6;
      }
      (small_graph ~n:12 ~d:3 ())
  in
  let q1 = Corpus.find "Q1" in
  let expect_refusal where = function
    | Runtime.Infeasible m ->
      Alcotest.(check string)
        where "aggregate of degree 10 exceeds the relinearization key's degree 6" m
    | _ -> Alcotest.failf "%s: not refused as infeasible" where
  in
  (match Runtime.validate_query rt q1.Corpus.query with
  | Error e -> expect_refusal "validate_query" e
  | Ok _ -> Alcotest.fail "validate_query admitted Q1 at d = 3");
  (match Runtime.run_query ~epsilon:1.0 rt q1.Corpus.sql with
  | Error e -> expect_refusal "run_query" e
  | Ok _ -> Alcotest.fail "run_query released Q1 at d = 3");
  checkb "runtime budget uncharged" true (Dp.budget_remaining (Runtime.budget rt) = 10.);
  let srv =
    Serve.create ~config:{ Serve.default_config with Serve.per_user_budget = 1.0 } rt
  in
  (match
     Serve.submit srv ~arrival:0.0
       { Serve.user = "alice"; epsilon = 1.0; sql = q1.Corpus.sql; name = Some "Q1" }
   with
  | Serve.Rejected (Serve.Invalid e), [] -> expect_refusal "Serve.submit" e
  | Serve.Rejected r, _ -> Alcotest.failf "wrong rejection: %s" (Serve.rejection_to_string r)
  | Serve.Queued _, _ -> Alcotest.fail "Serve.submit queued Q1 at d = 3");
  checkb "user uncharged" true (Accountant.spent (Serve.accountant srv) ~user:"alice" = 0.);
  checki "nothing pending" 0 (Serve.pending_count srv)

(* The default key reaches every aggregate admission lets through: at
   each parameter set and degree bound below, no corpus query that the
   noise model admits is refused for the key's sake (past
   [Analysis.feasible], [Infeasible] is the key's refusal). *)
let test_default_relin_key_admits_feasible () =
  List.iter
    (fun (params, pname, d) ->
      let rt =
        Runtime.init
          { Runtime.default_config with Runtime.params; degree_bound = d }
          (small_graph ~n:12 ~d ())
      in
      List.iter
        (fun (c : Corpus.entry) ->
          match Analysis.analyze ~degree_bound:d c.Corpus.query with
          | Error _ -> ()
          | Ok info -> (
            match (Analysis.feasible info params, Runtime.validate_query rt c.Corpus.query) with
            | Ok (), Error (Runtime.Infeasible m) ->
              Alcotest.failf "%s at %s, d = %d: refused (%s)" c.Corpus.id pname d m
            | Ok (), (Ok _ | Error _) | Error _, _ -> ()))
        Corpus.all)
    [
      (Params.test_small, "test_small", 2);
      (Params.test_small, "test_small", 3);
      (Params.test_small, "test_small", 4);
      (Params.test_medium, "test_medium", 2);
      (Params.test_medium, "test_medium", 6);
    ]

(* The NaN probe through [Serve.submit]: an epsilon that is not finite
   and positive (or infinity) is a typed rejection before any charge,
   and the user's budget keeps refusing what it must. *)
let test_invalid_epsilon_rejected () =
  let rt = serve_runtime ~faults:false () in
  let config = { Serve.default_config with Serve.per_user_budget = 1.0; batch_size = 32 } in
  let srv = Serve.create ~config rt in
  let q = (Corpus.find "Q5").Corpus.sql in
  let submit eps =
    fst (Serve.submit srv ~arrival:0.0 { Serve.user = "alice"; epsilon = eps; sql = q; name = None })
  in
  (match submit 0.6 with
  | Serve.Queued _ -> ()
  | Serve.Rejected r -> Alcotest.failf "first charge rejected: %s" (Serve.rejection_to_string r));
  (match submit 0.6 with
  | Serve.Rejected (Serve.Budget_rejected _) -> ()
  | _ -> Alcotest.fail "over-budget submit must be rejected");
  List.iter
    (fun eps ->
      match submit eps with
      | Serve.Rejected (Serve.Invalid (Runtime.Invalid_epsilon _)) -> ()
      | Serve.Rejected r ->
        Alcotest.failf "epsilon %g: wrong rejection: %s" eps (Serve.rejection_to_string r)
      | Serve.Queued _ -> Alcotest.failf "epsilon %g admitted" eps)
    [ Float.nan; 0.; -1.; Float.neg_infinity ];
  checkb "spent unchanged" true
    (Float.abs (Accountant.spent (Serve.accountant srv) ~user:"alice" -. 0.6) < 1e-9);
  for _ = 1 to 3 do
    match submit 100. with
    | Serve.Rejected (Serve.Budget_rejected _) -> ()
    | _ -> Alcotest.fail "epsilon 100 must be rejected"
  done;
  checki "only the first request pending" 1 (Serve.pending_count srv)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

(* The cache acceptance bar: the same workload served with the cache
   enabled releases byte-identical results to the cache-disabled run —
   a hit's decrypted aggregate is indistinguishable from a fresh
   gather + aggregation, because the member's noise seed and fault
   coordinate never depended on which path produced the ciphertext. *)
let test_cache_hit_byte_identical_to_miss () =
  let _, _, cold = run_workload ~batch_size:3 ~cache_capacity:0 () in
  let _, srv, warm = run_workload ~batch_size:3 ~cache_capacity:64 () in
  checki "cold run: every member released" 6 (List.length cold);
  checki "warm run: every member released" 6 (List.length warm);
  checkb "warm run hit the cache" true
    (List.exists (fun r -> r.Serve.cache_hit) warm);
  checkb "cold run never hit" true
    (List.for_all (fun r -> not r.Serve.cache_hit) cold);
  List.iter2
    (fun c w ->
      checki "seq aligned" c.Serve.seq w.Serve.seq;
      checkb
        (Printf.sprintf "member %d: hit ≡ miss released bytes" c.Serve.seq)
        true
        (released c = released w))
    cold warm;
  (* Three shapes in the workload, all cached after the run. *)
  checki "cache holds each distinct shape once" 3 (Agg_cache.length (Serve.cache srv))

(* Regression for intra-batch deduplication: with the whole six-member
   workload flushed as one batch, the three members repeating an
   earlier shape (Q5 twice more, Q4 once more) must still hit — the
   chunk's first pass computes each distinct shape and writes back, the
   second pass serves the duplicates from the cache.  Before the
   two-pass split these were misses: every lookup happened before any
   write-back. *)
let test_cache_hits_within_one_batch () =
  let _, srv, rs = run_workload ~batch_size:8 ~cache_capacity:64 () in
  checki "every member released" 6 (List.length rs);
  checki "duplicate shapes hit inside the batch" 3
    (List.length (List.filter (fun r -> r.Serve.cache_hit) rs));
  (* the hits must be the *duplicates* — the first occurrence of each
     shape (seqs 0/1/3) computes and writes back, every later repeat
     (seqs 2/4/5) decrypts the cached aggregate.  This pins the pass
     ordering: evaluating the duplicates pass first would invert the
     attribution while keeping the counts identical. *)
  Alcotest.(check (list int))
    "hits are exactly the later repeats" [ 2; 4; 5 ]
    (List.filter_map
       (fun r -> if r.Serve.cache_hit then Some r.Serve.seq else None)
       rs);
  let cache = Serve.cache srv in
  checki "three hits counted" 3 (Agg_cache.hits cache);
  checki "one miss per distinct shape" 3 (Agg_cache.misses cache);
  (* duplicates answer under their own analyst-facing names *)
  List.iter
    (fun r ->
      checkb
        (Printf.sprintf "member %d carries a corpus name" r.Serve.seq)
        true
        (List.mem r.Serve.query_name [ "Q5"; "Q4"; "Q8" ]))
    rs

let test_cache_eviction_deterministic () =
  let rt = serve_runtime ~faults:false () in
  let cache = Agg_cache.create ~capacity:2 in
  let prepared q =
    let query = (Corpus.find q).Corpus.query in
    let key = Agg_cache.key query in
    let item =
      {
        Runtime.bi_query = query;
        bi_epsilon = Float.infinity;
        bi_noise_seed = 1L;
        bi_cached = None;
      }
    in
    match Runtime.run_batch rt [ item ] with
    | [ Ok (_, p) ] -> (key, p)
    | _ -> Alcotest.failf "%s did not run" q
  in
  let k5, p5 = prepared "Q5" and k4, p4 = prepared "Q4" and k8, p8 = prepared "Q8" in
  Agg_cache.put cache k5 p5;
  Agg_cache.put cache k4 p4;
  (* Touch Q5 so Q4 is the LRU victim when Q8 arrives. *)
  checkb "Q5 hits" true (Agg_cache.find cache k5 <> None);
  Agg_cache.put cache k8 p8;
  checki "capacity held" 2 (Agg_cache.length cache);
  checki "one eviction" 1 (Agg_cache.evictions cache);
  checkb "LRU victim was Q4" true (Agg_cache.find cache k4 = None);
  checkb "Q5 survived" true (Agg_cache.find cache k5 <> None);
  checkb "Q8 present" true (Agg_cache.find cache k8 <> None)

(* ------------------------------------------------------------------ *)
(* Batched ≡ sequential acceptance cell                                *)
(* ------------------------------------------------------------------ *)

(* The batching design's correctness bar: the full faulted workload
   released one query at a time, and released again through serving
   that changes everything batching can change at once — batch 3 at 8
   domains, tracing on — is byte-identical per member.  Batch 3 splits
   the six members into two chunks with committee rotations between
   them: the first chunk defers its duplicate Q5 to a second pass, and
   the second chunk hits the cache the first one filled.  Tracing
   records every injected fault, so the traced run is the one that
   could move a byte. *)
let test_batched_equals_sequential () =
  let sequential =
    Pool.with_domains 1 (fun () ->
        let _, _, rs = run_workload ~batch_size:1 ~cache_capacity:64 () in
        List.map released rs)
  in
  checki "sequential run released everything" 6 (List.length sequential);
  let batched, faults_traced =
    Pool.with_domains 8 (fun () ->
        Obs.with_enabled (fun () ->
            Obs.reset ();
            let _, _, rs = run_workload ~batch_size:3 ~cache_capacity:64 () in
            let faults =
              List.exists
                (fun sp -> String.starts_with ~prefix:"fault." sp.Obs.sp_name)
                (Obs.all_spans ())
            in
            Obs.reset ();
            (rs, faults)))
  in
  checkb "the traced run recorded its faults" true faults_traced;
  checkb "batch 3 at 8 domains, traced ≡ sequential, per member" true
    (List.map released batched = sequential);
  checkb "cache hits: the deferred duplicate and the second chunk's repeats" true
    (List.map (fun r -> r.Serve.cache_hit) batched = [ false; false; true; false; true; true ]);
  let generations =
    List.map
      (fun r ->
        match r.Serve.outcome with
        | Ok qr -> qr.Runtime.committee_generation
        | Error _ -> Alcotest.failf "member %d errored" r.Serve.seq)
      batched
  in
  match generations with
  | [ g0; g1; g2; g3; g4; g5 ] ->
    checkb "the first chunk's first pass shares one session" true (g0 = g1);
    checkb "its duplicate decrypts after a rotation" true (g2 > g1);
    checkb "the second chunk shares one session after another rotation" true
      (g3 > g2 && g3 = g4 && g4 = g5)
  | _ -> Alcotest.fail "six members expected"

(* One execution path: [Runtime.run_query] is a batch of one, so a
   single query through the faulted mixnet is released exactly like
   the same query served inside a larger batch — the same rows, the
   same transit drops at its shape's fault coordinate, the same
   degradation report. *)
let test_single_query_equals_served_member () =
  let single =
    match
      Runtime.run_query ~epsilon:Float.infinity (serve_runtime ()) (Corpus.find "Q5").Corpus.sql
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "single Q5 failed"
  in
  let srv =
    Serve.create
      ~config:{ Serve.default_config with Serve.batch_size = 3; allow_unbudgeted = true }
      (serve_runtime ())
  in
  let flushed =
    List.concat_map
      (fun q ->
        snd
          (Serve.submit srv ~arrival:0.0
             { Serve.user = "alice"; epsilon = Float.infinity;
               sql = (Corpus.find q).Corpus.sql; name = Some q }))
      [ "Q4"; "Q5"; "Q8" ]
  in
  checki "one batch of three" 3 (List.length flushed);
  let served =
    match
      (List.find (fun r -> String.equal r.Serve.query_name "Q5") flushed).Serve.outcome
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "served Q5 failed"
  in
  checkb "copies were dropped" true (single.Runtime.degradation.Injector.dropped_messages > 0);
  checkb "same bins" true (single.Runtime.noisy_bins = served.Runtime.noisy_bins);
  checki "same mixnet losses" served.Runtime.mixnet_losses single.Runtime.mixnet_losses;
  checki "same discards" served.Runtime.discarded_contributions
    single.Runtime.discarded_contributions;
  checkb "same degradation report" true
    (Injector.report_equal single.Runtime.degradation served.Runtime.degradation)

(* Single-query noise and served-member noise never share a stream,
   even with the serving seed equal to the runtime seed: Q5 as single
   query #1 and an equal-layout variant as served member #1 must draw
   different noise, or subtracting the two releases would expose the
   exact difference of their histograms. *)
let test_single_and_served_noise_separate () =
  let rt =
    Runtime.init
      {
        Runtime.default_config with
        Runtime.params = Params.test_small;
        degree_bound = 4;
        seed = 7L;
      }
      (small_graph ())
  in
  let noise (r : Runtime.query_result) =
    let exact = Runtime.exact_bins_for_tests rt r.Runtime.info in
    Array.mapi (fun i b -> b -. float_of_int exact.(i)) r.Runtime.noisy_bins
  in
  let single =
    match Runtime.run_query ~epsilon:0.5 rt (Corpus.find "Q5").Corpus.sql with
    | Ok r -> noise r
    | Error _ -> Alcotest.fail "single Q5 failed"
  in
  let srv = Serve.create ~config:{ Serve.default_config with Serve.seed = 7L } rt in
  let submit sql =
    match Serve.submit srv ~arrival:0.0 { Serve.user = "alice"; epsilon = 0.5; sql; name = None } with
    | Serve.Queued seq, [] -> seq
    | Serve.Queued _, _ :: _ | Serve.Rejected _, _ -> Alcotest.fail "unexpected admission"
  in
  checki "Q4 is seq 0" 0 (submit (Corpus.find "Q4").Corpus.sql);
  checki "the variant is seq 1" 1
    (submit
       "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE (dest.age IN [20, 70]) GROUP BY self.age");
  let served =
    match List.find (fun r -> r.Serve.seq = 1) (Serve.drain srv) with
    | { Serve.outcome = Ok r; _ } -> noise r
    | { Serve.outcome = Error _; _ } -> Alcotest.fail "served variant failed"
  in
  checki "same bin layout" (Array.length single) (Array.length served);
  checkb "noise differs in some bin" true
    (Array.exists2 (fun a b -> Float.abs (a -. b) > 1e-6) single served)

(* ------------------------------------------------------------------ *)
(* Ledger                                                              *)
(* ------------------------------------------------------------------ *)

(* Every batch member gets its own ledger row; summing the rows'
   charged epsilons reproduces the runtime accountant bit for bit
   (shared-phase durations are attributed proportionally, but epsilon
   attribution is exact — each member's own charge). *)
let test_batch_ledger_rows_audit_bit_for_bit () =
  let path = Filename.temp_file "mycelium_serve_ledger" ".jsonl" in
  let rt, _, responses = run_workload ~ledger:path ~batch_size:8 ~cache_capacity:64 () in
  let records =
    match Obs.Ledger.read path with
    | Ok rs -> rs
    | Error e -> Alcotest.failf "ledger does not re-parse: %s" e
  in
  Sys.remove path;
  checki "one ledger row per batch member" (List.length responses) (List.length records);
  let s = Obs.Ledger.summarize records in
  checki "all members ok" (List.length responses) s.Obs.Ledger.ok;
  checkb "ledger sum equals Dp.budget_spent exactly" true
    (s.Obs.Ledger.epsilon_spent = Dp.budget_spent (Runtime.budget rt));
  (* Each row names the analyst's actual query — the corpus id the
     scheduler admitted — never the parser's "query" placeholder.
     (Rows land in execution order: each chunk's compute pass precedes
     its deferred duplicates, so the multiset is what is stable.) *)
  let names =
    List.map
      (fun r ->
        match Obs.Json.member "name" r with
        | Some (Obs.Json.Str n) -> n
        | _ -> Alcotest.fail "ledger row lacks a name")
      records
  in
  Alcotest.(check (list string))
    "rows carry the admitted corpus names"
    [ "Q4"; "Q4"; "Q5"; "Q5"; "Q5"; "Q8" ]
    (List.sort String.compare names);
  (* Every row times the seven stages.  A cache hit starts at the
     shared decryption, so its row reads 0 for the five stages before
     it; a fresh member's row times all seven. *)
  let rows =
    List.map
      (fun r ->
        match Obs.Json.member "stages" r with
        | Some (Obs.Json.Obj kvs) ->
          List.map
            (function
              | k, Obs.Json.Num f -> (k, f)
              | k, _ -> Alcotest.failf "stage %s is not a number" k)
            kvs
        | _ -> Alcotest.fail "ledger row lacks stages")
      records
  in
  let stage_names =
    [ "query.gather"; "query.aggregate"; "summation_tree.build"; "summation_tree.audit";
      "bgv.relinearize"; "committee.decrypt_batch"; "committee.rotate" ]
  in
  List.iter
    (fun r -> Alcotest.(check (list string)) "the seven stages, in order" stage_names (List.map fst r))
    rows;
  let timed first last r =
    List.for_all (fun (_, dt) -> dt > 0.) (List.filteri (fun i _ -> i >= first && i <= last) r)
  in
  let skipped_to_decryption r =
    List.for_all (fun (_, dt) -> Float.equal dt 0.) (List.filteri (fun i _ -> i < 5) r)
  in
  let hits, fresh = List.partition skipped_to_decryption rows in
  checki "a row reading 0 before decryption per cache hit"
    (List.length (List.filter (fun r -> r.Serve.cache_hit) responses))
    (List.length hits);
  checkb "a cache hit's decryption and rotation are timed" true (List.for_all (timed 5 6) hits);
  checkb "a fresh member times every stage" true (List.for_all (timed 0 6) fresh);
  let sums =
    List.map
      (fun name -> (name, List.fold_left (fun acc r -> acc +. List.assoc name r) 0. rows))
      stage_names
  in
  checkb "summarize's stage totals are the sums over the rows" true
    (s.Obs.Ledger.stage_s = sums)

let () =
  Alcotest.run "serve"
    [
      ( "accountant",
        [
          Alcotest.test_case "concurrent charges never over-admit" `Quick
            test_accountant_concurrent_no_overadmission;
          Alcotest.test_case "rejection order is deterministic" `Quick
            test_accountant_rejection_order_deterministic;
        ] );
      ( "admission",
        [
          Alcotest.test_case "infinite epsilon refused without override" `Quick
            test_unbudgeted_rejected;
          Alcotest.test_case "per-user budget gates admission" `Quick
            test_user_budget_gates_admission;
          Alcotest.test_case "invalid epsilon rejected" `Quick test_invalid_epsilon_rejected;
          Alcotest.test_case "aggregate beyond the relin key refused" `Quick
            test_aggregate_beyond_relin_key_refused;
          Alcotest.test_case "default relin key admits every feasible shape" `Quick
            test_default_relin_key_admits_feasible;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit ≡ miss released bytes" `Quick
            test_cache_hit_byte_identical_to_miss;
          Alcotest.test_case "duplicate shapes hit within one batch" `Quick
            test_cache_hits_within_one_batch;
          Alcotest.test_case "LRU eviction is deterministic" `Quick
            test_cache_eviction_deterministic;
        ] );
      ( "batching",
        [
          Alcotest.test_case "batched ≡ sequential, faults on, traced at 8 domains" `Quick
            test_batched_equals_sequential;
          Alcotest.test_case "single query ≡ served member, faulted mixnet" `Quick
            test_single_query_equals_served_member;
          Alcotest.test_case "single-query and served-member noise separate" `Quick
            test_single_and_served_noise_separate;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "per-member rows audit bit-for-bit" `Quick
            test_batch_ledger_rows_audit_bit_for_bit;
        ] );
    ]
