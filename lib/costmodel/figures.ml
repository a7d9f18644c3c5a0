module Units = Mycelium_util.Units
module Stats = Mycelium_util.Stats
module Rng = Mycelium_util.Rng
module Model = Mycelium_mixnet.Model
module Sim = Mycelium_mixnet.Sim
module Analysis = Mycelium_query.Analysis
module Corpus = Mycelium_query.Corpus
module Semantics = Mycelium_query.Semantics
module Params = Mycelium_bgv.Params
module Cg = Mycelium_graph.Contact_graph
module Epidemic = Mycelium_graph.Epidemic
module Obs = Mycelium_obs.Obs

type series = { label : string; points : (float * float) list }

type figure = {
  id : string;
  title : string;
  x_label : string;
  y_label : string;
  series : series list;
  notes : string list;
}

let d = Defaults.paper

(* ------------------------------------------------------------------ *)

let fig2 () =
  let series =
    List.map
      (fun (e : Corpus.entry) ->
        let info = Analysis.analyze_exn ~degree_bound:d.Defaults.degree e.Corpus.query in
        {
          label = e.Corpus.id;
          points =
            [
              (float_of_int e.Corpus.query.Mycelium_query.Ast.hops, float_of_int info.Analysis.ciphertext_count);
            ];
        })
      Corpus.all
  in
  {
    id = "fig2";
    title = "Figure 2: example queries (hops, ciphertexts per contribution)";
    x_label = "hops";
    y_label = "ciphertexts";
    series;
    notes = List.map (fun (e : Corpus.entry) -> e.Corpus.id ^ ": " ^ e.Corpus.sql) Corpus.all;
  }

let fig4 () =
  {
    id = "fig4";
    title = "Figure 4: default parameters";
    x_label = "-";
    y_label = "value";
    series =
      [
        { label = "devices N"; points = [ (0., d.Defaults.n_devices) ] };
        { label = "onion hops k"; points = [ (0., float_of_int d.Defaults.hops) ] };
        { label = "replicas r"; points = [ (0., float_of_int d.Defaults.replicas) ] };
        { label = "forwarder fraction f"; points = [ (0., d.Defaults.fraction) ] };
        { label = "committee size c"; points = [ (0., float_of_int d.Defaults.committee_size) ] };
        { label = "degree bound d"; points = [ (0., float_of_int d.Defaults.degree) ] };
      ];
    notes = [ Format.asprintf "%a" Defaults.pp d ];
  }

let hops_axis = [ 2; 3; 4 ]

let fig5a () =
  let series =
    List.map
      (fun r ->
        {
          label = Printf.sprintf "r=%d" r;
          points =
            List.map
              (fun k ->
                ( float_of_int k,
                  Model.anonymity_set ~n:d.Defaults.n_devices ~hops:k ~replicas:r
                    ~fraction:d.Defaults.fraction ~malicious:d.Defaults.malicious ))
              hops_axis;
        })
      [ 1; 2; 3 ]
  in
  {
    id = "fig5a";
    title = "Figure 5a: size of the anonymity set";
    x_label = "hops k";
    y_label = "expected anonymity set";
    series;
    notes =
      [
        "each honest hop multiplies the candidate set by r/f; expectation over Binomial(k, 1-mal)";
        Printf.sprintf "anchor (§6.3): r=2,k=3,mal=0.02 -> %.0f (paper: over 7000)"
          (Model.anonymity_set ~n:d.Defaults.n_devices ~hops:3 ~replicas:2 ~fraction:0.1
             ~malicious:0.02);
      ];
  }

let fig5b () =
  let series =
    List.map
      (fun mal ->
        {
          label = Printf.sprintf "mal=%.2f, r=%d" mal d.Defaults.replicas;
          points =
            List.map
              (fun k ->
                ( float_of_int k,
                  Model.identification_probability ~hops:k ~replicas:d.Defaults.replicas
                    ~malicious:mal ))
              hops_axis;
        })
      [ 0.02; 0.04 ]
  in
  {
    id = "fig5b";
    title = "Figure 5b: probability of identification";
    x_label = "hops k";
    y_label = "P(all hops of some replica malicious)";
    series;
    notes =
      [
        Printf.sprintf "anchor (§6.3): k=3, mal=0.02 -> %.1e (paper: ~1e-5)"
          (Model.identification_probability ~hops:3 ~replicas:2 ~malicious:0.02);
      ];
  }

let fig5c () =
  let rates = [ 0.01; 0.02; 0.03; 0.04; 0.05; 0.06; 0.07 ] in
  let series =
    List.map
      (fun r ->
        {
          label = Printf.sprintf "r=%d" r;
          points =
            List.map
              (fun rate ->
                (100. *. rate, Model.goodput ~hops:d.Defaults.hops ~replicas:r ~failure_rate:rate))
              rates;
        })
      [ 1; 2; 3 ]
  in
  {
    id = "fig5c";
    title = "Figure 5c: goodput (message success rate)";
    x_label = "node failure rate (malice + churn), %";
    y_label = "P(message delivered)";
    series;
    notes =
      [
        Printf.sprintf "anchor (§6.3): r=2, 4%% failure -> %.4f (paper: ~1 in 100 lost)"
          (Model.goodput ~hops:3 ~replicas:2 ~failure_rate:0.04);
      ];
  }

let fig5d () =
  {
    id = "fig5d";
    title = "Figure 5d: duration in C-rounds";
    x_label = "hops k";
    y_label = "C-rounds";
    series =
      [
        {
          label = "telescoping (k^2+2k)";
          points =
            List.map (fun k -> (float_of_int k, float_of_int (Model.telescoping_rounds ~hops:k))) hops_axis;
        };
        {
          label = "message forwarding (2k+2)";
          points =
            List.map (fun k -> (float_of_int k, float_of_int (Model.forwarding_rounds ~hops:k))) hops_axis;
        };
      ];
    notes = [ "one-hour C-rounds: a one-hop query finishes in under a day (§6.3)" ];
  }

let fig5_monte_carlo ~n ~seed =
  let base =
    {
      Sim.default_config with
      Sim.n_devices = n;
      malicious_fraction = 0.;
      fast_setup = true;
      fast_keys = true;
      verify_every = 0;
      seed;
    }
  in
  let run cfg =
    let t = Sim.create cfg in
    ignore (Sim.setup_paths t);
    Sim.run_query_round t ~payload:(Bytes.of_string "probe")
  in
  let rates = [ 0.0; 0.04; 0.08 ] in
  (* Goodput under churn, r in {1,2}, vs the model (the simulated
     source must also be online to deposit, hence the extra (1-rate)
     factor on the closed form). Each point averages several seeds:
     forwarder sharing correlates copy failures, so single runs are
     noisy. The churn-free point runs once: with no churn and no
     Byzantine devices every trial delivers everything. *)
  let trials rate = if Float.equal rate 0. then 1 else 8 in
  let goodput_series r =
    {
      label = Printf.sprintf "sim goodput r=%d" r;
      points =
        List.map
          (fun rate ->
            let acc = ref 0. in
            for trial = 1 to trials rate do
              let stats =
                run
                  {
                    base with
                    Sim.replicas = r;
                    churn = rate;
                    seed = Int64.add seed (Int64.of_int (trial * 7919));
                  }
              in
              acc :=
                !acc
                +. (float_of_int stats.Sim.delivered /. float_of_int (max 1 stats.Sim.messages_sent))
            done;
            (100. *. rate, !acc /. float_of_int (trials rate)))
          rates;
    }
  in
  let model_series r =
    {
      label = Printf.sprintf "model goodput r=%d" r;
      points =
        List.map
          (fun rate ->
            ( 100. *. rate,
              (1. -. rate) *. Model.goodput ~hops:base.Sim.hops ~replicas:r ~failure_rate:rate ))
          rates;
    }
  in
  let anon =
    let stats = run { base with Sim.malicious_fraction = 0.05 } in
    let sets = Array.map float_of_int stats.Sim.anonymity_sets in
    if Array.length sets = 0 then 0. else Stats.mean sets
  in
  {
    id = "fig5-mc";
    title = Printf.sprintf "Figure 5 Monte Carlo validation (n=%d)" n;
    x_label = "failure rate %";
    y_label = "delivery probability";
    series = [ goodput_series 1; model_series 1; goodput_series 2; model_series 2 ];
    notes =
      [
        Printf.sprintf "mean anonymity set at n=%d, 5%% malicious: %.0f (capped by n)" n anon;
      ];
  }

let fig6 () =
  {
    id = "fig6";
    title = "Figure 6: number of ciphertexts sent for each query";
    x_label = "query";
    y_label = "ciphertexts";
    series =
      List.mapi
        (fun i (e : Corpus.entry) ->
          let info = Analysis.analyze_exn ~degree_bound:d.Defaults.degree e.Corpus.query in
          { label = e.Corpus.id; points = [ (float_of_int (i + 1), float_of_int info.Analysis.ciphertext_count) ] })
        Corpus.all;
    notes =
      List.map
        (fun (id, v) -> Printf.sprintf "paper: %s -> %d" id v)
        Corpus.paper_ciphertext_counts;
  }

let fig7 () =
  let series =
    List.concat_map
      (fun (kind, f) ->
        List.map
          (fun r ->
            {
              label = Printf.sprintf "r=%d, %s" r kind;
              points =
                List.map
                  (fun k ->
                    (float_of_int k, f { d with Defaults.hops = k; replicas = r } ~cq:1))
                  hops_axis;
            })
          [ 1; 2; 3 ])
      [
        ("non-forwarder", Bandwidth.non_forwarder_bytes); ("forwarder", Bandwidth.forwarder_bytes);
      ]
  in
  {
    id = "fig7";
    title = "Figure 7: avg. bandwidth required of each participant per query (bytes)";
    x_label = "hops k";
    y_label = "bytes per query (Cq=1)";
    series;
    notes =
      [
        Printf.sprintf "defaults: non-forwarder %s, forwarder %s, expectation %s (paper: 170 MB / 1030 MB / ~430 MB)"
          (Units.bytes_to_string (Bandwidth.non_forwarder_bytes d ~cq:1))
          (Units.bytes_to_string (Bandwidth.forwarder_bytes d ~cq:1))
          (Units.bytes_to_string (Bandwidth.expected_bytes d ~cq:1));
        Printf.sprintf "ciphertext size: %s (paper: 4.3 MB)" (Units.bytes_to_string Defaults.ciphertext_bytes);
      ];
  }

let sec6_2_generality () =
  let series =
    List.map
      (fun (e : Corpus.entry) ->
        let info = Analysis.analyze_exn ~degree_bound:d.Defaults.degree e.Corpus.query in
        let feasible =
          match Analysis.feasible info Params.paper with Ok () -> 1. | Error _ -> 0.
        in
        { label = e.Corpus.id; points = [ (float_of_int info.Analysis.multiplications, feasible) ] })
      Corpus.all
  in
  {
    id = "generality";
    title = "§6.2 generality: (multiplications needed, feasible at paper parameters)";
    x_label = "homomorphic multiplications";
    y_label = "1 = runs, 0 = exceeds noise budget";
    series;
    notes =
      [
        Printf.sprintf "multiplication budget at paper parameters: ~%d"
          (Analysis.max_multiplications Params.paper);
        "paper: all queries expressible; all run except Q1 (d^2 = 100 multiplications)";
      ];
  }

let sec6_4_device_costs costs =
  let paper_costs = Device_compute.extrapolate costs Params.paper in
  let b = Device_compute.device_query_cost d paper_costs ~cq:1 in
  {
    id = "sec6_4";
    title = "§6.4 per-device cost for a Cq=1 query";
    x_label = "-";
    y_label = "seconds / bytes";
    series =
      [
        { label = "HE compute (s)"; points = [ (0., b.Device_compute.he_seconds) ] };
        { label = "ZKP proving (s)"; points = [ (0., b.Device_compute.zkp_seconds) ] };
        { label = "total compute (s)"; points = [ (0., b.Device_compute.total_seconds) ] };
        { label = "expected bandwidth (B)"; points = [ (0., Bandwidth.expected_bytes d ~cq:1) ] };
      ];
    notes =
      [
        Printf.sprintf
          "measured at N=%d and extrapolated by N log N x levels; paper's Python prototype: ~%.0f s"
          costs.Device_compute.params.Params.degree Device_compute.paper_anchor_seconds;
        "the paper notes these costs 'could be dramatically reduced' with optimized HE - our \
         OCaml NTT implementation is such an optimization, hence the smaller HE figure";
      ];
  }

let committee_sizes = [ 10; 20; 30; 40 ]

let fig8a () =
  let rates = [ 0.005; 0.01; 0.02; 0.04 ] in
  {
    id = "fig8a";
    title = "Figure 8a: probability of privacy failure (committee majority captured)";
    x_label = "% malicious users";
    y_label = "P(failure)";
    series =
      List.map
        (fun c ->
          {
            label = Printf.sprintf "c=%d" c;
            points =
              List.map
                (fun m -> (100. *. m, Committee_model.privacy_failure ~committee:c ~malicious:m))
                rates;
          })
        committee_sizes;
    notes = [ "failure = at least a majority of the committee is malicious" ];
  }

let fig8b () =
  let rates = [ 0.01; 0.02; 0.03; 0.04; 0.05; 0.06; 0.07 ] in
  {
    id = "fig8b";
    title = "Figure 8b: probability of liveness";
    x_label = "% malice + churn";
    y_label = "P(enough members to decrypt)";
    series =
      List.map
        (fun c ->
          {
            label = Printf.sprintf "c=%d" c;
            points =
              List.map
                (fun m -> (100. *. m, Committee_model.liveness ~committee:c ~failure_rate:m))
                rates;
          })
        committee_sizes;
    notes = [ "liveness = a majority of members reachable for the decryption MPC" ];
  }

let sec6_5_committee () =
  {
    id = "sec6_5";
    title = "§6.5 committee-member costs";
    x_label = "committee size";
    y_label = "seconds / bytes";
    series =
      [
        {
          label = "MPC wall-clock (s)";
          points =
            List.map (fun c -> (float_of_int c, Committee_model.mpc_seconds ~committee:c)) committee_sizes;
        };
        {
          label = "per-member traffic (B)";
          points =
            List.map
              (fun c -> (float_of_int c, Committee_model.mpc_bandwidth_bytes ~committee:c))
              committee_sizes;
        };
      ];
    notes = [ "anchors (§6.5, c=10): ~3 minutes, ~4.5 GB per member" ];
  }

let fig9a () =
  let series =
    List.map
      (fun r ->
        {
          label = Printf.sprintf "r=%d" r;
          points =
            List.map
              (fun k ->
                ( float_of_int k,
                  Bandwidth.aggregator_per_device_bytes { d with Defaults.hops = k; replicas = r } ~cq:1 ))
              hops_axis;
        })
      [ 1; 2; 3 ]
  in
  {
    id = "fig9a";
    title = "Figure 9a: per-user traffic sent by the aggregator per query";
    x_label = "hops k";
    y_label = "bytes per device";
    series;
    notes =
      [
        Printf.sprintf "anchor (§6.6): k=3, r=2 -> %s (paper: ~350 MB)"
          (Units.bytes_to_string (Bandwidth.aggregator_per_device_bytes d ~cq:1));
      ];
  }

let fig9b () =
  let ns = [ 1e6; 1e7; 1e8; 1e9 ] in
  let deadline = 10. *. 3600. in
  {
    id = "fig9b";
    title = "Figure 9b: aggregator cores to finish within 10 hours";
    x_label = "number of participants";
    y_label = "cores";
    series =
      [
        {
          label = "ZKP verification";
          points =
            List.map
              (fun n -> (n, fst (Aggregator_model.cores_breakdown d ~n ~deadline_seconds:deadline ~cq:1)))
              ns;
        };
        {
          label = "global aggregation";
          points =
            List.map
              (fun n -> (n, snd (Aggregator_model.cores_breakdown d ~n ~deadline_seconds:deadline ~cq:1)))
              ns;
        };
      ];
    notes =
      [
        "Groth16 verification is linear in the public I/O (the 4.3 MB ciphertexts) and dominates";
        "the aggregation bars are negligible, as in the paper";
      ];
  }

let ablation_spot_check () =
  let fractions = [ 1.0; 0.5; 0.1; 0.01 ] in
  let deadline = 10. *. 3600. in
  {
    id = "ablation-spotcheck";
    title = "Ablation (§6.6 suggestion): ZKP spot-checking at N=1.1e6";
    x_label = "fraction of proofs verified";
    y_label = "cores / surviving bad rows";
    series =
      [
        {
          label = "aggregator cores";
          points =
            List.map
              (fun f ->
                ( f,
                  Aggregator_model.cores_with_spot_check d ~n:d.Defaults.n_devices
                    ~deadline_seconds:deadline ~cq:1 ~fraction:f ))
              fractions;
        };
        {
          label = "expected undetected bad rows";
          points =
            List.map
              (fun f -> (f, Aggregator_model.expected_undetected_rows d ~n:d.Defaults.n_devices ~fraction:f))
              fractions;
        };
      ];
    notes =
      [
        "a HISTO bad row shifts at most one bin by 1 (§4.7), so a handful of undetected rows \
         is dominated by the Laplace noise - the tradeoff the paper hints at";
      ];
  }

let ablation_key_distribution () =
  let ns = [ 1e6; 1e7; 1e8; 1e9 ] in
  {
    id = "ablation-keydist";
    title = "Ablation (§2.5/§4.2): per-query key distribution, Orchard vs Mycelium VSR";
    x_label = "devices N";
    y_label = "bytes per query";
    series =
      [
        {
          label = "Orchard (re-key every device)";
          points = List.map (fun n -> (n, Committee_model.orchard_per_query_key_bytes ~n)) ns;
        };
        {
          label = "Mycelium (VSR among c=10)";
          points =
            List.map
              (fun n -> (n, Committee_model.mycelium_per_query_key_bytes ~committee:10))
              ns;
        };
      ];
    notes =
      [
        "Mycelium's second Orchard modification: keys are generated once by the genesis \
         committee and handed between committees by verifiable secret redistribution, so \
         per-query key traffic is O(c^2) ring elements instead of O(N) public keys";
        Printf.sprintf "at N=1.1e6 the gap is %s vs %s per query (%.0fx)"
          (Units.bytes_to_string (Committee_model.orchard_per_query_key_bytes ~n:1.1e6))
          (Units.bytes_to_string (Committee_model.mycelium_per_query_key_bytes ~committee:10))
          (Committee_model.orchard_per_query_key_bytes ~n:1.1e6
          /. Committee_model.mycelium_per_query_key_bytes ~committee:10);
      ];
  }

let sec7_baseline ~n ~seed =
  let rng = Rng.create seed in
  let graph =
    Cg.generate { Cg.default_config with Cg.population = n; degree_bound = Defaults.paper.Defaults.degree } rng
  in
  let (_ : Epidemic.outcome) = Epidemic.run Epidemic.default_config rng graph in
  (* Q1 restricted to one hop, as in §7's GraphX measurement. *)
  let q =
    Mycelium_query.Parser.parse_exn ~name:"Q1-1hop"
      "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf AND self.inf"
  in
  let info = Analysis.analyze_exn ~degree_bound:Defaults.paper.Defaults.degree q in
  (* The exact answer in the clear, through the reference semantics. *)
  let t0 = Obs.now_s () in
  let (_ : Semantics.result) =
    Semantics.decode info (Array.map float_of_int (Semantics.global_histogram info graph))
  in
  let seconds = Obs.now_s () -. t0 in
  let per_vertex = seconds /. float_of_int n in
  let extrapolated = per_vertex *. 1e9 in
  {
    id = "sec7";
    title = "§7 plaintext baseline: Q1 (1-hop) in the clear";
    x_label = "vertices";
    y_label = "seconds";
    series =
      [
        { label = "measured"; points = [ (float_of_int n, seconds) ] };
        { label = "extrapolated to 1e9 (single core)"; points = [ (1e9, extrapolated) ] };
      ];
    notes =
      [
        "paper: GraphX on one CloudLab machine answered Q1 on a billion-vertex graph in ~5 s";
        Printf.sprintf
          "our single-core engine: %.2e s/vertex; a ~100-core cluster brings the billion-vertex \
           run to %.1f s - same orders of magnitude, and either way ~5 orders below Mycelium's \
           encrypted cost, which is the point of §7"
          per_vertex (extrapolated /. 100.);
      ];
  }

let all () =
  [
    fig2 (); fig4 (); fig5a (); fig5b (); fig5c (); fig5d (); fig6 (); fig7 ();
    sec6_2_generality (); fig8a (); fig8b (); sec6_5_committee (); fig9a (); fig9b ();
    ablation_spot_check (); ablation_key_distribution ();
  ]

let render f =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "=== %s [%s] ===\n" f.title f.id);
  Buffer.add_string buf (Printf.sprintf "  x: %s | y: %s\n" f.x_label f.y_label);
  List.iter
    (fun s ->
      Buffer.add_string buf (Printf.sprintf "  %-28s" s.label);
      List.iter (fun (x, y) -> Buffer.add_string buf (Printf.sprintf " (%g, %g)" x y)) s.points;
      Buffer.add_char buf '\n')
    f.series;
  List.iter (fun n -> Buffer.add_string buf ("  note: " ^ n ^ "\n")) f.notes;
  Buffer.contents buf
