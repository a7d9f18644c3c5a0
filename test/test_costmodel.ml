(* Tests for mycelium_costmodel: every extrapolated figure must hit the
   paper's anchors (§6.3–§6.6, §7) within tolerance, and the analytic
   models must agree with the Monte Carlo simulator at small scale. *)

module Rng = Mycelium_util.Rng
module Defaults = Mycelium_costmodel.Defaults
module Bandwidth = Mycelium_costmodel.Bandwidth
module Committee_model = Mycelium_costmodel.Committee_model
module Aggregator_model = Mycelium_costmodel.Aggregator_model
module Device_compute = Mycelium_costmodel.Device_compute
module Figures = Mycelium_costmodel.Figures
module Params = Mycelium_bgv.Params

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let within name lo hi v =
  checkb (Printf.sprintf "%s: %g in [%g, %g]" name v lo hi) true (v >= lo && v <= hi)

let d = Defaults.paper

(* ------------------------------------------------------------------ *)

let test_ciphertext_size () =
  (* Paper: 4.3 MB. Our 19x30-bit modulus gives slightly more. *)
  within "ciphertext bytes" 4.0e6 5.0e6 Defaults.ciphertext_bytes

let test_fig6_cq () =
  (* Figure 6's Cq: the analysis's ciphertext count at the paper's
     degree bound. *)
  let cq id =
    (Mycelium_query.Analysis.analyze_exn ~degree_bound:d.Defaults.degree
       (Mycelium_query.Corpus.find id).Mycelium_query.Corpus.query)
      .Mycelium_query.Analysis.ciphertext_count
  in
  List.iter (fun (id, expected) -> checki id expected (cq id)) [ ("Q1", 1); ("Q3", 14); ("Q9", 10) ]

let test_sec6_4_bandwidth_anchors () =
  (* Paper: 170 MB non-forwarder / 1030 MB forwarder / ~430 MB expected. *)
  within "non-forwarder" 1.5e8 2.2e8 (Bandwidth.non_forwarder_bytes d ~cq:1);
  within "forwarder" 0.9e9 1.3e9 (Bandwidth.forwarder_bytes d ~cq:1);
  within "expected" 3.8e8 5.2e8 (Bandwidth.expected_bytes d ~cq:1)

let test_bandwidth_scales_with_cq () =
  (* Complex queries multiply by the Figure 6 factor. *)
  let b1 = Bandwidth.expected_bytes d ~cq:1 in
  let b14 = Bandwidth.expected_bytes d ~cq:14 in
  checkb "14x ciphertexts, 14x bandwidth" true (Float.abs ((b14 /. b1) -. 14.) < 1e-9)

let test_fig9a_anchor () =
  (* Paper: ~350 MB sent by the aggregator per device. *)
  within "aggregator per device" 3.0e8 4.5e8 (Bandwidth.aggregator_per_device_bytes d ~cq:1);
  (* Monotone in k and r. *)
  let v k r = Bandwidth.aggregator_per_device_bytes { d with Defaults.hops = k; replicas = r } ~cq:1 in
  checkb "monotone in k" true (v 2 2 < v 3 2 && v 3 2 < v 4 2);
  checkb "monotone in r" true (v 3 1 < v 3 2 && v 3 2 < v 3 3)

let test_fig9b_shape () =
  let deadline = 10. *. 3600. in
  let zkp n = fst (Aggregator_model.cores_breakdown d ~n ~deadline_seconds:deadline ~cq:1) in
  let agg n = snd (Aggregator_model.cores_breakdown d ~n ~deadline_seconds:deadline ~cq:1) in
  (* ZKP verification dominates ("the bars for the aggregation are very
     small"). *)
  checkb "zkp >> aggregation" true (zkp 1e6 > 100. *. agg 1e6);
  (* Linear in N across the 1e6..1e9 range. *)
  checkb "linear in N" true (Float.abs ((zkp 1e9 /. zkp 1e6) -. 1000.) < 1.);
  (* Plausible magnitude: a data center, not a laptop and not the
     planet. *)
  within "cores at 1e6" 1e2 1e5 (zkp 1e6);
  within "cores at 1e9" 1e5 1e8 (zkp 1e9)

let test_fig8a_shape () =
  let pf c m = Committee_model.privacy_failure ~committee:c ~malicious:m in
  (* More malice, more failure; larger committees, safer. *)
  checkb "monotone in malice" true (pf 10 0.01 < pf 10 0.02 && pf 10 0.02 < pf 10 0.04);
  checkb "bigger committee safer" true (pf 20 0.02 < pf 10 0.02 && pf 40 0.02 < pf 20 0.02);
  (* At the MC assumption (2%), a 10-member committee is very unlikely
     to be captured. *)
  checkb "tiny at defaults" true (pf 10 0.02 < 1e-6);
  (* Sanity at the extremes. *)
  checkb "all malicious" true (pf 10 1.0 > 0.999999);
  checkb "none malicious" true (pf 10 0.0 = 0.)

let test_fig8b_shape () =
  let lv c r = Committee_model.liveness ~committee:c ~failure_rate:r in
  checkb "high at defaults" true (lv 10 0.02 > 0.999);
  checkb "monotone down in churn" true (lv 10 0.3 < lv 10 0.1);
  checkb "bigger committee more robust" true (lv 40 0.3 > lv 10 0.3);
  checkb "dead network" true (lv 10 1.0 = 0.)

let test_sec6_5_anchors () =
  (* Paper: ~3 minutes and ~4.5 GB per member at c=10. *)
  within "mpc seconds" 120. 300. (Committee_model.mpc_seconds ~committee:10);
  within "mpc bytes" 4.0e9 5.0e9 (Committee_model.mpc_bandwidth_bytes ~committee:10);
  checkb "grows with committee" true
    (Committee_model.mpc_seconds ~committee:20 > Committee_model.mpc_seconds ~committee:10)

let test_device_compute () =
  let rng = Rng.create 9L in
  let costs = Device_compute.measure ~params:Params.test_small rng in
  checkb "positive measurements" true
    (costs.Device_compute.encrypt_s > 0. && costs.Device_compute.multiply_s > 0.);
  (* Extrapolation to the same parameters is the identity. *)
  let same = Device_compute.extrapolate costs Params.test_small in
  checkb "identity extrapolation" true
    (Float.abs (same.Device_compute.encrypt_s -. costs.Device_compute.encrypt_s) < 1e-12);
  (* To paper scale: bigger, and the breakdown is sane. *)
  let paper_costs = Device_compute.extrapolate costs Params.paper in
  checkb "paper scale slower" true
    (paper_costs.Device_compute.encrypt_s > costs.Device_compute.encrypt_s);
  let b = Device_compute.device_query_cost d paper_costs ~cq:1 in
  checki "encryptions = d*cq + 1" 11 b.Device_compute.encryptions;
  (* ZKP proving ~ a minute (§6.4). *)
  within "zkp seconds" 30. 120. b.Device_compute.zkp_seconds;
  (* Total well under the paper's unoptimized 15 minutes but not
     trivially zero. *)
  within "total seconds" 1. Device_compute.paper_anchor_seconds b.Device_compute.total_seconds

let test_key_distribution_gap () =
  (* The §4.2 claim: per-query key traffic independent of N and orders
     of magnitude below re-keying every device. *)
  let orchard = Committee_model.orchard_per_query_key_bytes ~n:1.1e6 in
  let mycelium = Committee_model.mycelium_per_query_key_bytes ~committee:10 in
  checkb "at least 1000x cheaper" true (orchard > 1000. *. mycelium);
  checkb "independent of N" true
    (Committee_model.mycelium_per_query_key_bytes ~committee:10 = mycelium);
  checkb "orchard linear in N" true
    (Committee_model.orchard_per_query_key_bytes ~n:2.2e6 = 2. *. orchard)

let test_figures_render () =
  let figs = Figures.all () in
  checki "sixteen standing figures" 16 (List.length figs);
  let ids = List.map (fun f -> f.Figures.id) figs in
  checki "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids));
  List.iter
    (fun f ->
      let s = Figures.render f in
      checkb (f.Figures.id ^ " renders") true (String.length s > 40);
      checkb (f.Figures.id ^ " has series") true (f.Figures.series <> []))
    figs

let test_fig5_monte_carlo_agrees () =
  let fig = Figures.fig5_monte_carlo ~n:300 ~seed:21L in
  let find label =
    List.find (fun s -> s.Figures.label = label) fig.Figures.series
  in
  (* r=1 has no replica correlation: the closed form should be tight.
     With replicas, copies of a message share forwarders, so their
     failures correlate and the independence model is an upper bound
     (the paper's model makes the same assumption) — allow slack but
     require the ordering. *)
  List.iter
    (fun r ->
      let sim = find (Printf.sprintf "sim goodput r=%d" r) in
      let model = find (Printf.sprintf "model goodput r=%d" r) in
      List.iter2
        (fun (x1, sim_v) (x2, model_v) ->
          checkb "same x" true (x1 = x2);
          let tolerance = if r = 1 then 0.09 else 0.15 in
          checkb
            (Printf.sprintf "r=%d rate=%g: sim %.3f vs model %.3f" r x1 sim_v model_v)
            true
            (Float.abs (sim_v -. model_v) < tolerance))
        sim.Figures.points model.Figures.points)
    [ 1; 2 ];
  (* Replication still helps in the simulator. *)
  let last l = List.nth l (List.length l - 1) in
  let sim1 = snd (last (find "sim goodput r=1").Figures.points) in
  let sim2 = snd (last (find "sim goodput r=2").Figures.points) in
  checkb "r=2 beats r=1 under churn" true (sim2 > sim1)

let test_sec7_baseline () =
  let fig = Figures.sec7_baseline ~n:2000 ~seed:3L in
  let measured =
    List.find (fun s -> s.Figures.label = "measured") fig.Figures.series
  in
  (match measured.Figures.points with
  | [ (n, secs) ] ->
    checkb "n recorded" true (n = 2000.);
    (* The plaintext engine is fast: well under a millisecond per
       vertex. *)
    checkb "fast per vertex" true (secs /. n < 1e-3)
  | _ -> Alcotest.fail "unexpected points");
  checkb "notes mention the paper's 5 s" true
    (List.exists (fun n -> String.length n > 0) fig.Figures.notes)

let () =
  Alcotest.run "mycelium-costmodel"
    [
      ( "anchors",
        [
          Alcotest.test_case "ciphertext ~4.3MB" `Quick test_ciphertext_size;
          Alcotest.test_case "Fig 6 Cq" `Quick test_fig6_cq;
          Alcotest.test_case "§6.4 bandwidth" `Quick test_sec6_4_bandwidth_anchors;
          Alcotest.test_case "bandwidth scales with Cq" `Quick test_bandwidth_scales_with_cq;
          Alcotest.test_case "Fig 9a aggregator traffic" `Quick test_fig9a_anchor;
          Alcotest.test_case "Fig 9b cores shape" `Quick test_fig9b_shape;
          Alcotest.test_case "Fig 8a privacy failure" `Quick test_fig8a_shape;
          Alcotest.test_case "Fig 8b liveness" `Quick test_fig8b_shape;
          Alcotest.test_case "§6.5 committee costs" `Quick test_sec6_5_anchors;
          Alcotest.test_case "key distribution gap (§4.2)" `Quick test_key_distribution_gap;
          Alcotest.test_case "§6.4 device compute" `Quick test_device_compute;
        ] );
      ( "figures",
        [
          Alcotest.test_case "all render" `Quick test_figures_render;
          Alcotest.test_case "Fig 5 Monte Carlo vs model" `Slow test_fig5_monte_carlo_agrees;
          Alcotest.test_case "§7 plaintext baseline" `Quick test_sec7_baseline;
        ] );
    ]
