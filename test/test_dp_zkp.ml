(* Tests for mycelium_dp (Laplace mechanism, budget) and mycelium_zkp
   (simulated Groth16 with real constraint checking). *)

module Rng = Mycelium_util.Rng
module Stats = Mycelium_util.Stats
module Dp = Mycelium_dp.Dp
module Zkp = Mycelium_zkp.Zkp
module Params = Mycelium_bgv.Params
module Plaintext = Mycelium_bgv.Plaintext
module Bgv = Mycelium_bgv.Bgv

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf name = Alcotest.(check (float 1e-9)) name

(* ------------------------------------------------------------------ *)
(* DP                                                                  *)
(* ------------------------------------------------------------------ *)

let test_sensitivity_bounds () =
  checkf "histo 1-hop" 2.0 (Dp.histo_sensitivity ~neighborhood_bound:1);
  checkf "histo influence 11" 22.0 (Dp.histo_sensitivity ~neighborhood_bound:11);
  checkf "gsum clip [0,10]" 10.0 (Dp.gsum_sensitivity ~clip_lo:0. ~clip_hi:10. ~neighborhood_bound:1);
  checkf "gsum with influence" 50.0 (Dp.gsum_sensitivity ~clip_lo:0. ~clip_hi:10. ~neighborhood_bound:5);
  Alcotest.check_raises "empty clip" (Invalid_argument "Dp.gsum_sensitivity: empty clipping range")
    (fun () -> ignore (Dp.gsum_sensitivity ~clip_lo:1. ~clip_hi:0. ~neighborhood_bound:1))

let test_laplace_scale () =
  (* Lap(s/eps) has stddev sqrt(2) * s / eps. *)
  let rng = Rng.create 1L in
  let s = 2.0 and eps = 0.5 in
  let xs = Array.init 200_000 (fun _ -> Dp.release_sum rng ~sensitivity:s ~epsilon:eps 0.) in
  let expected = sqrt 2. *. s /. eps in
  checkb "stddev matches" true (Float.abs (Testkit.stddev xs -. expected) /. expected < 0.03);
  checkb "mean near zero" true (Float.abs (Stats.mean xs) < 0.05)

let test_epsilon_infinity_exact () =
  let rng = Rng.create 2L in
  checkf "no noise" 7. (Dp.release_sum rng ~sensitivity:5. ~epsilon:Float.infinity 7.);
  let released = Dp.release_histogram rng ~sensitivity:2. ~epsilon:Float.infinity [| 3; 1; 4 |] in
  checkb "exact release" true (released = [| 3.; 1.; 4. |])

let test_release_histogram_noisy () =
  let rng = Rng.create 3L in
  let counts = Array.make 50 100 in
  let released = Dp.release_histogram rng ~sensitivity:2. ~epsilon:1.0 counts in
  (* Bins perturbed but near the truth. *)
  checkb "perturbed" true (Array.exists (fun v -> v <> 100.) released);
  Array.iter (fun v -> checkb "within 12 sigma-ish" true (Float.abs (v -. 100.) < 40.)) released

let test_budget_accounting () =
  let b = Dp.budget_create ~total:1.0 () in
  checkf "full" 1.0 (Dp.budget_remaining b);
  checkb "first query ok" true (Dp.budget_charge b 0.4 = Ok ());
  checkb "second query ok" true (Dp.budget_charge b 0.4 = Ok ());
  checkf "remaining" 0.2 (Dp.budget_remaining b);
  (match Dp.budget_charge b 0.4 with
  | Error (`Exhausted r) -> checkb "reports remaining" true (Float.abs (r -. 0.2) < 1e-9)
  | Ok () -> Alcotest.fail "over-budget query accepted");
  (* Failed charges spend nothing. *)
  checkf "unchanged after refusal" 0.2 (Dp.budget_remaining b);
  checkb "exact exhaustion allowed" true (Dp.budget_charge b 0.2 = Ok ())

let test_advanced_composition () =
  (* Advanced composition stretches the budget (§4.4) once the query
     count passes ~2 ln(1/delta): many *small* queries compose
     sublinearly (sqrt(k) instead of k). *)
  let eps_each = 0.01 in
  let queries_under accounting =
    let b = Dp.budget_create ~accounting ~total:1.0 () in
    let n = ref 0 in
    while Dp.budget_charge b eps_each = Ok () && !n < 10_000 do
      incr n
    done;
    !n
  in
  let basic = queries_under Dp.Basic in
  let advanced = queries_under (Dp.Advanced { delta = 1e-6 }) in
  checki "basic fits total/eps queries" 100 basic;
  checkb (Printf.sprintf "advanced fits more (%d > %d)" advanced basic) true (advanced > basic);
  (* What the accountant spends on k identical queries is the
     Dwork-Roth bound. *)
  let spent accounting epsilons =
    let b = Dp.budget_create ~accounting ~total:1e9 () in
    List.iter (fun e -> checkb "charge admitted" true (Dp.budget_charge b e = Ok ())) epsilons;
    Dp.budget_spent b
  in
  let eps = spent (Dp.Advanced { delta = 1e-6 }) (List.init 50 (fun _ -> 0.1)) in
  let expected = sqrt (2. *. log 1e6 *. 50. *. 0.01) +. (50. *. 0.1 *. (exp 0.1 -. 1.)) in
  checkb "matches Dwork-Roth formula" true (Float.abs (eps -. expected) < 1e-9);
  (* For a single query, advanced is worse (the sqrt term) — the
     crossover is why the paper's default stays Basic. *)
  checkb "single query: basic cheaper" true
    (spent Dp.Basic [ 0.5 ] < spent (Dp.Advanced { delta = 1e-6 }) [ 0.5 ])

(* A NaN charge must never be admitted: it would turn the running sums
   into NaN, after which every over-budget comparison is false and
   nothing is ever refused again. *)
let test_budget_nan_never_admitted () =
  let b = Dp.budget_create ~total:1.0 () in
  checkb "0.6 admitted" true (Dp.budget_charge b 0.6 = Ok ());
  checkb "second 0.6 refused" true (Result.is_error (Dp.budget_charge b 0.6));
  Alcotest.check_raises "NaN refused" (Invalid_argument "Dp.budget_charge: epsilon must be positive")
    (fun () -> ignore (Dp.budget_charge b Float.nan));
  Alcotest.check_raises "zero refused" (Invalid_argument "Dp.budget_charge: epsilon must be positive")
    (fun () -> ignore (Dp.budget_charge b 0.));
  checkf "spent unchanged" 0.6 (Dp.budget_spent b);
  checkf "remaining unchanged" 0.4 (Dp.budget_remaining b);
  for _ = 1 to 3 do
    checkb "epsilon 100 refused" true (Result.is_error (Dp.budget_charge b 100.))
  done;
  checkb "infinite epsilon refused" true (Result.is_error (Dp.budget_charge b Float.infinity));
  checkf "still unchanged" 0.4 (Dp.budget_remaining b)

let test_budget_validation () =
  Alcotest.check_raises "bad total" (Invalid_argument "Dp.budget_create: total must be positive")
    (fun () -> ignore (Dp.budget_create ~total:0. ()));
  let b = Dp.budget_create ~total:1.0 () in
  Alcotest.check_raises "bad epsilon" (Invalid_argument "Dp.budget_charge: epsilon must be positive")
    (fun () -> ignore (Dp.budget_charge b (-1.)))

(* ------------------------------------------------------------------ *)
(* ZKP                                                                 *)
(* ------------------------------------------------------------------ *)

let ctx = lazy (Bgv.make_ctx Params.test_small)
let keys = lazy (Bgv.keygen (Lazy.force ctx) (Rng.create 500L))
let srs = lazy (Zkp.setup (Rng.create 501L))

let mono e =
  let p = Params.test_small in
  Plaintext.monomial ~plain_modulus:p.Params.plain_modulus ~degree:p.Params.degree ~exponent:e

let encrypt_seeded seed pt =
  let ctx = Lazy.force ctx in
  let _, pk = Lazy.force keys in
  Bgv.encrypt ctx (Rng.create seed) pk pt

let test_zkp_contribution_roundtrip () =
  let ctx = Lazy.force ctx in
  let _, pk = Lazy.force keys in
  let srs = Lazy.force srs in
  let pt = mono 1 in
  let ct = encrypt_seeded 7L pt in
  match Zkp.prove_contribution srs ctx pk ~plaintext:pt ~seed:7L ct with
  | Some proof ->
    checkb "verifies" true (Zkp.verify_contribution srs ctx ct proof)
  | None -> Alcotest.fail "honest prover refused"

let test_zkp_zero_plaintext_admissible () =
  (* Predicate-false contributions are Enc(0) and must be provable. *)
  let ctx = Lazy.force ctx in
  let _, pk = Lazy.force keys in
  let srs = Lazy.force srs in
  let pt = Plaintext.zero ~plain_modulus:(Bgv.plain_modulus ctx) ~degree:16 in
  let ct = encrypt_seeded 8L pt in
  checkb "provable" true (Zkp.prove_contribution srs ctx pk ~plaintext:pt ~seed:8L ct <> None)

let test_zkp_bad_plaintext_refused () =
  let ctx = Lazy.force ctx in
  let _, pk = Lazy.force keys in
  let srs = Lazy.force srs in
  (* Coefficient 2: a Byzantine device trying to double-count (§4.6). *)
  let pt = Plaintext.create ~plain_modulus:(Bgv.plain_modulus ctx) [| 0; 2 |] in
  let ct = encrypt_seeded 9L pt in
  checkb "no proof for coefficient > 1" true
    (Zkp.prove_contribution srs ctx pk ~plaintext:pt ~seed:9L ct = None);
  (* Two non-zero coefficients. *)
  let pt2 = Plaintext.create ~plain_modulus:(Bgv.plain_modulus ctx) [| 1; 1 |] in
  let ct2 = encrypt_seeded 10L pt2 in
  checkb "no proof for two bins" true
    (Zkp.prove_contribution srs ctx pk ~plaintext:pt2 ~seed:10L ct2 = None)

let test_zkp_mismatched_witness_refused () =
  let ctx = Lazy.force ctx in
  let _, pk = Lazy.force keys in
  let srs = Lazy.force srs in
  let pt = mono 1 in
  let ct = encrypt_seeded 11L pt in
  (* Claiming a different (admissible) plaintext than what's inside. *)
  checkb "wrong plaintext refused" true
    (Zkp.prove_contribution srs ctx pk ~plaintext:(mono 0) ~seed:11L ct = None);
  (* Right plaintext, wrong randomness. *)
  checkb "wrong seed refused" true
    (Zkp.prove_contribution srs ctx pk ~plaintext:pt ~seed:12L ct = None)

let test_zkp_forgery_rejected () =
  let ctx = Lazy.force ctx in
  let srs = Lazy.force srs in
  let ct = encrypt_seeded 13L (mono 2) in
  let forged = Zkp.forge (Rng.create 502L) in
  checkb "forged proof rejected" false (Zkp.verify_contribution srs ctx ct forged)

let test_zkp_proof_not_transferable () =
  (* A proof for ciphertext A must not verify for ciphertext B. *)
  let ctx = Lazy.force ctx in
  let _, pk = Lazy.force keys in
  let srs = Lazy.force srs in
  let pt = mono 1 in
  let ct_a = encrypt_seeded 14L pt in
  let ct_b = encrypt_seeded 15L pt in
  match Zkp.prove_contribution srs ctx pk ~plaintext:pt ~seed:14L ct_a with
  | Some proof -> checkb "not transferable" false (Zkp.verify_contribution srs ctx ct_b proof)
  | None -> Alcotest.fail "honest prover refused"

(* Statement 2 as the pipeline proves it: Contribution.aggregate_subtree
   signs a "subtree-aggregation" transcript whose recompute is
   Bgv.mul_many. *)
let subtree_proof ?(label = "subtree-aggregation") ?(context = Bytes.empty) inputs output =
  Zkp.prove_transcript (Lazy.force srs) ~label ~context ~inputs ~output ~recompute:Bgv.mul_many

let encrypt_values seed values =
  let ctx = Lazy.force ctx in
  let _, pk = Lazy.force keys in
  let rng = Rng.create seed in
  List.map (fun v -> Bgv.encrypt_value ctx rng pk v) values

let test_zkp_product_roundtrip () =
  let srs = Lazy.force srs in
  let inputs = encrypt_values 503L [ 1; 0; 1 ] in
  let output = Bgv.mul_many inputs in
  (match subtree_proof inputs output with
  | Some proof ->
    checkb "verifies" true
      (Zkp.verify_transcript srs ~label:"subtree-aggregation" ~context:Bytes.empty ~inputs
         ~output proof)
  | None -> Alcotest.fail "honest prover refused");
  (* A wrong product must be unprovable. *)
  let wrong = Bgv.mul_many (List.tl inputs) in
  checkb "wrong product refused" true (subtree_proof inputs wrong = None)

let test_zkp_product_input_substitution () =
  let srs = Lazy.force srs in
  let inputs = encrypt_values 504L [ 1; 1 ] in
  let output = Bgv.mul_many inputs in
  match subtree_proof inputs output with
  | Some proof ->
    (* Verifying against a different input set fails. *)
    let other = encrypt_values 506L [ 1; 1 ] in
    checkb "inputs bound" false
      (Zkp.verify_transcript srs ~label:"subtree-aggregation" ~context:Bytes.empty
         ~inputs:other ~output proof)
  | None -> Alcotest.fail "honest prover refused"

let test_zkp_transcript_label_bound () =
  let srs = Lazy.force srs in
  let inputs = encrypt_values 507L [ 2; 3 ] in
  let output = Bgv.mul_many inputs in
  match subtree_proof inputs output with
  | Some proof ->
    checkb "same label verifies" true
      (Zkp.verify_transcript srs ~label:"subtree-aggregation" ~context:Bytes.empty ~inputs
         ~output proof);
    checkb "other label rejected" false
      (Zkp.verify_transcript srs ~label:"origin-aggregation" ~context:Bytes.empty ~inputs
         ~output proof)
  | None -> Alcotest.fail "honest prover refused"

let test_zkp_transcript_context_bound () =
  let srs = Lazy.force srs in
  let inputs = encrypt_values 508L [ 4; 1 ] in
  let output = Bgv.mul_many inputs in
  let q2 = Bytes.of_string "Q2" and q4 = Bytes.of_string "Q4" in
  match subtree_proof ~context:q2 inputs output with
  | Some proof ->
    checkb "same context verifies" true
      (Zkp.verify_transcript srs ~label:"subtree-aggregation" ~context:q2 ~inputs ~output proof);
    checkb "other context rejected" false
      (Zkp.verify_transcript srs ~label:"subtree-aggregation" ~context:q4 ~inputs ~output proof)
  | None -> Alcotest.fail "honest prover refused"

let test_zkp_different_srs () =
  let ctx = Lazy.force ctx in
  let _, pk = Lazy.force keys in
  let srs_a = Lazy.force srs in
  let srs_b = Zkp.setup (Rng.create 505L) in
  let pt = mono 3 in
  let ct = encrypt_seeded 16L pt in
  match Zkp.prove_contribution srs_a ctx pk ~plaintext:pt ~seed:16L ct with
  | Some proof -> checkb "proof tied to setup" false (Zkp.verify_contribution srs_b ctx ct proof)
  | None -> Alcotest.fail "honest prover refused"

(* Proof bytes recorded before statements streamed ciphertexts into
   SHA-256 instead of hashing their serializations: the digests, and so
   the proofs, must not move. *)
let test_zkp_proofs_pinned () =
  let ctx = Lazy.force ctx in
  let _, pk = Lazy.force keys in
  let srs = Lazy.force srs in
  let hex p = Testkit.Hex.encode (Zkp.proof_to_bytes p) in
  let pt = mono 1 in
  let ct = encrypt_seeded 7L pt in
  let contribution =
    match Zkp.prove_contribution srs ctx pk ~plaintext:pt ~seed:7L ct with
    | Some proof -> hex proof
    | None -> Alcotest.fail "honest prover refused"
  in
  let inputs = encrypt_values 503L [ 1; 0; 1 ] in
  let transcript =
    match subtree_proof ~context:(Bytes.of_string "Q2") inputs (Bgv.mul_many inputs) with
    | Some proof -> hex proof
    | None -> Alcotest.fail "honest prover refused"
  in
  Alcotest.(check (list (pair string string)))
    "proof bytes"
    [
      ( "contribution",
        "bf01e78fe3b04ce67e838d4215dd2e26996c20398814ce0747f183ca7dc8dce0"
        ^ "c24a1f5cc7b18ddc7726f4eb2900c08e2b6cb026637dfcd5522226a3b46593d9" );
      ( "transcript",
        "10c63d47cdde398c9002dca111c76307576ffce9f5e7b1d7d18835a4b9a34474"
        ^ "92883a3d84501a0ea579a1cc6b1d927cae558f34470f150c1208a0c76761b42e" );
    ]
    [ ("contribution", contribution); ("transcript", transcript) ]

let test_zkp_cost_model () =
  (* Anchors from the paper: ~1 min proving, ~10 s verification of a
     4.3 MB ciphertext, 192-byte proofs. *)
  let c = Zkp.Cost.contribution_constraints Params.paper in
  let prove = Zkp.Cost.prove_seconds ~constraints:c in
  checkb "prove near a minute" true (prove > 30. && prove < 120.);
  let verify = Zkp.Cost.verify_seconds ~public_io_bytes:(Params.ciphertext_bytes Params.paper ~degree:1) in
  checkb "verify ~10s" true (verify > 5. && verify < 20.);
  (* Verification cost grows with I/O. *)
  checkb "monotone in IO" true
    (Zkp.Cost.verify_seconds ~public_io_bytes:2_000_000
    < Zkp.Cost.verify_seconds ~public_io_bytes:8_000_000)

let () =
  Alcotest.run "mycelium-dp-zkp"
    [
      ( "dp",
        [
          Alcotest.test_case "sensitivity bounds" `Quick test_sensitivity_bounds;
          Alcotest.test_case "laplace scale" `Slow test_laplace_scale;
          Alcotest.test_case "epsilon infinity exact" `Quick test_epsilon_infinity_exact;
          Alcotest.test_case "noisy histogram release" `Quick test_release_histogram_noisy;
          Alcotest.test_case "budget accounting" `Quick test_budget_accounting;
          Alcotest.test_case "advanced composition" `Quick test_advanced_composition;
          Alcotest.test_case "budget validation" `Quick test_budget_validation;
          Alcotest.test_case "NaN never admitted" `Quick test_budget_nan_never_admitted;
        ] );
      ( "zkp",
        [
          Alcotest.test_case "contribution roundtrip" `Quick test_zkp_contribution_roundtrip;
          Alcotest.test_case "zero plaintext admissible" `Quick test_zkp_zero_plaintext_admissible;
          Alcotest.test_case "bad plaintext refused" `Quick test_zkp_bad_plaintext_refused;
          Alcotest.test_case "mismatched witness refused" `Quick test_zkp_mismatched_witness_refused;
          Alcotest.test_case "forgery rejected" `Quick test_zkp_forgery_rejected;
          Alcotest.test_case "proof not transferable" `Quick test_zkp_proof_not_transferable;
          Alcotest.test_case "product roundtrip" `Quick test_zkp_product_roundtrip;
          Alcotest.test_case "product inputs bound" `Quick test_zkp_product_input_substitution;
          Alcotest.test_case "transcript label bound" `Quick test_zkp_transcript_label_bound;
          Alcotest.test_case "transcript context bound" `Quick test_zkp_transcript_context_bound;
          Alcotest.test_case "proof tied to setup" `Quick test_zkp_different_srs;
          Alcotest.test_case "proofs pinned" `Quick test_zkp_proofs_pinned;
          Alcotest.test_case "Groth16 cost anchors" `Quick test_zkp_cost_model;
        ] );
    ]
