(* Tests for mycelium_secrets: Shamir sharing, Feldman commitments,
   verifiable secret redistribution, and threshold BGV decryption. *)

module Rng = Mycelium_util.Rng
module Modarith = Mycelium_math.Modarith
module Rns = Mycelium_math.Rns
module Rq = Mycelium_math.Rq
module Shamir = Mycelium_secrets.Shamir
module Feldman = Mycelium_secrets.Feldman
module Vsr = Mycelium_secrets.Vsr
module Threshold = Mycelium_secrets.Threshold
module Params = Mycelium_bgv.Params
module Plaintext = Mycelium_bgv.Plaintext
module Bgv = Mycelium_bgv.Bgv

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let field = 1073479681 (* an NTT-friendly prime below 2^30 *)

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Shamir                                                              *)
(* ------------------------------------------------------------------ *)

let test_shamir_reconstruct_exact_threshold () =
  let rng = Rng.create 1L in
  let secret = 123456789 in
  let shares = Shamir.share_secret ~p:field rng ~threshold:3 ~parties:10 secret in
  (* Any 4 of the 10 shares reconstruct. *)
  let subsets = [ [ 0; 1; 2; 3 ]; [ 6; 7; 8; 9 ]; [ 0; 4; 5; 9 ]; [ 2; 3; 5; 7 ] ] in
  List.iter
    (fun idxs ->
      let subset = List.map (fun i -> shares.(i)) idxs in
      checki "reconstructs" secret (Shamir.reconstruct ~p:field subset))
    subsets

let test_shamir_too_few_shares_wrong () =
  let rng = Rng.create 2L in
  let secret = 42 in
  let shares = Shamir.share_secret ~p:field rng ~threshold:3 ~parties:10 secret in
  (* 3 shares interpolate a degree-2 polynomial: almost surely wrong. *)
  let v = Shamir.reconstruct ~p:field [ shares.(0); shares.(1); shares.(2) ] in
  checkb "three shares don't reconstruct" true (v <> secret)

let test_shamir_shares_look_random () =
  (* The same secret shared twice gives unrelated share values. *)
  let rng = Rng.create 3L in
  let s1 = Shamir.share_secret ~p:field rng ~threshold:2 ~parties:5 7 in
  let s2 = Shamir.share_secret ~p:field rng ~threshold:2 ~parties:5 7 in
  checkb "different randomness" true
    (Array.exists2 (fun a b -> a.Shamir.y <> b.Shamir.y) s1 s2)

let test_shamir_duplicate_x_rejected () =
  let rng = Rng.create 4L in
  let shares = Shamir.share_secret ~p:field rng ~threshold:1 ~parties:3 9 in
  Alcotest.check_raises "duplicate x" (Invalid_argument "Shamir.reconstruct: duplicate share x")
    (fun () -> ignore (Shamir.reconstruct ~p:field [ shares.(0); shares.(0) ]))

let test_shamir_any_subset_reconstructs () =
  (* Seeded randomized sweep of the §5 claim verbatim: ANY threshold+1
     of the shares reconstruct — random subsets, not a fixed prefix.
     The fixed Rng seed makes every sweep reproducible. *)
  let rng = Rng.create 4321L in
  for _ = 1 to 50 do
    let threshold = 1 + Rng.int rng 5 in
    let parties = threshold + 1 + Rng.int rng 6 in
    let secret = Rng.int rng field in
    let shares = Shamir.share_secret ~p:field rng ~threshold ~parties secret in
    let idx = Rng.sample_without_replacement rng (threshold + 1) parties in
    let subset = List.map (fun i -> shares.(i)) (Array.to_list idx) in
    checki "any t+1 subset reconstructs" secret (Shamir.reconstruct ~p:field subset)
  done

let test_shamir_validation () =
  let rng = Rng.create 5L in
  Alcotest.check_raises "threshold >= parties"
    (Invalid_argument "Shamir: too few parties for threshold") (fun () ->
      ignore (Shamir.share_secret ~p:field rng ~threshold:5 ~parties:5 1))

let prop_shamir_roundtrip =
  qtest "share/reconstruct roundtrip"
    QCheck.(triple (int_range 0 1000000) (int_range 0 5) (int_range 1 6))
    (fun (secret, threshold, extra) ->
      let parties = threshold + extra in
      let rng = Rng.create (Int64.of_int (secret + (parties * 131))) in
      let shares = Shamir.share_secret ~p:field rng ~threshold ~parties secret in
      let subset = Array.to_list (Array.sub shares 0 (threshold + 1)) in
      Shamir.reconstruct ~p:field subset = secret)

let test_shamir_linearity () =
  (* Share-wise addition shares the sum: the property threshold
     decryption relies on. *)
  let rng = Rng.create 6L in
  let a = 1111 and b = 2222 in
  let sa = Shamir.share_secret ~p:field rng ~threshold:2 ~parties:5 a in
  let sb = Shamir.share_secret ~p:field rng ~threshold:2 ~parties:5 b in
  let sum =
    Array.init 5 (fun i -> { Shamir.x = i + 1; y = Modarith.add field sa.(i).Shamir.y sb.(i).Shamir.y })
  in
  checki "sum of shares shares the sum" (a + b)
    (Shamir.reconstruct ~p:field [ sum.(0); sum.(2); sum.(4) ])

let small_basis = lazy (Rns.standard ~degree:32 ~prime_bits:28 ~levels:3)

let test_shamir_rq_roundtrip () =
  let basis = Lazy.force small_basis in
  let rng = Rng.create 7L in
  let v = Rq.random_uniform basis rng in
  let shares = Shamir.share_rq rng ~threshold:3 ~parties:8 v in
  checki "eight shares" 8 (Array.length shares);
  let subset = [ shares.(1); shares.(3); shares.(4); shares.(7) ] in
  checkb "reconstructs ring element" true (Rq.equal v (Shamir.reconstruct_rq basis subset));
  (* All 8 also reconstruct (degree < 8). *)
  checkb "full set reconstructs" true
    (Rq.equal v (Shamir.reconstruct_rq basis (Array.to_list shares)))

let test_shamir_rq_any_subset_reconstructs () =
  let basis = Lazy.force small_basis in
  let rng = Rng.create 4322L in
  for _ = 1 to 10 do
    let threshold = 1 + Rng.int rng 3 in
    let parties = threshold + 1 + Rng.int rng 4 in
    let v = Rq.random_uniform basis rng in
    let shares = Shamir.share_rq rng ~threshold ~parties v in
    let idx = Rng.sample_without_replacement rng (threshold + 1) parties in
    let subset = List.map (fun i -> shares.(i)) (Array.to_list idx) in
    checkb "any t+1 ring subset reconstructs" true
      (Rq.equal v (Shamir.reconstruct_rq basis subset))
  done

let test_shamir_rq_share_not_secret () =
  let basis = Lazy.force small_basis in
  let rng = Rng.create 8L in
  let v = Rq.random_uniform basis rng in
  let shares = Shamir.share_rq rng ~threshold:3 ~parties:8 v in
  checkb "single share differs from secret" true (not (Rq.equal v shares.(0).Shamir.value))

(* ------------------------------------------------------------------ *)
(* Feldman                                                             *)
(* ------------------------------------------------------------------ *)

(* A small prime keeps the subgroup search fast in tests. *)
let feldman_field = 7681
let feldman_group = lazy (Feldman.group_for_prime (Rng.create 100L) feldman_field)

let test_feldman_group_structure () =
  let g = Lazy.force feldman_group in
  let module B = Mycelium_math.Bigint in
  (* g has order exactly p: g^p = 1 and g <> 1. *)
  checkb "g <> 1" false (B.equal g.Feldman.g B.one);
  checkb "g^p = 1" true
    (B.equal (B.mod_pow g.Feldman.g (B.of_int feldman_field) g.Feldman.big_p) B.one)

let test_feldman_valid_shares_verify () =
  let g = Lazy.force feldman_group in
  let rng = Rng.create 101L in
  let shares, coeffs = Shamir.share_with_poly ~p:feldman_field rng ~threshold:3 ~parties:7 4242 in
  let c = Feldman.commit g coeffs in
  Array.iter (fun s -> checkb "verifies" true (Feldman.verify_share g c s)) shares

let test_feldman_bad_share_rejected () =
  let g = Lazy.force feldman_group in
  let rng = Rng.create 102L in
  let shares, coeffs = Shamir.share_with_poly ~p:feldman_field rng ~threshold:2 ~parties:5 777 in
  let c = Feldman.commit g coeffs in
  let bad = { shares.(2) with Shamir.y = Modarith.add feldman_field shares.(2).Shamir.y 1 } in
  checkb "tampered share rejected" false (Feldman.verify_share g c bad);
  let misplaced = { shares.(2) with Shamir.x = 4 } in
  checkb "misplaced share rejected" false (Feldman.verify_share g c misplaced)

let test_feldman_any_verified_subset_reconstructs () =
  (* Every share verifies against the published commitment, and any
     random threshold+1 of them reconstruct the committed secret. *)
  let g = Lazy.force feldman_group in
  let rng = Rng.create 4323L in
  for _ = 1 to 25 do
    let threshold = 1 + Rng.int rng 3 in
    let parties = threshold + 1 + Rng.int rng 5 in
    let secret = Rng.int rng feldman_field in
    let shares, coeffs =
      Shamir.share_with_poly ~p:feldman_field rng ~threshold ~parties secret
    in
    let c = Feldman.commit g coeffs in
    Array.iter (fun s -> checkb "share verifies" true (Feldman.verify_share g c s)) shares;
    let idx = Rng.sample_without_replacement rng (threshold + 1) parties in
    let subset = List.map (fun i -> shares.(i)) (Array.to_list idx) in
    checki "any verified t+1 subset reconstructs" secret
      (Shamir.reconstruct ~p:feldman_field subset)
  done

let test_feldman_commitment_binds_secret () =
  let g = Lazy.force feldman_group in
  let rng = Rng.create 103L in
  let _, coeffs = Shamir.share_with_poly ~p:feldman_field rng ~threshold:2 ~parties:5 999 in
  let c = Feldman.commit g coeffs in
  let module B = Mycelium_math.Bigint in
  checkb "C_0 = g^secret" true
    (B.equal (Feldman.commitment_to_secret c) (B.mod_pow g.Feldman.g (B.of_int 999) g.Feldman.big_p))

(* ------------------------------------------------------------------ *)
(* VSR                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vsr_scalar_redistribution () =
  let g = Lazy.force feldman_group in
  let rng = Rng.create 200L in
  let secret = 31337 mod feldman_field in
  let old_t = 2 and new_t = 3 in
  let old_shares, old_coeffs =
    Shamir.share_with_poly ~p:feldman_field rng ~threshold:old_t ~parties:6 secret
  in
  let old_commitment = Feldman.commit g old_coeffs in
  (* Subset U of t+1 old members re-share. *)
  let dealers = [ old_shares.(0); old_shares.(2); old_shares.(5) ] in
  let dealings = List.map (Vsr.deal ~group:g rng ~new_threshold:new_t ~new_parties:9) dealers in
  (* Every dealing verifies against the old commitment. *)
  List.iter
    (fun d -> checkb "dealing verifies" true (Vsr.verify_dealing ~group:g ~old_commitment d))
    dealings;
  (* New members compute their shares; any new_t+1 reconstruct. *)
  let new_shares = List.init 9 (fun j -> Vsr.finish ~p:feldman_field ~dealings (j + 1)) in
  let subset = [ List.nth new_shares 0; List.nth new_shares 3; List.nth new_shares 5; List.nth new_shares 8 ] in
  checki "redistributed secret intact" secret (Shamir.reconstruct ~p:feldman_field subset);
  (* And the published new commitment matches the new shares. *)
  let nc = Vsr.new_commitment ~group:g ~dealings in
  List.iter
    (fun s -> checkb "new share verifies against new commitment" true (Feldman.verify_share g nc s))
    new_shares;
  let module B = Mycelium_math.Bigint in
  checkb "new commitment binds same secret" true
    (B.equal (Feldman.commitment_to_secret nc) (Feldman.commitment_to_secret old_commitment))

let test_vsr_lying_dealer_detected () =
  let g = Lazy.force feldman_group in
  let rng = Rng.create 201L in
  let old_shares, old_coeffs =
    Shamir.share_with_poly ~p:feldman_field rng ~threshold:2 ~parties:5 5555
  in
  let old_commitment = Feldman.commit g old_coeffs in
  (* Dealer 2 re-shares a *different* value than its real share. *)
  let forged = { old_shares.(1) with Shamir.y = 1 } in
  let dealing = Vsr.deal ~group:g rng ~new_threshold:2 ~new_parties:5 forged in
  checkb "constant-term check catches it" false
    (Vsr.verify_dealing ~group:g ~old_commitment dealing);
  (* But the sub-shares are internally consistent, so the per-member
     check alone would pass — both checks are needed. *)
  checkb "sub-share check alone insufficient" true (Vsr.verify_sub_share ~group:g dealing 1)

let test_vsr_tampered_subshare_detected () =
  let g = Lazy.force feldman_group in
  let rng = Rng.create 202L in
  let old_shares, _ = Shamir.share_with_poly ~p:feldman_field rng ~threshold:2 ~parties:5 5555 in
  let dealing = Vsr.deal ~group:g rng ~new_threshold:2 ~new_parties:5 old_shares.(0) in
  let tampered =
    {
      dealing with
      Vsr.sub_shares =
        Array.mapi
          (fun i s -> if i = 2 then { s with Shamir.y = Modarith.add feldman_field s.Shamir.y 1 } else s)
          dealing.Vsr.sub_shares;
    }
  in
  checkb "member 3 detects tampering" false (Vsr.verify_sub_share ~group:g tampered 3);
  checkb "member 1 unaffected" true (Vsr.verify_sub_share ~group:g tampered 1)

let test_vsr_old_and_new_cannot_mix () =
  (* Shares from different sharings interpolate garbage: members of two
     committees cannot pool shares (the §4.2 property). *)
  let secret = 424242 in
  (* Mixing 2 shares of one sharing with 1 of another (same x-coords)
     must not reconstruct. *)
  let rng2 = Rng.create 204L in
  let s1 = Shamir.share_secret ~p:field rng2 ~threshold:2 ~parties:5 secret in
  let s2 = Shamir.share_secret ~p:field rng2 ~threshold:2 ~parties:5 secret in
  let mixed = [ s1.(0); s1.(1); s2.(2) ] in
  checkb "mixed-committee shares do not reconstruct" true
    (Shamir.reconstruct ~p:field mixed <> secret)

let test_vsr_rq_redistribution () =
  let basis = Lazy.force small_basis in
  let rng = Rng.create 205L in
  let secret = Rq.random_uniform basis rng in
  let old_shares = Shamir.share_rq rng ~threshold:2 ~parties:6 secret in
  (* Hand off via any 3 old members to a bigger committee. *)
  let new_shares =
    Vsr.redistribute_rq rng ~new_threshold:4 ~new_parties:10
      [ old_shares.(0); old_shares.(3); old_shares.(5) ]
  in
  checki "ten new shares" 10 (Array.length new_shares);
  let subset = Array.to_list (Array.sub new_shares 2 5) in
  checkb "redistributed ring secret intact" true
    (Rq.equal secret (Shamir.reconstruct_rq basis subset));
  (* New shares are re-randomized: differ from old ones at same x. *)
  checkb "new share differs from old" true
    (not (Rq.equal old_shares.(0).Shamir.value new_shares.(0).Shamir.value))

let test_vsr_repeated_handoffs () =
  (* Committee rotation over several rounds (the system's steady state):
     the key survives every hand-off. *)
  let basis = Lazy.force small_basis in
  let rng = Rng.create 206L in
  let secret = Rq.random_uniform basis rng in
  let shares = ref (Array.to_list (Shamir.share_rq rng ~threshold:3 ~parties:8 secret)) in
  for _round = 1 to 4 do
    let dealers =
      match !shares with a :: b :: c :: d :: _ -> [ a; b; c; d ] | _ -> assert false
    in
    shares := Array.to_list (Vsr.redistribute_rq rng ~new_threshold:3 ~new_parties:8 dealers)
  done;
  let subset = match !shares with a :: b :: c :: d :: _ -> [ a; b; c; d ] | _ -> assert false in
  checkb "secret survives four hand-offs" true (Rq.equal secret (Shamir.reconstruct_rq basis subset))

let test_vsr_batch_weights_deterministic () =
  let basis = Lazy.force small_basis in
  let w1 = Vsr.batch_weights basis ~context:(Bytes.of_string "round-7") in
  let w2 = Vsr.batch_weights basis ~context:(Bytes.of_string "round-7") in
  let w3 = Vsr.batch_weights basis ~context:(Bytes.of_string "round-8") in
  checkb "same context same weights" true (w1 = w2);
  checkb "different context different weights" true (w1 <> w3)

let test_vsr_fold_commutes_with_reconstruction () =
  (* fold_rq is linear, so folding shares then reconstructing scalars
     equals folding the reconstructed secret — the batched VSR check. *)
  let basis = Lazy.force small_basis in
  let rng = Rng.create 207L in
  let secret = Rq.random_uniform basis rng in
  let gamma = Vsr.batch_weights basis ~context:(Bytes.of_string "handoff-1") in
  let shares = Shamir.share_rq rng ~threshold:2 ~parties:5 secret in
  let primes = Rns.primes basis in
  let folded_secret = Vsr.fold_rq basis gamma secret in
  let subset = [ shares.(0); shares.(2); shares.(4) ] in
  let folded_shares =
    List.map (fun s -> (s.Shamir.idx, Vsr.fold_rq basis gamma s.Shamir.value)) subset
  in
  Array.iteri
    (fun pi p ->
      let scalar_shares =
        List.map (fun (x, folded) -> { Shamir.x; y = folded.(pi) }) folded_shares
      in
      checki (Printf.sprintf "prime %d" p) folded_secret.(pi)
        (Shamir.reconstruct ~p scalar_shares))
    primes

(* ------------------------------------------------------------------ *)
(* The ring-sharing kernel against per-dealer evaluation               *)
(* ------------------------------------------------------------------ *)

(* Reference sharing: every party evaluates every coefficient's
   polynomial by Horner ([Shamir.eval_poly]), drawing in the order
   prime, coefficient, k = 1..threshold. *)
let reference_share_rq rng ~threshold ~parties v =
  let basis = Rq.basis_of v in
  let primes = Rns.primes basis in
  let n = Rns.degree basis in
  Rq.force_eval v;
  let rows = Rq.residues v in
  let outs = Array.init parties (fun _ -> Array.map (fun _ -> Array.make n 0) primes) in
  let coeffs = Array.make (threshold + 1) 0 in
  Array.iteri
    (fun pi p ->
      for c = 0 to n - 1 do
        coeffs.(0) <- rows.(pi).(c);
        for k = 1 to threshold do
          coeffs.(k) <- Rng.int rng p
        done;
        for j = 0 to parties - 1 do
          outs.(j).(pi).(c) <- Shamir.eval_poly ~p coeffs (j + 1)
        done
      done)
    primes;
  Array.mapi (fun j rows -> { Shamir.idx = j + 1; value = Rq.of_residues ~repr:Rq.Eval basis rows }) outs

(* Reference redistribution: one reference sharing per dealer, in list
   order, then the Lagrange-weighted sum of the sub-shares. *)
let reference_redistribute_rq rng ~new_threshold ~new_parties old_shares =
  let basis = Rq.basis_of (List.hd old_shares).Shamir.value in
  let xs = Array.of_list (List.map (fun s -> s.Shamir.idx) old_shares) in
  let lambdas = Shamir.lambda_rows basis xs in
  let primes = Rns.primes basis in
  let n = Rns.degree basis in
  let acc = Array.init new_parties (fun _ -> Array.map (fun _ -> Array.make n 0) primes) in
  List.iteri
    (fun i old ->
      let subs =
        reference_share_rq rng ~threshold:new_threshold ~parties:new_parties old.Shamir.value
      in
      Array.iteri
        (fun j sub ->
          let rows = Rq.residues sub.Shamir.value in
          Array.iteri
            (fun pi p ->
              for c = 0 to n - 1 do
                acc.(j).(pi).(c) <-
                  Modarith.add p acc.(j).(pi).(c) (Modarith.mul p lambdas.(pi).(i) rows.(pi).(c))
              done)
            primes)
        subs)
    old_shares;
  Array.mapi (fun j rows -> { Shamir.idx = j + 1; value = Rq.of_residues ~repr:Rq.Eval basis rows }) acc

(* Bit-for-bit: same indices, both in Eval, identical residue rows. *)
let same_shares (a : Shamir.rq_share array) (b : Shamir.rq_share array) =
  let eval v = match Rq.repr_of v with Rq.Eval -> true | Rq.Coeff -> false in
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Shamir.rq_share) (y : Shamir.rq_share) ->
         x.Shamir.idx = y.Shamir.idx
         && eval x.Shamir.value && eval y.Shamir.value
         && Array.for_all2 (Array.for_all2 Int.equal) (Rq.residues x.Shamir.value)
              (Rq.residues y.Shamir.value))
       a b

(* (t, n) -> (t', n') shapes, t' = 0 and n' = t' + 1 included. *)
let kernel_shapes = [ ((4, 10), (4, 10)); ((2, 6), (4, 10)); ((3, 8), (3, 8));
                      ((0, 2), (0, 1)); ((1, 3), (5, 9)); ((6, 14), (6, 14)) ]

let test_kernel_matches_reference () =
  List.iteri
    (fun pi_case (pname, params) ->
      let basis = Bgv.basis (Bgv.make_ctx params) in
      List.iteri
        (fun case ((t, n), (t', n')) ->
          let label = Printf.sprintf "%s (%d,%d)->(%d,%d)" pname t n t' n' in
          let seed = Int64.of_int (400 + (16 * pi_case) + case) in
          let secret = Rq.random_uniform basis (Rng.create seed) in
          (* share_rq against per-party Horner evaluation, and the same
             number of draws (the next draw agrees too). *)
          let rng_k = Rng.create (Int64.add seed 1000L) and rng_r = Rng.create (Int64.add seed 1000L) in
          let old_shares = Shamir.share_rq rng_k ~threshold:t ~parties:n secret in
          checkb (label ^ ": share_rq bit-identical") true
            (same_shares old_shares (reference_share_rq rng_r ~threshold:t ~parties:n secret));
          checki (label ^ ": share_rq draw count") (Rng.int rng_r field) (Rng.int rng_k field);
          (* A seeded, unordered dealer set of t+1 old members. *)
          let dealers =
            Array.to_list
              (Array.map (fun i -> old_shares.(i))
                 (Rng.sample_without_replacement (Rng.create seed) (t + 1) n))
          in
          let rng_k = Rng.create (Int64.add seed 2000L) and rng_r = Rng.create (Int64.add seed 2000L) in
          let fresh = Vsr.redistribute_rq rng_k ~new_threshold:t' ~new_parties:n' dealers in
          checkb (label ^ ": redistribute_rq bit-identical") true
            (same_shares fresh (reference_redistribute_rq rng_r ~new_threshold:t' ~new_parties:n' dealers));
          checki (label ^ ": redistribute_rq draw count") (Rng.int rng_r field) (Rng.int rng_k field);
          checkb (label ^ ": secret intact") true
            (Rq.equal secret (Shamir.reconstruct_rq basis (Array.to_list (Array.sub fresh 0 (t' + 1))))))
        kernel_shapes)
    [ ("test_small", Params.test_small); ("test_medium", Params.test_medium) ]

let test_kernel_validation () =
  let basis = Lazy.force small_basis in
  let rng = Rng.create 420L in
  let shares = Shamir.share_rq rng ~threshold:1 ~parties:3 (Rq.random_uniform basis rng) in
  let dealers = [ shares.(0); shares.(2) ] in
  let redistribute ~new_threshold ~new_parties old () =
    ignore (Vsr.redistribute_rq rng ~new_threshold ~new_parties old)
  in
  Alcotest.check_raises "t' < 0" (Invalid_argument "Shamir: negative threshold")
    (redistribute ~new_threshold:(-1) ~new_parties:3 dealers);
  Alcotest.check_raises "n' < t' + 1" (Invalid_argument "Shamir: too few parties for threshold")
    (redistribute ~new_threshold:3 ~new_parties:3 dealers);
  (* Checked before anything is allocated for the new parties. *)
  Alcotest.check_raises "n' >= p" (Invalid_argument "Shamir: more parties than field elements")
    (redistribute ~new_threshold:1 ~new_parties:(1 lsl 31) dealers);
  Alcotest.check_raises "no dealers" (Invalid_argument "Vsr.redistribute_rq: no shares")
    (redistribute ~new_threshold:1 ~new_parties:3 []);
  Alcotest.check_raises "duplicate dealer" (Invalid_argument "Vsr.redistribute_rq: duplicate share index")
    (redistribute ~new_threshold:1 ~new_parties:3 [ shares.(1); shares.(1) ]);
  Alcotest.check_raises "share_rq t < 0" (Invalid_argument "Shamir: negative threshold") (fun () ->
      ignore (Shamir.share_rq rng ~threshold:(-1) ~parties:3 shares.(0).Shamir.value))

(* ------------------------------------------------------------------ *)
(* Threshold decryption                                                *)
(* ------------------------------------------------------------------ *)

let ctx = lazy (Bgv.make_ctx Params.test_small)
let keys = lazy (Bgv.keygen (Lazy.force ctx) (Rng.create 300L))

let test_threshold_decrypt () =
  let ctx = Lazy.force ctx in
  let sk, pk = Lazy.force keys in
  let rng = Rng.create 301L in
  let shares = Threshold.share_secret_key ctx rng ~threshold:4 ~parties:10 sk in
  let ct = Bgv.encrypt_value ctx rng pk 17 in
  (* Committee members 2,3,5,7,9,10 participate (6 >= t+1 = 5). *)
  let participants = [| 2; 3; 5; 7; 9; 10 |] in
  let partials =
    Array.to_list participants
    |> List.map (fun x -> Threshold.partial_decrypt ctx rng ~participants shares.(x - 1) ct)
  in
  let pt = Threshold.combine ctx ct partials in
  checki "threshold decryption" 1 (Plaintext.coeff pt 17);
  checkb "monomial" true (Plaintext.is_monomial pt = Some (17, 1))

let test_threshold_matches_direct_decrypt () =
  let ctx = Lazy.force ctx in
  let sk, pk = Lazy.force keys in
  let rng = Rng.create 302L in
  let shares = Threshold.share_secret_key ctx rng ~threshold:2 ~parties:5 sk in
  (* An aggregate: sum of three encrypted values. *)
  let agg =
    Bgv.add
      (Bgv.add (Bgv.encrypt_value ctx rng pk 3) (Bgv.encrypt_value ctx rng pk 3))
      (Bgv.encrypt_value ctx rng pk 9)
  in
  let participants = [| 1; 2; 3 |] in
  let partials =
    [ 1; 2; 3 ] |> List.map (fun x -> Threshold.partial_decrypt ctx rng ~participants shares.(x - 1) agg)
  in
  let pt = Threshold.combine ctx agg partials in
  checkb "matches direct decryption" true (Plaintext.equal pt (Bgv.decrypt ctx sk agg))

let test_threshold_wrong_participant_set_garbles () =
  let ctx = Lazy.force ctx in
  let sk, pk = Lazy.force keys in
  let rng = Rng.create 303L in
  let shares = Threshold.share_secret_key ctx rng ~threshold:2 ~parties:5 sk in
  let ct = Bgv.encrypt_value ctx rng pk 4 in
  (* Partials computed for set {1,2,3} but member 3 never contributes. *)
  let participants = [| 1; 2; 3 |] in
  let partials =
    [ 1; 2 ] |> List.map (fun x -> Threshold.partial_decrypt ctx rng ~participants shares.(x - 1) ct)
  in
  let pt = Threshold.combine ctx ct partials in
  checkb "missing partial garbles output" false (Plaintext.equal pt (Bgv.decrypt ctx sk ct))

let test_threshold_requires_degree1 () =
  let ctx = Lazy.force ctx in
  let sk, pk = Lazy.force keys in
  let rng = Rng.create 304L in
  let shares = Threshold.share_secret_key ctx rng ~threshold:2 ~parties:5 sk in
  let prod = Bgv.mul (Bgv.encrypt_value ctx rng pk 1) (Bgv.encrypt_value ctx rng pk 1) in
  Alcotest.check_raises "degree-2 rejected"
    (Invalid_argument "Threshold.partial_decrypt: ciphertext must be relinearized to degree 1")
    (fun () ->
      ignore (Threshold.partial_decrypt ctx rng ~participants:[| 1; 2; 3 |] shares.(0) prod))

let test_threshold_committee_capture () =
  (* Fig 8a's failure mode: threshold+1 malicious members reconstruct
     the key outright. *)
  let ctx = Lazy.force ctx in
  let sk, pk = Lazy.force keys in
  let rng = Rng.create 305L in
  let shares = Threshold.share_secret_key ctx rng ~threshold:4 ~parties:10 sk in
  let captured = Threshold.reconstruct_secret_key ctx (Array.to_list (Array.sub shares 0 5)) in
  let ct = Bgv.encrypt_value ctx rng pk 13 in
  checkb "captured key decrypts everything" true
    (Plaintext.equal (Bgv.decrypt ctx captured ct) (Bgv.decrypt ctx sk ct))

let test_threshold_decrypt_any_live_subset () =
  (* The §6.3 liveness helper: decryption succeeds from any >= t+1
     live shares (random subsets, fixed seed), takes exactly t+1
     participants, and fails below quorum or on unrelinearized
     input. *)
  let ctx = Lazy.force ctx in
  let sk, pk = Lazy.force keys in
  let rng = Rng.create 307L in
  let shares = Threshold.share_secret_key ctx rng ~threshold:4 ~parties:10 sk in
  let ct = Bgv.encrypt_value ctx rng pk 23 in
  for _ = 1 to 5 do
    let live_n = 5 + Rng.int rng 6 in
    let idx = Rng.sample_without_replacement rng live_n 10 in
    let live = List.map (fun i -> shares.(i)) (Array.to_list idx) in
    match Threshold.decrypt ctx rng ~threshold:4 ~live ct with
    | Ok (pt, participants) ->
      checki "monomial 23" 1 (Plaintext.coeff pt 23);
      checki "exactly t+1 participate" 5 (Array.length participants)
    | Error e -> Alcotest.fail e
  done;
  (match
     Threshold.decrypt ctx rng ~threshold:4 ~live:(Array.to_list (Array.sub shares 0 4)) ct
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "4 shares decrypted with threshold 4");
  let prod = Bgv.mul (Bgv.encrypt_value ctx rng pk 1) (Bgv.encrypt_value ctx rng pk 1) in
  match Threshold.decrypt ctx rng ~threshold:4 ~live:(Array.to_list shares) prod with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "degree-2 ciphertext accepted"

let test_threshold_after_vsr_handoff () =
  (* End-to-end §4.2 lifecycle: genesis shares -> VSR hand-off -> the
     *new* committee threshold-decrypts. *)
  let ctx = Lazy.force ctx in
  let sk, pk = Lazy.force keys in
  let rng = Rng.create 306L in
  let genesis = Threshold.share_secret_key ctx rng ~threshold:3 ~parties:7 sk in
  let second =
    Vsr.redistribute_rq rng ~new_threshold:4 ~new_parties:10
      [ genesis.(0); genesis.(2); genesis.(4); genesis.(6) ]
  in
  let ct = Bgv.encrypt_value ctx rng pk 21 in
  let participants = [| 1; 4; 5; 8; 10 |] in
  let partials =
    Array.to_list participants
    |> List.map (fun x -> Threshold.partial_decrypt ctx rng ~participants second.(x - 1) ct)
  in
  let pt = Threshold.combine ctx ct partials in
  checki "new committee decrypts" 1 (Plaintext.coeff pt 21)

let () =
  Alcotest.run "mycelium-secrets"
    [
      ( "shamir",
        [
          Alcotest.test_case "reconstruct with t+1" `Quick test_shamir_reconstruct_exact_threshold;
          Alcotest.test_case "t shares insufficient" `Quick test_shamir_too_few_shares_wrong;
          Alcotest.test_case "rerandomized" `Quick test_shamir_shares_look_random;
          Alcotest.test_case "duplicate x rejected" `Quick test_shamir_duplicate_x_rejected;
          Alcotest.test_case "validation" `Quick test_shamir_validation;
          prop_shamir_roundtrip;
          Alcotest.test_case "any t+1 subset (seeded sweep)" `Quick
            test_shamir_any_subset_reconstructs;
          Alcotest.test_case "linearity" `Quick test_shamir_linearity;
          Alcotest.test_case "ring-element roundtrip" `Quick test_shamir_rq_roundtrip;
          Alcotest.test_case "any t+1 ring subset (seeded sweep)" `Quick
            test_shamir_rq_any_subset_reconstructs;
          Alcotest.test_case "ring share hides secret" `Quick test_shamir_rq_share_not_secret;
        ] );
      ( "feldman",
        [
          Alcotest.test_case "group structure" `Quick test_feldman_group_structure;
          Alcotest.test_case "valid shares verify" `Quick test_feldman_valid_shares_verify;
          Alcotest.test_case "bad share rejected" `Quick test_feldman_bad_share_rejected;
          Alcotest.test_case "any verified t+1 subset (seeded sweep)" `Quick
            test_feldman_any_verified_subset_reconstructs;
          Alcotest.test_case "commitment binds secret" `Quick test_feldman_commitment_binds_secret;
        ] );
      ( "vsr",
        [
          Alcotest.test_case "scalar redistribution" `Quick test_vsr_scalar_redistribution;
          Alcotest.test_case "lying dealer detected" `Quick test_vsr_lying_dealer_detected;
          Alcotest.test_case "tampered sub-share detected" `Quick test_vsr_tampered_subshare_detected;
          Alcotest.test_case "committees cannot mix shares" `Quick test_vsr_old_and_new_cannot_mix;
          Alcotest.test_case "ring redistribution" `Quick test_vsr_rq_redistribution;
          Alcotest.test_case "repeated hand-offs" `Quick test_vsr_repeated_handoffs;
          Alcotest.test_case "batch weights deterministic" `Quick test_vsr_batch_weights_deterministic;
          Alcotest.test_case "fold commutes with reconstruction" `Quick test_vsr_fold_commutes_with_reconstruction;
          Alcotest.test_case "kernel matches per-dealer evaluation" `Quick test_kernel_matches_reference;
          Alcotest.test_case "kernel validation" `Quick test_kernel_validation;
        ] );
      ( "threshold",
        [
          Alcotest.test_case "committee decrypts" `Quick test_threshold_decrypt;
          Alcotest.test_case "matches direct decryption" `Quick test_threshold_matches_direct_decrypt;
          Alcotest.test_case "wrong participant set garbles" `Quick test_threshold_wrong_participant_set_garbles;
          Alcotest.test_case "degree-1 required" `Quick test_threshold_requires_degree1;
          Alcotest.test_case "committee capture (Fig 8a)" `Quick test_threshold_committee_capture;
          Alcotest.test_case "any live subset (seeded sweep)" `Quick
            test_threshold_decrypt_any_live_subset;
          Alcotest.test_case "decrypt after VSR hand-off" `Quick test_threshold_after_vsr_handoff;
        ] );
    ]
