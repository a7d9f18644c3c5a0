(* Tests for mycelium_secrets: Shamir sharing of ring elements, the
   committee hand-off (secret redistribution), and threshold BGV
   decryption. *)

module Rng = Mycelium_util.Rng
module Modarith = Mycelium_math.Modarith
module Rns = Mycelium_math.Rns
module Rq = Mycelium_math.Rq
module Shamir = Mycelium_secrets.Shamir
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

let small_basis = lazy (Rns.standard ~degree:32 ~prime_bits:28 ~levels:3)

let test_shamir_reconstruct_exact_threshold () =
  let basis = Lazy.force small_basis in
  let rng = Rng.create 1L in
  let secret = Rq.random_uniform basis rng in
  let shares = Shamir.share_rq rng ~threshold:3 ~parties:10 secret in
  (* Any 4 of the 10 shares reconstruct. *)
  let subsets = [ [ 0; 1; 2; 3 ]; [ 6; 7; 8; 9 ]; [ 0; 4; 5; 9 ]; [ 2; 3; 5; 7 ] ] in
  List.iter
    (fun idxs ->
      let subset = List.map (fun i -> shares.(i)) idxs in
      checkb "reconstructs" true (Rq.equal secret (Shamir.reconstruct_rq basis subset)))
    subsets

let test_shamir_too_few_shares_wrong () =
  let basis = Lazy.force small_basis in
  let rng = Rng.create 2L in
  let secret = Rq.random_uniform basis rng in
  let shares = Shamir.share_rq rng ~threshold:3 ~parties:10 secret in
  (* 3 shares interpolate a degree-2 polynomial: almost surely wrong. *)
  let v = Shamir.reconstruct_rq basis [ shares.(0); shares.(1); shares.(2) ] in
  checkb "three shares don't reconstruct" false (Rq.equal v secret)

let test_shamir_shares_look_random () =
  (* The same secret shared twice gives unrelated share values. *)
  let basis = Lazy.force small_basis in
  let rng = Rng.create 3L in
  let secret = Rq.random_uniform basis rng in
  let s1 = Shamir.share_rq rng ~threshold:2 ~parties:5 secret in
  let s2 = Shamir.share_rq rng ~threshold:2 ~parties:5 secret in
  checkb "different randomness" true
    (Array.exists2 (fun a b -> not (Rq.equal a.Shamir.value b.Shamir.value)) s1 s2)

let test_shamir_validation () =
  let basis = Lazy.force small_basis in
  let rng = Rng.create 5L in
  Alcotest.check_raises "threshold >= parties"
    (Invalid_argument "Shamir: too few parties for threshold") (fun () ->
      ignore (Shamir.share_rq rng ~threshold:5 ~parties:5 (Rq.zero basis)))

let prop_shamir_roundtrip =
  qtest "share/reconstruct roundtrip"
    QCheck.(triple (int_range 0 1000000) (int_range 0 5) (int_range 1 6))
    (fun (seed, threshold, extra) ->
      let basis = Lazy.force small_basis in
      let parties = threshold + extra in
      let rng = Rng.create (Int64.of_int (seed + (parties * 131))) in
      let secret = Rq.random_uniform basis rng in
      let shares = Shamir.share_rq rng ~threshold ~parties secret in
      let subset = Array.to_list (Array.sub shares 0 (threshold + 1)) in
      Rq.equal secret (Shamir.reconstruct_rq basis subset))

let test_shamir_linearity () =
  (* Share-wise addition shares the sum: the property threshold
     decryption relies on. *)
  let basis = Lazy.force small_basis in
  let rng = Rng.create 6L in
  let a = Rq.random_uniform basis rng and b = Rq.random_uniform basis rng in
  let sa = Shamir.share_rq rng ~threshold:2 ~parties:5 a in
  let sb = Shamir.share_rq rng ~threshold:2 ~parties:5 b in
  let sum =
    Array.map2 (fun x y -> { x with Shamir.value = Rq.add x.Shamir.value y.Shamir.value }) sa sb
  in
  checkb "sum of shares shares the sum" true
    (Rq.equal (Rq.add a b) (Shamir.reconstruct_rq basis [ sum.(0); sum.(2); sum.(4) ]))

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

let test_shamir_duplicate_x_rejected () =
  (* Two shares at one x leave the Lagrange system singular: refused,
     not interpolated into garbage. *)
  let basis = Lazy.force small_basis in
  let rng = Rng.create 4L in
  let shares = Shamir.share_rq rng ~threshold:1 ~parties:3 (Rq.random_uniform basis rng) in
  checkb "duplicate x refused" true
    (match Shamir.reconstruct_rq basis [ shares.(0); shares.(0) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_shamir_lagrange_known_answers () =
  (* At zero, f(0) = 2 f(1) - f(2) for a line and 3 f(1) - 3 f(2) + f(3)
     for a parabola; and any point set's weights sum to one, since they
     interpolate the constant polynomial 1. *)
  let basis = Lazy.force small_basis in
  let rows xs = Shamir.lambda_rows basis xs in
  Array.iteri
    (fun pi p ->
      checkb "x = 1,2" true ((rows [| 1; 2 |]).(pi) = [| 2; p - 1 |]);
      checkb "x = 1,2,3" true ((rows [| 1; 2; 3 |]).(pi) = [| 3; p - 3; 1 |]);
      List.iter
        (fun xs ->
          checki "weights sum to one" 1
            (Array.fold_left (Modarith.add p) 0 (rows xs).(pi)))
        [ [| 5 |]; [| 2; 9 |]; [| 10; 3; 7; 1 |]; [| 4; 6; 8; 11; 13 |] ])
    (Rns.primes basis)

let test_shamir_weighted_kernel () =
  (* The kernel shares sum_i w_i * v_i: weights 3 and -1 share 3a - b. *)
  let basis = Lazy.force small_basis in
  let rng = Rng.create 9L in
  let a = Rq.random_uniform basis rng and b = Rq.random_uniform basis rng in
  let weights = Array.map (fun p -> [| 3; p - 1 |]) (Rns.primes basis) in
  let shares = Shamir.share_rq_weighted rng ~threshold:2 ~parties:5 ~weights [ a; b ] in
  checkb "any t+1 reconstruct 3a - b" true
    (Rq.equal (Rq.sub (Rq.mul_scalar a 3) b)
       (Shamir.reconstruct_rq basis [ shares.(1); shares.(2); shares.(4) ]));
  Alcotest.check_raises "no values" (Invalid_argument "Shamir.share_rq_weighted: no values")
    (fun () -> ignore (Shamir.share_rq_weighted rng ~threshold:2 ~parties:5 ~weights []))

(* ------------------------------------------------------------------ *)
(* Secret redistribution                                               *)
(* ------------------------------------------------------------------ *)

let test_vsr_old_and_new_cannot_mix () =
  (* Shares from different sharings interpolate garbage: members of two
     committees cannot pool shares (the §4.2 property). *)
  let basis = Lazy.force small_basis in
  let rng = Rng.create 204L in
  let secret = Rq.random_uniform basis rng in
  (* Mixing 2 shares of one sharing with 1 of another (same x-coords)
     must not reconstruct. *)
  let s1 = Shamir.share_rq rng ~threshold:2 ~parties:5 secret in
  let s2 = Shamir.share_rq rng ~threshold:2 ~parties:5 secret in
  let mixed = [ s1.(0); s1.(1); s2.(2) ] in
  checkb "mixed-committee shares do not reconstruct" false
    (Rq.equal secret (Shamir.reconstruct_rq basis mixed))

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

let test_vsr_old_and_new_cannot_pool () =
  (* After a real hand-off, t old members and one new member at a
     fresh point hold t+1 points of two unrelated polynomials. *)
  let basis = Lazy.force small_basis in
  let rng = Rng.create 208L in
  let secret = Rq.random_uniform basis rng in
  let old_shares = Shamir.share_rq rng ~threshold:2 ~parties:6 secret in
  let new_shares =
    Vsr.redistribute_rq rng ~new_threshold:2 ~new_parties:6
      [ old_shares.(1); old_shares.(3); old_shares.(4) ]
  in
  checkb "two old + one new do not reconstruct" false
    (Rq.equal secret (Shamir.reconstruct_rq basis [ old_shares.(0); old_shares.(1); new_shares.(5) ]));
  checkb "one old + two new do not reconstruct" false
    (Rq.equal secret (Shamir.reconstruct_rq basis [ old_shares.(0); new_shares.(3); new_shares.(5) ]));
  checkb "three new reconstruct" true
    (Rq.equal secret (Shamir.reconstruct_rq basis [ new_shares.(0); new_shares.(3); new_shares.(5) ]))

let test_vsr_new_threshold_holds () =
  (* The new committee inherits threshold t', not the old t: every
     t'+1 new shares reconstruct and t' of them do not. *)
  let basis = Lazy.force small_basis in
  let rng = Rng.create 209L in
  let secret = Rq.random_uniform basis rng in
  let old_shares = Shamir.share_rq rng ~threshold:1 ~parties:3 secret in
  let new_shares =
    Vsr.redistribute_rq rng ~new_threshold:4 ~new_parties:9 [ old_shares.(0); old_shares.(2) ]
  in
  for _ = 1 to 5 do
    let idx = Array.to_list (Rng.sample_without_replacement rng 5 9) in
    let pick ids = List.map (fun i -> new_shares.(i)) ids in
    checkb "t'+1 new shares reconstruct" true
      (Rq.equal secret (Shamir.reconstruct_rq basis (pick idx)));
    checkb "t' new shares do not" false
      (Rq.equal secret (Shamir.reconstruct_rq basis (pick (List.tl idx))))
  done

let test_vsr_shrinking_handoff () =
  (* A hand-off to a smaller committee with a lower threshold:
     (t, n) = (4, 10) -> (1, 3); every pair reconstructs, no single
     share equals the secret. *)
  let basis = Lazy.force small_basis in
  let rng = Rng.create 210L in
  let secret = Rq.random_uniform basis rng in
  let old_shares = Shamir.share_rq rng ~threshold:4 ~parties:10 secret in
  let dealers = List.map (fun i -> old_shares.(i)) [ 9; 1; 6; 3; 4 ] in
  let new_shares = Vsr.redistribute_rq rng ~new_threshold:1 ~new_parties:3 dealers in
  checki "three new shares" 3 (Array.length new_shares);
  List.iter
    (fun (i, j) ->
      checkb "every pair reconstructs" true
        (Rq.equal secret (Shamir.reconstruct_rq basis [ new_shares.(i); new_shares.(j) ])))
    [ (0, 1); (0, 2); (1, 2) ];
  Array.iter
    (fun s -> checkb "a single share is not the secret" false (Rq.equal secret s.Shamir.value))
    new_shares

let test_vsr_handoff_is_linear () =
  (* Redistributing shares of a and of b from the same dealer points
     and adding the new shares pointwise hands off a + b. *)
  let basis = Lazy.force small_basis in
  let rng = Rng.create 211L in
  let a = Rq.random_uniform basis rng and b = Rq.random_uniform basis rng in
  let sa = Shamir.share_rq rng ~threshold:2 ~parties:5 a in
  let sb = Shamir.share_rq rng ~threshold:2 ~parties:5 b in
  let pick shares = List.map (fun i -> shares.(i)) [ 0; 2; 3 ] in
  let na = Vsr.redistribute_rq rng ~new_threshold:3 ~new_parties:7 (pick sa) in
  let nb = Vsr.redistribute_rq rng ~new_threshold:3 ~new_parties:7 (pick sb) in
  let sum = Array.map2 (fun x y -> { x with Shamir.value = Rq.add x.Shamir.value y.Shamir.value }) na nb in
  checkb "new shares of the sum reconstruct a + b" true
    (Rq.equal (Rq.add a b) (Shamir.reconstruct_rq basis [ sum.(1); sum.(2); sum.(4); sum.(6) ]))

(* ------------------------------------------------------------------ *)
(* The ring-sharing kernel against per-dealer evaluation               *)
(* ------------------------------------------------------------------ *)

(* Horner evaluation of a coefficient array at a point mod p. *)
let eval_poly ~p coeffs x =
  let acc = ref 0 in
  for i = Array.length coeffs - 1 downto 0 do
    acc := Modarith.add p (Modarith.mul p !acc x) coeffs.(i)
  done;
  !acc

(* Reference sharing: every party evaluates every coefficient's
   polynomial by Horner ([eval_poly]), drawing in the order prime,
   coefficient, k = 1..threshold. *)
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
          outs.(j).(pi).(c) <- eval_poly ~p coeffs (j + 1)
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
  (* Committee members 2,3,5,7,9,10 are live (6 >= t+1 = 5). *)
  let live = List.map (fun x -> shares.(x - 1)) [ 2; 3; 5; 7; 9; 10 ] in
  match Threshold.decrypt ctx rng ~threshold:4 ~live ct with
  | Error e -> Alcotest.fail e
  | Ok (pt, participants) ->
    checki "threshold decryption" 1 (Plaintext.coeff pt 17);
    checkb "monomial" true (Plaintext.is_monomial pt = Some (17, 1));
    checkb "the first t+1 live members participate" true (participants = [| 2; 3; 5; 7; 9 |])

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
  match Threshold.decrypt ctx rng ~threshold:2 ~live:(Array.to_list (Array.sub shares 0 3)) agg with
  | Error e -> Alcotest.fail e
  | Ok (pt, _) -> checkb "matches direct decryption" true (Plaintext.equal pt (Bgv.decrypt ctx sk agg))

let test_threshold_requires_degree1 () =
  let ctx = Lazy.force ctx in
  let sk, pk = Lazy.force keys in
  let rng = Rng.create 304L in
  let shares = Threshold.share_secret_key ctx rng ~threshold:2 ~parties:5 sk in
  let prod = Bgv.mul (Bgv.encrypt_value ctx rng pk 1) (Bgv.encrypt_value ctx rng pk 1) in
  match Threshold.decrypt ctx rng ~threshold:2 ~live:(Array.to_list shares) prod with
  | Error e -> Alcotest.(check string) "degree-2 rejected" "ciphertext must be relinearized to degree 1" e
  | Ok _ -> Alcotest.fail "degree-2 ciphertext accepted"

let test_threshold_mixed_sharings_garble () =
  (* Shares of the same key from two independent sharings lie on two
     polynomials: a quorum drawn from both decrypts to garbage. *)
  let ctx = Lazy.force ctx in
  let sk, pk = Lazy.force keys in
  let rng = Rng.create 308L in
  let first = Threshold.share_secret_key ctx rng ~threshold:2 ~parties:5 sk in
  let second = Threshold.share_secret_key ctx rng ~threshold:2 ~parties:5 sk in
  let ct = Bgv.encrypt_value ctx rng pk 11 in
  match Threshold.decrypt ctx rng ~threshold:2 ~live:[ first.(0); first.(1); second.(2) ] ct with
  | Error e -> Alcotest.fail e
  | Ok (pt, _) ->
    checkb "mixed quorum garbles the plaintext" false (Plaintext.equal pt (Bgv.decrypt ctx sk ct))

let test_threshold_t_members_cannot_decrypt () =
  (* The other side of Fig 8a: t colluding members interpolate a key
     that does not decrypt. *)
  let ctx = Lazy.force ctx in
  let sk, pk = Lazy.force keys in
  let rng = Rng.create 309L in
  let shares = Threshold.share_secret_key ctx rng ~threshold:4 ~parties:10 sk in
  let guessed = Threshold.reconstruct_secret_key ctx (Array.to_list (Array.sub shares 3 4)) in
  let ct = Bgv.encrypt_value ctx rng pk 13 in
  checkb "t shares give no working key" false
    (Plaintext.equal (Bgv.decrypt ctx guessed ct) (Bgv.decrypt ctx sk ct))

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
  let live = List.map (fun x -> second.(x - 1)) [ 1; 4; 5; 8; 10 ] in
  match Threshold.decrypt ctx rng ~threshold:4 ~live ct with
  | Error e -> Alcotest.fail e
  | Ok (pt, _) -> checki "new committee decrypts" 1 (Plaintext.coeff pt 21)

let () =
  Alcotest.run "mycelium-secrets"
    [
      ( "shamir",
        [
          Alcotest.test_case "reconstruct with t+1" `Quick test_shamir_reconstruct_exact_threshold;
          Alcotest.test_case "t shares insufficient" `Quick test_shamir_too_few_shares_wrong;
          Alcotest.test_case "rerandomized" `Quick test_shamir_shares_look_random;
          Alcotest.test_case "validation" `Quick test_shamir_validation;
          prop_shamir_roundtrip;
          Alcotest.test_case "linearity" `Quick test_shamir_linearity;
          Alcotest.test_case "ring-element roundtrip" `Quick test_shamir_rq_roundtrip;
          Alcotest.test_case "any t+1 ring subset (seeded sweep)" `Quick
            test_shamir_rq_any_subset_reconstructs;
          Alcotest.test_case "ring share hides secret" `Quick test_shamir_rq_share_not_secret;
          Alcotest.test_case "duplicate x rejected" `Quick test_shamir_duplicate_x_rejected;
          Alcotest.test_case "Lagrange weights (known answers)" `Quick
            test_shamir_lagrange_known_answers;
          Alcotest.test_case "weighted kernel shares the weighted sum" `Quick
            test_shamir_weighted_kernel;
        ] );
      ( "vsr",
        [
          Alcotest.test_case "committees cannot mix shares" `Quick test_vsr_old_and_new_cannot_mix;
          Alcotest.test_case "ring redistribution" `Quick test_vsr_rq_redistribution;
          Alcotest.test_case "repeated hand-offs" `Quick test_vsr_repeated_handoffs;
          Alcotest.test_case "old and new committee cannot pool" `Quick
            test_vsr_old_and_new_cannot_pool;
          Alcotest.test_case "new threshold holds" `Quick test_vsr_new_threshold_holds;
          Alcotest.test_case "hand-off to a smaller committee" `Quick test_vsr_shrinking_handoff;
          Alcotest.test_case "hand-off is linear" `Quick test_vsr_handoff_is_linear;
          Alcotest.test_case "kernel matches per-dealer evaluation" `Quick test_kernel_matches_reference;
          Alcotest.test_case "kernel validation" `Quick test_kernel_validation;
        ] );
      ( "threshold",
        [
          Alcotest.test_case "committee decrypts" `Quick test_threshold_decrypt;
          Alcotest.test_case "matches direct decryption" `Quick test_threshold_matches_direct_decrypt;
          Alcotest.test_case "degree-1 required" `Quick test_threshold_requires_degree1;
          Alcotest.test_case "mixed sharings garble" `Quick test_threshold_mixed_sharings_garble;
          Alcotest.test_case "t members cannot decrypt" `Quick
            test_threshold_t_members_cannot_decrypt;
          Alcotest.test_case "committee capture (Fig 8a)" `Quick test_threshold_committee_capture;
          Alcotest.test_case "any live subset (seeded sweep)" `Quick
            test_threshold_decrypt_any_live_subset;
          Alcotest.test_case "decrypt after VSR hand-off" `Quick test_threshold_after_vsr_handoff;
        ] );
    ]
