(* Tests for mycelium_bgv: correctness of enc/dec, the homomorphic
   operations and the §4.1 histogram encoding, relinearization, noise
   budgets, and serialization. *)

module Rng = Mycelium_util.Rng
module Params = Mycelium_bgv.Params
module Plaintext = Mycelium_bgv.Plaintext
module Bgv = Mycelium_bgv.Bgv
module Rq = Mycelium_math.Rq
module Rns = Mycelium_math.Rns

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let pt_testable = Alcotest.testable Plaintext.pp Plaintext.equal

let ctx_small = lazy (Bgv.make_ctx Params.test_small)
let ctx_medium = lazy (Bgv.make_ctx Params.test_medium)

let keys_small = lazy (Bgv.keygen (Lazy.force ctx_small) (Rng.create 1000L))
let keys_medium = lazy (Bgv.keygen (Lazy.force ctx_medium) (Rng.create 2000L))

let mono ctx e =
  let p = Bgv.params ctx in
  Plaintext.monomial ~plain_modulus:p.Params.plain_modulus ~degree:p.Params.degree ~exponent:e

(* ------------------------------------------------------------------ *)
(* Parameters                                                          *)
(* ------------------------------------------------------------------ *)

let test_params_validate () =
  Params.validate Params.test_small;
  Params.validate Params.test_medium;
  Params.validate Params.test_wide;
  Params.validate Params.paper;
  Alcotest.check_raises "bad degree"
    (Invalid_argument "Params: degree must be a power of two >= 2") (fun () ->
      Params.validate { Params.test_small with Params.degree = 100 })

let test_params_paper_ciphertext_size () =
  (* The paper reports ~4.3 MB per (degree-1) ciphertext: 2 components
     x 32768 coefficients x 550+ bits. Our 19x30-bit modulus gives
     ~4.6 MB; same order, as required. *)
  let bytes = Params.ciphertext_bytes Params.paper ~degree:1 in
  checkb "within [4.0 MB, 5.0 MB]" true (bytes >= 4_000_000 && bytes <= 5_000_000);
  checki "modulus bits 570" 570 (Params.modulus_bits Params.paper)

(* ------------------------------------------------------------------ *)
(* Enc/Dec                                                             *)
(* ------------------------------------------------------------------ *)

let test_encrypt_decrypt_roundtrip () =
  let ctx = Lazy.force ctx_small in
  let sk, pk = Lazy.force keys_small in
  let rng = Rng.create 42L in
  for _ = 1 to 10 do
    let e = Rng.int rng (Bgv.params ctx).Params.degree in
    let ct = Bgv.encrypt_value ctx rng pk e in
    Alcotest.check pt_testable "roundtrip" (mono ctx e) (Bgv.decrypt ctx sk ct)
  done

let test_decrypt_with_wrong_key_garbles () =
  let ctx = Lazy.force ctx_small in
  let _, pk = Lazy.force keys_small in
  let rng = Rng.create 43L in
  let wrong_sk, _ = Bgv.keygen ctx rng in
  let ct = Bgv.encrypt_value ctx rng pk 5 in
  checkb "wrong key gives wrong plaintext" false
    (Plaintext.equal (mono ctx 5) (Bgv.decrypt ctx wrong_sk ct))

let test_ciphertexts_randomized () =
  let ctx = Lazy.force ctx_small in
  let _, pk = Lazy.force keys_small in
  let rng = Rng.create 44L in
  let c1 = Bgv.encrypt_value ctx rng pk 5 and c2 = Bgv.encrypt_value ctx rng pk 5 in
  checkb "same value, different ciphertexts" false
    (Bytes.equal (Bgv.serialize c1) (Bgv.serialize c2))

let test_fresh_noise_budget_positive () =
  let ctx = Lazy.force ctx_small in
  let sk, pk = Lazy.force keys_small in
  let rng = Rng.create 45L in
  let ct = Bgv.encrypt_value ctx rng pk 1 in
  let budget = Bgv.noise_budget ctx sk ct in
  checkb "fresh budget well positive" true (budget > 40)

(* ------------------------------------------------------------------ *)
(* Homomorphic operations                                              *)
(* ------------------------------------------------------------------ *)

let test_hom_addition_bins () =
  (* §4.1: summing Enc(x^0+x^1) and Enc(x^0+x^2) gives 2x^0+x^1+x^2. *)
  let ctx = Lazy.force ctx_small in
  let sk, pk = Lazy.force keys_small in
  let rng = Rng.create 46L in
  let t = (Bgv.params ctx).Params.plain_modulus in
  let pt1 = Plaintext.create ~plain_modulus:t (Array.init 2 (fun _ -> 1)) in
  let pt2 = Plaintext.create ~plain_modulus:t [| 1; 0; 1 |] in
  let sum = Bgv.add (Bgv.encrypt ctx rng pk pt1) (Bgv.encrypt ctx rng pk pt2) in
  let decrypted = Bgv.decrypt ctx sk sum in
  checki "bin0" 2 (Plaintext.coeff decrypted 0);
  checki "bin1" 1 (Plaintext.coeff decrypted 1);
  checki "bin2" 1 (Plaintext.coeff decrypted 2);
  checki "bin3" 0 (Plaintext.coeff decrypted 3)

let test_hom_multiplication_exponents () =
  (* §4.1: Enc(x^a) * Enc(x^b) = Enc(x^(a+b)). *)
  let ctx = Lazy.force ctx_small in
  let sk, pk = Lazy.force keys_small in
  let rng = Rng.create 47L in
  let ct = Bgv.mul (Bgv.encrypt_value ctx rng pk 7) (Bgv.encrypt_value ctx rng pk 13) in
  checki "degree grows to 2" 2 (Bgv.degree ct);
  Alcotest.check pt_testable "x^7 * x^13 = x^20" (mono ctx 20) (Bgv.decrypt ctx sk ct)

let test_hom_mul_chain () =
  (* A neighborhood aggregation: product of several Enc(x^{b_i}) equals
     Enc(x^{sum b_i}); degree grows by one per factor (deferred
     relinearization as in §5). *)
  let ctx = Lazy.force ctx_medium in
  let sk, pk = Lazy.force keys_medium in
  let rng = Rng.create 48L in
  let values = [ 1; 0; 1; 1; 0; 1 ] in
  let cts = List.map (Bgv.encrypt_value ctx rng pk) values in
  let prod = Bgv.mul_many cts in
  checki "degree = number of factors" (List.length values) (Bgv.degree prod);
  let expected = List.fold_left ( + ) 0 values in
  Alcotest.check pt_testable "product sums exponents" (mono ctx expected)
    (Bgv.decrypt ctx sk prod);
  checkb "budget still positive" true (Bgv.noise_budget ctx sk prod > 0)

let test_hom_add_then_mul () =
  let ctx = Lazy.force ctx_medium in
  let sk, pk = Lazy.force keys_medium in
  let rng = Rng.create 49L in
  (* (x^2 aggregated from two vertices each) then global add. *)
  let local1 = Bgv.mul (Bgv.encrypt_value ctx rng pk 1) (Bgv.encrypt_value ctx rng pk 1) in
  let local2 = Bgv.mul (Bgv.encrypt_value ctx rng pk 0) (Bgv.encrypt_value ctx rng pk 1) in
  let global = Bgv.add local1 local2 in
  let pt = Bgv.decrypt ctx sk global in
  checki "bin 2 (two infected)" 1 (Plaintext.coeff pt 2);
  checki "bin 1 (one infected)" 1 (Plaintext.coeff pt 1);
  checki "bin 0" 0 (Plaintext.coeff pt 0)

let test_hom_add_plain_sub_plain () =
  let ctx = Lazy.force ctx_small in
  let sk, pk = Lazy.force keys_small in
  let rng = Rng.create 50L in
  let t = (Bgv.params ctx).Params.plain_modulus in
  let ct = Bgv.encrypt_value ctx rng pk 3 in
  let two = Plaintext.create ~plain_modulus:t [| 2 |] in
  let ct' = Bgv.add_plain ctx ct two in
  let pt = Bgv.decrypt ctx sk ct' in
  checki "x^3 + 2 constant term" 2 (Plaintext.coeff pt 0);
  checki "x^3 + 2 cubic term" 1 (Plaintext.coeff pt 3);
  let ct'' = Bgv.sub_plain ctx ct' two in
  Alcotest.check pt_testable "sub_plain undoes add_plain" (mono ctx 3) (Bgv.decrypt ctx sk ct'')

let test_hom_mul_plain () =
  let ctx = Lazy.force ctx_small in
  let sk, pk = Lazy.force keys_small in
  let rng = Rng.create 51L in
  let t = (Bgv.params ctx).Params.plain_modulus in
  let ct = Bgv.encrypt_value ctx rng pk 4 in
  (* Multiply by plaintext x^10: the GROUP BY bin shift (§4.5). *)
  let shift = Plaintext.monomial ~plain_modulus:t ~degree:(Bgv.params ctx).Params.degree ~exponent:10 in
  let shifted = Bgv.mul_plain ctx ct shift in
  checki "degree unchanged by plain mult" 1 (Bgv.degree shifted);
  Alcotest.check pt_testable "x^4 shifted to x^14" (mono ctx 14) (Bgv.decrypt ctx sk shifted)

let test_enc_zero_polynomial_neutral () =
  (* Dropped-out or predicate-failing vertices contribute Enc(x^0) in
     products and Enc(0) in sums; check both neutralities. *)
  let ctx = Lazy.force ctx_small in
  let sk, pk = Lazy.force keys_small in
  let rng = Rng.create 52L in
  let ct5 = Bgv.encrypt_value ctx rng pk 5 in
  let ct_x0 = Bgv.encrypt_value ctx rng pk 0 in
  Alcotest.check pt_testable "x^0 neutral for products" (mono ctx 5)
    (Bgv.decrypt ctx sk (Bgv.mul ct5 ct_x0));
  let ct_zero = Bgv.encrypt_zero_polynomial ctx rng pk in
  Alcotest.check pt_testable "0 neutral for sums" (mono ctx 5)
    (Bgv.decrypt ctx sk (Bgv.add ct5 ct_zero));
  Alcotest.check pt_testable "0 annihilates products"
    (Plaintext.zero ~plain_modulus:(Bgv.plain_modulus ctx) ~degree:4)
    (Bgv.decrypt ctx sk (Bgv.mul ct5 ct_zero))

let test_sub () =
  (* §4.5 cross-column trick subtracts Enc(l - 1) from a sum. *)
  let ctx = Lazy.force ctx_small in
  let sk, pk = Lazy.force keys_small in
  let rng = Rng.create 53L in
  let t = Bgv.plain_modulus ctx in
  (* Enc(2 + x^m) - Enc(2) = Enc(x^m) *)
  let pt_sum = Plaintext.create ~plain_modulus:t [| 2; 0; 0; 0; 0; 0; 1 |] in
  let pt_two = Plaintext.create ~plain_modulus:t [| 2 |] in
  let diff = Bgv.sub (Bgv.encrypt ctx rng pk pt_sum) (Bgv.encrypt ctx rng pk pt_two) in
  Alcotest.check pt_testable "difference" (mono ctx 6) (Bgv.decrypt ctx sk diff)

let qtest ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let prop_homomorphism =
  (* For random small exponent lists: the product of encryptions
     decrypts to x^(sum), and the sum of encryptions to the coefficient
     multiset — the §4.1 encoding as one property. *)
  qtest "hom product/sum match plaintext semantics"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 5) (int_range 0 20))
    (fun values ->
      let ctx = Lazy.force ctx_medium in
      let sk, pk = Lazy.force keys_medium in
      let rng = Rng.create (Int64.of_int (Hashtbl.hash values)) in
      let cts = List.map (Bgv.encrypt_value ctx rng pk) values in
      let product = Bgv.mul_many cts in
      let sum = List.fold_left Bgv.add (List.hd cts) (List.tl cts) in
      let total = List.fold_left ( + ) 0 values in
      let prod_ok = Plaintext.equal (Bgv.decrypt ctx sk product) (mono ctx total) in
      let decrypted_sum = Bgv.decrypt ctx sk sum in
      let sum_ok =
        List.for_all
          (fun v ->
            Plaintext.coeff decrypted_sum v
            = List.length (List.filter (fun x -> x = v) values))
          (List.sort_uniq compare values)
      in
      prod_ok && sum_ok)

let prop_serialize_roundtrip =
  qtest "serialize/deserialize identity" QCheck.(int_range 0 50) (fun e ->
      let ctx = Lazy.force ctx_small in
      let _, pk = Lazy.force keys_small in
      let rng = Rng.create (Int64.of_int (e + 999)) in
      let ct = Bgv.encrypt_value ctx rng pk e in
      match Bgv.deserialize ctx (Bgv.serialize ct) with
      | Some ct' -> Bytes.equal (Bgv.serialize ct) (Bgv.serialize ct')
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Relinearization                                                     *)
(* ------------------------------------------------------------------ *)

let test_relinearize_degree2 () =
  let ctx = Lazy.force ctx_medium in
  let sk, pk = Lazy.force keys_medium in
  let rng = Rng.create 54L in
  let rk = Bgv.relin_keygen ctx rng sk ~max_degree:2 in
  let prod = Bgv.mul (Bgv.encrypt_value ctx rng pk 3) (Bgv.encrypt_value ctx rng pk 4) in
  let lin = Bgv.relinearize ctx rk prod in
  checki "back to degree 1" 1 (Bgv.degree lin);
  Alcotest.check pt_testable "still decrypts to x^7" (mono ctx 7) (Bgv.decrypt ctx sk lin);
  checkb "budget positive after relin" true (Bgv.noise_budget ctx sk lin > 0)

let test_relinearize_high_degree () =
  (* The aggregator's deferred relinearization (§5): reduce a degree-4
     product to degree 1 in one pass, then threshold-decrypt. *)
  let ctx = Lazy.force ctx_medium in
  let sk, pk = Lazy.force keys_medium in
  let rng = Rng.create 55L in
  let rk = Bgv.relin_keygen ctx rng sk ~max_degree:4 in
  let cts = List.map (Bgv.encrypt_value ctx rng pk) [ 1; 1; 0; 1 ] in
  let prod = List.fold_left Bgv.mul (List.hd cts) (List.tl cts) in
  checki "degree 4" 4 (Bgv.degree prod);
  let lin = Bgv.relinearize ctx rk prod in
  checki "degree 1" 1 (Bgv.degree lin);
  Alcotest.check pt_testable "decrypts to x^3" (mono ctx 3) (Bgv.decrypt ctx sk lin)

let test_relinearize_too_high_rejected () =
  let ctx = Lazy.force ctx_medium in
  let sk, pk = Lazy.force keys_medium in
  let rng = Rng.create 56L in
  let rk = Bgv.relin_keygen ctx rng sk ~max_degree:2 in
  let cts = List.map (Bgv.encrypt_value ctx rng pk) [ 1; 1; 1 ] in
  let prod = List.fold_left Bgv.mul (List.hd cts) (List.tl cts) in
  Alcotest.check_raises "degree 3 vs max 2"
    (Invalid_argument "Bgv.relinearize: ciphertext degree exceeds relin key") (fun () ->
      ignore (Bgv.relinearize ctx rk prod))

let test_relin_then_add () =
  (* Global aggregation operates on relinearized degree-1 ciphertexts. *)
  let ctx = Lazy.force ctx_medium in
  let sk, pk = Lazy.force keys_medium in
  let rng = Rng.create 57L in
  let rk = Bgv.relin_keygen ctx rng sk ~max_degree:2 in
  let local v1 v2 =
    Bgv.relinearize ctx rk (Bgv.mul (Bgv.encrypt_value ctx rng pk v1) (Bgv.encrypt_value ctx rng pk v2))
  in
  let sum = Bgv.add (Bgv.add (local 1 1) (local 1 0)) (local 0 0) in
  let pt = Bgv.decrypt ctx sk sum in
  checki "bin 2" 1 (Plaintext.coeff pt 2);
  checki "bin 1" 1 (Plaintext.coeff pt 1);
  checki "bin 0" 1 (Plaintext.coeff pt 0)

(* ------------------------------------------------------------------ *)
(* Noise                                                               *)
(* ------------------------------------------------------------------ *)

let test_noise_grows_with_mults () =
  let ctx = Lazy.force ctx_medium in
  let sk, pk = Lazy.force keys_medium in
  let rng = Rng.create 58L in
  let fresh = Bgv.encrypt_value ctx rng pk 1 in
  let b0 = Bgv.noise_budget ctx sk fresh in
  let p1 = Bgv.mul fresh (Bgv.encrypt_value ctx rng pk 1) in
  let b1 = Bgv.noise_budget ctx sk p1 in
  let p2 = Bgv.mul p1 (Bgv.encrypt_value ctx rng pk 1) in
  let b2 = Bgv.noise_budget ctx sk p2 in
  checkb "mult consumes budget" true (b0 > b1 && b1 > b2);
  checkb "estimate is conservative" true
    (Bgv.noise_estimate_bits p2 >= Bgv.noise_estimate_bits p1)

let test_noise_estimate_upper_bounds_actual () =
  let ctx = Lazy.force ctx_medium in
  let sk, pk = Lazy.force keys_medium in
  let rng = Rng.create 59L in
  let ct = ref (Bgv.encrypt_value ctx rng pk 1) in
  for _ = 1 to 4 do
    ct := Bgv.mul !ct (Bgv.encrypt_value ctx rng pk 1)
  done;
  let actual_noise = float_of_int (Bgv.modulus_bits ctx - 1 - Bgv.noise_budget ctx sk !ct) in
  checkb "estimate >= actual" true (Bgv.noise_estimate_bits !ct >= actual_noise)

(* ------------------------------------------------------------------ *)
(* Modulus switching                                                   *)
(* ------------------------------------------------------------------ *)

let test_mod_switch_fresh () =
  let ctx = Lazy.force ctx_small in
  let sk, pk = Lazy.force keys_small in
  let rng = Rng.create 70L in
  let small = Bgv.drop_level ctx in
  let sk' = Bgv.project_secret_key small sk in
  for e = 0 to 5 do
    let ct = Bgv.encrypt_value ctx rng pk e in
    let switched = Bgv.mod_switch small ct in
    Alcotest.check pt_testable "plaintext preserved" (mono ctx e) (Bgv.decrypt small sk' switched)
  done

let test_mod_switch_product () =
  let ctx = Lazy.force ctx_medium in
  let sk, pk = Lazy.force keys_medium in
  let rng = Rng.create 71L in
  let small = Bgv.drop_level ctx in
  let sk' = Bgv.project_secret_key small sk in
  let prod = Bgv.mul (Bgv.encrypt_value ctx rng pk 4) (Bgv.encrypt_value ctx rng pk 6) in
  let switched = Bgv.mod_switch small prod in
  checki "degree preserved" 2 (Bgv.degree switched);
  Alcotest.check pt_testable "x^10 preserved" (mono ctx 10) (Bgv.decrypt small sk' switched)

let test_mod_switch_reduces_relative_noise () =
  (* After a multiplication, switching divides the noise by the dropped
     prime but the modulus only shrinks by the same factor: the noise
     floor makes the *relative* budget recover versus a second
     multiplication without switching. Check the mechanism directly:
     absolute noise (bits) drops by roughly the prime size. *)
  let ctx = Lazy.force ctx_medium in
  let sk, pk = Lazy.force keys_medium in
  let rng = Rng.create 72L in
  let prod = Bgv.mul (Bgv.encrypt_value ctx rng pk 1) (Bgv.encrypt_value ctx rng pk 1) in
  let noise_before = Bgv.modulus_bits ctx - 1 - Bgv.noise_budget ctx sk prod in
  let small = Bgv.drop_level ctx in
  let sk' = Bgv.project_secret_key small sk in
  let switched = Bgv.mod_switch small prod in
  let noise_after = Bgv.modulus_bits small - 1 - Bgv.noise_budget small sk' switched in
  (* Net reduction ~ prime_bits - t_bits: the rescale divides by the
     28-bit prime, the plaintext-scale correction multiplies back by up
     to t (16 bits here). *)
  checkb
    (Printf.sprintf "noise dropped (%d -> %d bits)" noise_before noise_after)
    true
    (noise_after < noise_before - 6)

let test_mod_switch_ladder () =
  (* The leveled pattern: multiply, switch, multiply a switched-down
     fresh ciphertext, switch, ... down to the last level. *)
  let ctx = Lazy.force ctx_medium in
  let sk, pk = Lazy.force keys_medium in
  let rng = Rng.create 73L in
  let levels = ref ctx and acc = ref (Bgv.encrypt_value ctx rng pk 1) in
  let fresh_at level_ctx =
    (* Fresh ciphertexts are encrypted at the top and switched down. *)
    let ct = ref (Bgv.encrypt_value ctx rng pk 1) in
    let cur = ref ctx in
    while Bgv.modulus_bits !cur > Bgv.modulus_bits level_ctx do
      cur := Bgv.drop_level !cur;
      ct := Bgv.mod_switch !cur !ct
    done;
    !ct
  in
  let depth = 2 in
  for _ = 1 to depth do
    acc := Bgv.mul !acc (fresh_at !levels);
    levels := Bgv.drop_level !levels;
    acc := Bgv.mod_switch !levels !acc
  done;
  let sk' = Bgv.project_secret_key !levels sk in
  checkb "budget still positive at the bottom" true (Bgv.noise_budget !levels sk' !acc > 0);
  Alcotest.check pt_testable "x^(depth+1) decrypts" (mono ctx (depth + 1))
    (Bgv.decrypt !levels sk' !acc)

let test_mod_switch_level_mismatch () =
  let ctx = Lazy.force ctx_small in
  let _, pk = Lazy.force keys_small in
  let rng = Rng.create 74L in
  let ct = Bgv.encrypt_value ctx rng pk 1 in
  let two_down = Bgv.drop_level (Bgv.drop_level ctx) in
  Alcotest.check_raises "two levels at once rejected"
    (Invalid_argument "Bgv.mod_switch: ciphertext must live one level above the target context")
    (fun () -> ignore (Bgv.mod_switch two_down ct))

(* drop_level trims the parent's basis; the result must be the
   context a fresh build at levels - 1 gives. *)
let test_drop_level_matches_fresh () =
  let ctx = Lazy.force ctx_medium in
  let small = Bgv.drop_level ctx in
  let p = Bgv.params ctx in
  let fresh = Bgv.make_ctx { p with Params.levels = p.Params.levels - 1 } in
  checkb "params at levels - 1" true (Params.equal (Bgv.params small) (Bgv.params fresh));
  checkb "basis equals a fresh basis at levels - 1" true
    (Rns.equal (Bgv.basis small) (Bgv.basis fresh))

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let test_serialize_roundtrip () =
  let ctx = Lazy.force ctx_small in
  let sk, pk = Lazy.force keys_small in
  let rng = Rng.create 60L in
  let ct = Bgv.mul (Bgv.encrypt_value ctx rng pk 2) (Bgv.encrypt_value ctx rng pk 3) in
  match Bgv.deserialize ctx (Bgv.serialize ct) with
  | Some ct' ->
    checki "degree preserved" (Bgv.degree ct) (Bgv.degree ct');
    Alcotest.check pt_testable "decrypts the same" (Bgv.decrypt ctx sk ct) (Bgv.decrypt ctx sk ct')
  | None -> Alcotest.fail "deserialize failed"

let test_deserialize_garbage () =
  let ctx = Lazy.force ctx_small in
  checkb "empty" true (Bgv.deserialize ctx Bytes.empty = None);
  checkb "truncated" true (Bgv.deserialize ctx (Bytes.create 10) = None);
  let ct = Bgv.encrypt_value ctx (Rng.create 61L) (snd (Lazy.force keys_small)) 1 in
  let b = Bgv.serialize ct in
  checkb "truncated real ciphertext" true
    (Bgv.deserialize ctx (Bytes.sub b 0 (Bytes.length b - 5)) = None)

(* ------------------------------------------------------------------ *)
(* Threshold-decryption hooks                                          *)
(* ------------------------------------------------------------------ *)

let test_linear_eval_matches_decrypt () =
  let ctx = Lazy.force ctx_small in
  let sk, pk = Lazy.force keys_small in
  let rng = Rng.create 62L in
  let ct = Bgv.encrypt_value ctx rng pk 9 in
  let v = Bgv.linear_eval ct ~s:(Bgv.secret_poly sk) in
  Alcotest.check pt_testable "decode_noisy = decrypt" (Bgv.decrypt ctx sk ct)
    (Bgv.decode_noisy ctx v)

let test_linear_eval_requires_degree1 () =
  let ctx = Lazy.force ctx_small in
  let sk, pk = Lazy.force keys_small in
  let rng = Rng.create 63L in
  let prod = Bgv.mul (Bgv.encrypt_value ctx rng pk 1) (Bgv.encrypt_value ctx rng pk 1) in
  Alcotest.check_raises "degree 2 rejected"
    (Invalid_argument "Bgv.linear_eval: ciphertext must be degree 1") (fun () ->
      ignore (Bgv.linear_eval prod ~s:(Bgv.secret_poly sk)))

let test_secret_key_of_poly () =
  let ctx = Lazy.force ctx_small in
  let sk, pk = Lazy.force keys_small in
  let rng = Rng.create 64L in
  let sk' = Bgv.secret_key_of_poly ctx (Bgv.secret_poly sk) in
  let ct = Bgv.encrypt_value ctx rng pk 7 in
  Alcotest.check pt_testable "reconstructed key decrypts" (mono ctx 7) (Bgv.decrypt ctx sk' ct)

let () =
  Alcotest.run "mycelium-bgv"
    [
      ( "params",
        [
          Alcotest.test_case "validate" `Quick test_params_validate;
          Alcotest.test_case "paper ciphertext ~4.3MB" `Quick test_params_paper_ciphertext_size;
        ] );
      ( "enc-dec",
        [
          Alcotest.test_case "roundtrip" `Quick test_encrypt_decrypt_roundtrip;
          Alcotest.test_case "wrong key garbles" `Quick test_decrypt_with_wrong_key_garbles;
          Alcotest.test_case "probabilistic encryption" `Quick test_ciphertexts_randomized;
          Alcotest.test_case "fresh noise budget" `Quick test_fresh_noise_budget_positive;
        ] );
      ( "homomorphic",
        [
          Alcotest.test_case "addition aggregates bins" `Quick test_hom_addition_bins;
          Alcotest.test_case "multiplication adds exponents" `Quick test_hom_multiplication_exponents;
          Alcotest.test_case "multiplication chain" `Quick test_hom_mul_chain;
          Alcotest.test_case "local mult + global add" `Quick test_hom_add_then_mul;
          Alcotest.test_case "add/sub plain" `Quick test_hom_add_plain_sub_plain;
          Alcotest.test_case "mul plain (GROUP BY shift)" `Quick test_hom_mul_plain;
          Alcotest.test_case "zero encodings are neutral" `Quick test_enc_zero_polynomial_neutral;
          Alcotest.test_case "ciphertext subtraction" `Quick test_sub;
          prop_homomorphism;
          prop_serialize_roundtrip;
        ] );
      ( "relinearization",
        [
          Alcotest.test_case "degree 2" `Quick test_relinearize_degree2;
          Alcotest.test_case "high degree (deferred)" `Quick test_relinearize_high_degree;
          Alcotest.test_case "exceeding key rejected" `Quick test_relinearize_too_high_rejected;
          Alcotest.test_case "relin then aggregate" `Quick test_relin_then_add;
        ] );
      ( "noise",
        [
          Alcotest.test_case "grows with multiplications" `Quick test_noise_grows_with_mults;
          Alcotest.test_case "estimate upper-bounds actual" `Quick test_noise_estimate_upper_bounds_actual;
        ] );
      ( "mod-switch",
        [
          Alcotest.test_case "fresh ciphertexts" `Quick test_mod_switch_fresh;
          Alcotest.test_case "products" `Quick test_mod_switch_product;
          Alcotest.test_case "noise reduction" `Quick test_mod_switch_reduces_relative_noise;
          Alcotest.test_case "leveled ladder" `Quick test_mod_switch_ladder;
          Alcotest.test_case "level mismatch rejected" `Quick test_mod_switch_level_mismatch;
          Alcotest.test_case "drop_level matches a fresh context" `Quick
            test_drop_level_matches_fresh;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_deserialize_garbage;
        ] );
      ( "threshold-hooks",
        [
          Alcotest.test_case "linear_eval matches decrypt" `Quick test_linear_eval_matches_decrypt;
          Alcotest.test_case "degree-1 requirement" `Quick test_linear_eval_requires_degree1;
          Alcotest.test_case "key from polynomial" `Quick test_secret_key_of_poly;
        ] );
    ]
