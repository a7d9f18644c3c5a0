(* Tests for mycelium_bgv: correctness of enc/dec, the homomorphic
   operations and the §4.1 histogram encoding, relinearization, noise
   budgets, and serialization. *)

module Rng = Mycelium_util.Rng
module Params = Mycelium_bgv.Params
module Plaintext = Mycelium_bgv.Plaintext
module Bgv = Mycelium_bgv.Bgv
module Rq = Mycelium_math.Rq
module Rns = Mycelium_math.Rns
module Sha256 = Mycelium_crypto.Sha256
module Pool = Mycelium_parallel.Pool
module Obs = Mycelium_obs.Obs
module Hex = Testkit.Hex

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* The first dozen non-zero terms of a plaintext. *)
let pp_plaintext fmt pt =
  let terms =
    Array.to_list (Array.mapi (fun i v -> (i, v)) (Plaintext.coeffs pt))
    |> List.filter (fun (_, v) -> v <> 0)
    |> List.filteri (fun i _ -> i < 12)
    |> List.map (fun (i, v) -> if v = 1 then Printf.sprintf "x^%d" i else Printf.sprintf "%d*x^%d" v i)
  in
  Format.fprintf fmt "[%s]" (match terms with [] -> "0" | _ -> String.concat " + " terms)

let pt_testable = Alcotest.testable pp_plaintext Plaintext.equal

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
  Params.validate Testkit.test_wide;
  Params.validate Params.paper;
  Alcotest.check_raises "bad degree"
    (Invalid_argument "Params: degree must be a power of two >= 2") (fun () ->
      Params.validate { Params.test_small with Params.degree = 100 });
  (* Decryption reduces mod t on native ints (Rns.centered_mod_rows). *)
  Alcotest.check_raises "plain modulus at 2^31"
    (Invalid_argument "Params: plain_modulus must be below 2^31") (fun () ->
      Params.validate { Params.test_small with Params.plain_modulus = 1 lsl 31 })

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

let test_hom_sub_plain () =
  let ctx = Lazy.force ctx_small in
  let sk, pk = Lazy.force keys_small in
  let rng = Rng.create 50L in
  let t = (Bgv.params ctx).Params.plain_modulus in
  let ct = Bgv.encrypt_value ctx rng pk 3 in
  let two = Plaintext.create ~plain_modulus:t [| 2 |] in
  let ct' = Bgv.add ct (Bgv.encrypt ctx rng pk two) in
  let pt = Bgv.decrypt ctx sk ct' in
  checki "x^3 + 2 constant term" 2 (Plaintext.coeff pt 0);
  checki "x^3 + 2 cubic term" 1 (Plaintext.coeff pt 3);
  let ct'' = Bgv.sub_plain ctx ct' two in
  Alcotest.check pt_testable "sub_plain undoes the addition" (mono ctx 3) (Bgv.decrypt ctx sk ct'')

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

(* Every degree from 2 to the key's maximum, on one key per parameter
   set: the relinearized product decrypts to the product's plaintext,
   and its noise is at most one bit above the larger of the noise
   before and the key switch's worst case (D - 1) L (p/2) t eta N, the
   bound bgv.mli states (p the largest prime).  The key holds
   (max - 1) x L pairs. *)
let test_relinearize_degrees (p : Params.t) ~max_degree () =
  let ctx = Bgv.make_ctx p in
  let rng = Rng.create (Int64.of_int (p.Params.degree + max_degree)) in
  let sk, pk = Bgv.keygen ctx rng in
  let rk = Bgv.relin_keygen ctx rng sk ~max_degree in
  let basis = Bgv.basis ctx in
  let levels = Rns.level_count basis in
  checki "(max - 1) x L key pairs" ((max_degree - 1) * levels) (Bgv.relin_key_pairs rk);
  let noise_bits ct = Rns.modulus_bits basis - 1 - Bgv.noise_budget ctx sk ct in
  let log2 x = log x /. log 2. in
  let p_max = Array.fold_left max 0 (Rns.primes basis) in
  for d = 2 to max_degree do
    let exps = List.init d (fun i -> (i * 7) + 1) in
    let prod = Bgv.mul_many (List.map (Bgv.encrypt_value ctx rng pk) exps) in
    checki "product degree" d (Bgv.degree prod);
    let lin = Bgv.relinearize ctx rk prod in
    checki "degree 1" 1 (Bgv.degree lin);
    Alcotest.check pt_testable
      (Printf.sprintf "degree %d decrypts" d)
      (mono ctx (List.fold_left ( + ) 0 exps))
      (Bgv.decrypt ctx sk lin);
    let switch_bits =
      int_of_float
        (Float.ceil
           (log2 (float_of_int (d - 1)) +. log2 (float_of_int levels)
           +. log2 (float_of_int p_max /. 2.)
           +. log2 (float_of_int p.Params.plain_modulus)
           +. log2 (float_of_int p.Params.error_eta)
           +. log2 (float_of_int p.Params.degree)))
    in
    let before = noise_bits prod and after = noise_bits lin in
    if after > max before switch_bits + 1 then
      Alcotest.failf "degree %d: %d noise bits after, %d before, key-switch bound %d" d after before
        switch_bits
  done

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
  checkb "mult consumes budget" true (b0 > b1 && b1 > b2)

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

(* The wire helpers against their definitions: hash_into absorbs
   exactly serialize's bytes, wire_equal is byte equality of the two
   serializations, and ciphertext_bytes is serialize's length. *)
let wire_cases ctx pk seed =
  let rng = Rng.create seed in
  let fresh () = Bgv.encrypt_value ctx rng pk (Rng.int rng 40) in
  let a = fresh () and b = fresh () in
  let copy wire =
    match Bgv.deserialize ctx wire with
    | Some ct -> ct
    | None -> Alcotest.fail "deserialize rejected a wire form"
  in
  let a_copy = copy (Bgv.serialize a) in
  (* The same value as [a], resident in the coefficient domain. *)
  let a_coeff = copy (Bgv.serialize a) in
  Array.iter Rq.force_coeff (Bgv.components a_coeff);
  (* [a]'s wire form with one int32 field rewritten: its first
     component's tag (the same rows, tagged Coeff), or one residue. *)
  let edit offset f =
    let wire = Bgv.serialize a in
    let v = Int32.to_int (Bytes.get_int32_le wire offset) in
    Bytes.set_int32_le wire offset (Int32.of_int (f v));
    copy wire
  in
  let other_residue v = if v = 0 then 1 else v - 1 in
  let last = Bgv.ciphertext_bytes ctx ~degree:1 - 4 in
  let deg2 = Bgv.mul a b in
  let deg8 = Bgv.mul_many (List.init 8 (fun _ -> fresh ())) in
  [
    ("fresh a", a);
    ("fresh b", b);
    ("copy of a", a_copy);
    ("a in Coeff", a_coeff);
    ("a's rows tagged Coeff", edit 4 (fun _ -> 0));
    ("a, first residue changed", edit 16 other_residue);
    ("a, last residue changed", edit last other_residue);
    ("degree 2", deg2);
    ("degree 8", deg8);
  ]

let test_wire_helpers_match_serialize () =
  List.iter
    (fun (ctx, pk, seed) ->
      let cases = wire_cases ctx pk seed in
      let rng = Rng.create seed in
      List.iter
        (fun (name, ct) ->
          let wire = Bgv.serialize ct in
          checki (name ^ ": ciphertext_bytes")
            (Bytes.length wire)
            (Bgv.ciphertext_bytes ctx ~degree:(Bgv.degree ct));
          List.iter
            (fun prefix ->
              let h = Sha256.init () in
              Sha256.update h prefix;
              Bgv.hash_into h ct;
              checkb
                (Printf.sprintf "%s: hash_into after %d prefix bytes" name (Bytes.length prefix))
                true
                (Bytes.equal (Sha256.finalize h) (Sha256.digest (Bytes.cat prefix wire))))
            (* 30 is the subtree transcript's prefix
               ("transcript:subtree-aggregation") and 31 the origin
               transcript's with a two-character query name; 2 and 30
               leave the block buffer at 2 mod 4, as no other length
               here does. *)
            (List.map (Rng.bytes rng) [ 0; 1; 2; 12; 30; 31; 63; 64; 65 ]);
          List.iter
            (fun (other, ct') ->
              checkb
                (Printf.sprintf "wire_equal %s %s" name other)
                (Bytes.equal wire (Bgv.serialize ct'))
                (Bgv.wire_equal ct ct'))
            cases)
        cases;
      let find name = List.assoc name cases in
      checkb "a copy is wire-equal" true (Bgv.wire_equal (find "fresh a") (find "copy of a"));
      checkb "same value, other tag" false (Bgv.wire_equal (find "fresh a") (find "a in Coeff"));
      checkb "same rows, other tag" false
        (Bgv.wire_equal (find "fresh a") (find "a's rows tagged Coeff"));
      checkb "first residue" false
        (Bgv.wire_equal (find "fresh a") (find "a, first residue changed"));
      checkb "last residue" false
        (Bgv.wire_equal (find "fresh a") (find "a, last residue changed"));
      checkb "other component count" false (Bgv.wire_equal (find "fresh a") (find "degree 2"));
      checkb "wire_equal converts nothing" true
        (Array.for_all (fun c -> Rq.repr_of c = Rq.Coeff) (Bgv.components (find "a in Coeff"))))
    [
      (Lazy.force ctx_small, snd (Lazy.force keys_small), 66L);
      (Lazy.force ctx_medium, snd (Lazy.force keys_medium), 67L);
    ];
  checki "a fresh test_medium ciphertext" 65_620
    (Bgv.ciphertext_bytes (Lazy.force ctx_medium) ~degree:1);
  (* hash_into streams through one 1 KiB buffer, so a test_medium
     ciphertext (65 620 bytes) allocates what a test_small one does:
     nothing per chunk. *)
  let hashed ctx pk seed =
    let ct = Bgv.encrypt_value ctx (Rng.create seed) pk 3 in
    let h = Sha256.init () in
    Bgv.hash_into h ct;
    Testkit.allocated_words (fun () -> Bgv.hash_into h ct)
  in
  let small = hashed (Lazy.force ctx_small) (snd (Lazy.force keys_small)) 68L in
  let medium = hashed (Lazy.force ctx_medium) (snd (Lazy.force keys_medium)) 69L in
  Alcotest.(check (float 0.)) "hash_into allocates the same at test_small and test_medium"
    small medium

(* ------------------------------------------------------------------ *)
(* Encryption goldens                                                  *)
(* ------------------------------------------------------------------ *)

(* SHA-256 of the wire form of fixed-seed encryptions, recorded before
   encrypt started summing the error and the message in the coefficient
   domain and before the Rq elementwise ops and the serializer were
   rewritten.  Each plaintext is decrypted too, so a golden cannot pin
   a broken ciphertext. *)
let wire_digest ct = Hex.encode (Sha256.digest (Bgv.serialize ct))

let golden_plaintexts ctx =
  let p = Bgv.params ctx in
  let t = p.Params.plain_modulus and n = p.Params.degree in
  [
    ("zero", Plaintext.zero ~plain_modulus:t ~degree:n);
    ("x^0", mono ctx 0);
    ("x^(N-1)", mono ctx (n - 1));
    ("dense t-1", Plaintext.create ~plain_modulus:t (Array.make n (t - 1)));
  ]

let golden_digests ctx sk pk =
  List.concat_map
    (fun seed ->
      List.map
        (fun (name, pt) ->
          let ct = Bgv.encrypt ctx (Rng.create seed) pk pt in
          Alcotest.check pt_testable "golden decrypts" pt (Bgv.decrypt ctx sk ct);
          (Printf.sprintf "seed %Ld %s" seed name, wire_digest ct))
        (golden_plaintexts ctx))
    [ 301L; 302L; 303L ]

let check_goldens name expected actual =
  Alcotest.(check (list (pair string string))) name expected actual

(* Recorded at the commit before encrypt lifted, transformed and
   multiply-added in one pass per limb. *)
let test_encrypt_goldens_small () =
  let ctx = Lazy.force ctx_small in
  let sk, pk = Lazy.force keys_small in
  check_goldens "test_small encryptions"
    [
      ("seed 301 zero", "2735df203a85192d78df23f616f160a8a64849a73cf3a4ff770d68ee12aa4cb2");
      ("seed 301 x^0", "46b1c6ad4418f159a1c0a5874bb4f95317bbafb9f23607f80e5a2fa5937b0cf8");
      ("seed 301 x^(N-1)", "9ee68ab7a17311605603903304d773d4ab5d564f303b1ecebaa499757f2ae3a3");
      ("seed 301 dense t-1", "ae4abde0c2ef7b91d81eae1dd77a9957f243636c60b57377f3c762802b39635e");
      ("seed 302 zero", "bca5ca4a949c52a3fb2bd0b4f8a7cb72ab3016e481a2a98b05e99d5a46270a0e");
      ("seed 302 x^0", "416a613636ac3d80c44ee5688556c97908e0e5d602eb082e40f2ae2d427a3fd5");
      ("seed 302 x^(N-1)", "6ca2f3d0f1307b9ba3ccd1045c5ce268fa09b02fad257c673c1f97a4c4df6d6d");
      ("seed 302 dense t-1", "6ca621f9eade54ad323effcf5ae70ccd746f2e808f89ac0dd686d7834b7150b4");
      ("seed 303 zero", "f89b050c8ca1a9d709260f96cb4240eb7192ec2db0ead28daf047577022bd898");
      ("seed 303 x^0", "af051b93611a26b7d4b53a739e91ccb200ba9cf19d4e02384b917a53b85594c3");
      ("seed 303 x^(N-1)", "82db9f8948f57a8c31b69a3859560a3d9b59dc88aade3d746a767e74254c4f33");
      ("seed 303 dense t-1", "5ecd2038caa44164e6490b207ae52eca5c8acdd6dd96ddbebb66381886d3de66");
    ]
    (golden_digests ctx sk pk)

(* At two domains N = 1024 takes the limb-parallel branch, whose limbs
   must land by index on the same bytes. *)
let test_encrypt_goldens_medium ~domains () =
  let ctx = Lazy.force ctx_medium in
  let sk, pk = Lazy.force keys_medium in
  check_goldens "test_medium encryptions"
    [
      ("seed 301 zero", "4209448c0e231c4c47df768187ea8636ddf6021376717c90167e534ef5ba4968");
      ("seed 301 x^0", "5ead7deda870737d34b260ac2ab4b0ada31454744105a9fb8a313e4b971c1591");
      ("seed 301 x^(N-1)", "40679a2bc98dc373c2aedd049600bf5d68f374887dff66225975812f166ef806");
      ("seed 301 dense t-1", "318c1716ef2a814d33d8c1bf77c8c4183ae08d42cd852fb5aaca121b4bf39df3");
      ("seed 302 zero", "bae4270834c2eabaf84df10c995c388bc6ada3d878e3308a73be2e3af493b06c");
      ("seed 302 x^0", "7b5fca60668d8696ffb9d0390adaac55200f6d82eda3514fe1a0151a306e0823");
      ("seed 302 x^(N-1)", "94e55b5fb013cb9612c3ba525d9b512326dac505aaf7dc0c4180e452e008e499");
      ("seed 302 dense t-1", "4e216bf2ad9f9fe3a4bc1ce751d05dc8278f9efe9e78b685f6210eed07957419");
      ("seed 303 zero", "77e504089b7c4b162d4204572a2b0ae4670b2dcafc486bff1a66259155e663ae");
      ("seed 303 x^0", "e21579faeb58a6f9380a19921be8501540b0ec434bdc3b26283f43ba7afb76b0");
      ("seed 303 x^(N-1)", "646ca03ec7ccf1b2a6e7d4cb2b831592464ddeeaebec8029f530f75733b3a9a6");
      ("seed 303 dense t-1", "77f08e7567998ceb2bbebc1ecc338c9104fe6d1e68f1cfc5f641e57b02507745");
    ]
    (Pool.with_domains domains (fun () -> golden_digests ctx sk pk))

(* t = 2^30 lies above every 28-bit prime, so lifting the plaintext and
   scaling the errors by t take the general reduction, not the
   one-conditional-add path of a value in [-p, p). *)
let wide_t_params =
  { Params.degree = 256; plain_modulus = 1 lsl 30; prime_bits = 28; levels = 2; error_eta = 2 }

let test_encrypt_goldens_wide_t () =
  let ctx = Bgv.make_ctx wide_t_params in
  let sk, pk = Bgv.keygen ctx (Rng.create 306L) in
  check_goldens "t = 2^30 encryptions"
    [
      ("seed 301 zero", "89887ab9e73eaf8a485daed143c3f635967e3bfac0bac175a75f871915734f69");
      ("seed 301 x^0", "118d58610d7ad9d8f9cf15d74c73c92bcfec6f7e953b6f5bc8d66e103ae704b2");
      ("seed 301 x^(N-1)", "b98c3c695baafc407c2804d09f98f0e6ae5cc5895daddc4e36a4a0f47ee1fa76");
      ("seed 301 dense t-1", "922f5350532c5079050e22051f120b66e0ba0ffd6af62f36f6aa4ab6c79dde19");
      ("seed 302 zero", "e0a5db60d16dc849cf0e75430416de7b3bb91917beff1a06e33972411b31ffdb");
      ("seed 302 x^0", "14476c50dadae59d700fcc0c91729214b6a14772da9ceeff34ba18a9c2bc54a6");
      ("seed 302 x^(N-1)", "86176d67eea6e93f68682b281f404eedc34b863e6e0a066eef1c220a1dee6854");
      ("seed 302 dense t-1", "fd4d85e12789a4b939d094e566fa51ace922387e2cfdf4f975569ab5bacb057d");
      ("seed 303 zero", "6945c075538e3bc43d96f672133167299d3c28608ff9d381ac647b05eea7632b");
      ("seed 303 x^0", "0bffbf63c6d610abb1e59e5513e68e584121eec58fa693b0b014baf73b23fe95");
      ("seed 303 x^(N-1)", "74aec89de868aa2d96607c9a61b5815c0e553bd479103eb0015ff7c624a2b03f");
      ("seed 303 dense t-1", "694af95e8f73512eda4f2c38872a52453bc67b5dc243470e2f73aff64081bff8");
    ]
    (golden_digests ctx sk pk)

let test_relinearized_golden () =
  let ctx = Lazy.force ctx_medium in
  let sk, pk = Lazy.force keys_medium in
  let rk = Bgv.relin_keygen ctx (Rng.create 304L) sk ~max_degree:2 in
  let rng = Rng.create 305L in
  let a = Bgv.encrypt_value ctx rng pk 3 and b = Bgv.encrypt_value ctx rng pk 5 in
  let prod = Bgv.relinearize ctx rk (Bgv.mul a b) in
  Alcotest.check pt_testable "x^3 * x^5" (mono ctx 8) (Bgv.decrypt ctx sk prod);
  check_goldens "relinearized product"
    [ ("x^3 * x^5", "35fe4c7040e785af8013021d900cd6b6a0d1555f855a1987c0ff565015ec748c") ]
    [ ("x^3 * x^5", wire_digest prod) ]

(* ------------------------------------------------------------------ *)
(* What an encryption costs                                            *)
(* ------------------------------------------------------------------ *)

(* An encryption allocates its 2L output rows, the three coefficient
   arrays it draws and a few small blocks: at most twice the words of
   the ciphertext it returns.  Lifting, transforming, multiplying and
   adding in separate passes, each into fresh rows, allocated about
   5.3 times as much. *)
let test_encrypt_allocation () =
  let ctx = Lazy.force ctx_medium in
  let _, pk = Lazy.force keys_medium in
  Obs.disable ();
  Pool.with_domains 1 (fun () ->
      let ct = Bgv.encrypt_value ctx (Rng.create 307L) pk 3 in
      let ct_words =
        Array.fold_left
          (fun acc c ->
            Array.fold_left (fun acc row -> acc + Array.length row + 1) acc (Rq.residues c))
          0 (Bgv.components ct)
      in
      let rng = Rng.create 308L in
      let words = Testkit.allocated_words (fun () -> ignore (Bgv.encrypt_value ctx rng pk 3)) in
      checkb
        (Printf.sprintf "%.0f words for a %d-word ciphertext" words ct_words)
        true
        (words <= 2. *. float_of_int ct_words))

(* Traced, one encryption counts what the separate ops counted: L
   transforms for u and for each of the two error sums, L limb
   multiplies for each public-key component, one encryption. *)
let test_encrypt_counters () =
  let ctx = Lazy.force ctx_medium in
  let _, pk = Lazy.force keys_medium in
  let l = Array.length (Rns.primes (Bgv.basis ctx)) in
  let names = [ Obs.Names.rq_limb_transforms; Obs.Names.rq_limb_ntt_muls; Obs.Names.bgv_encrypts ] in
  let values () = List.map (fun name -> Obs.Metrics.value (Obs.Metrics.counter name)) names in
  let before = values () in
  Obs.with_enabled (fun () -> ignore (Bgv.encrypt_value ctx (Rng.create 309L) pk 3));
  Alcotest.(check (list int))
    "rq.limb_transforms, rq.limb_ntt_muls, bgv.encrypts"
    [ 3 * l; 2 * l; 1 ]
    (List.map2 ( - ) (values ()) before)

(* ------------------------------------------------------------------ *)
(* Threshold-decryption hooks                                          *)
(* ------------------------------------------------------------------ *)

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
          Alcotest.test_case "sub plain" `Quick test_hom_sub_plain;
          Alcotest.test_case "mul plain (GROUP BY shift)" `Quick test_hom_mul_plain;
          Alcotest.test_case "zero encodings are neutral" `Quick test_enc_zero_polynomial_neutral;
          prop_homomorphism;
          prop_serialize_roundtrip;
        ] );
      ( "relinearization",
        [
          Alcotest.test_case "degree 2" `Quick test_relinearize_degree2;
          Alcotest.test_case "high degree (deferred)" `Quick test_relinearize_high_degree;
          Alcotest.test_case "exceeding key rejected" `Quick test_relinearize_too_high_rejected;
          Alcotest.test_case "degrees 2..5, test_small" `Quick
            (test_relinearize_degrees Params.test_small ~max_degree:5);
          Alcotest.test_case "degrees 2..8, test_medium" `Quick
            (test_relinearize_degrees Params.test_medium ~max_degree:8);
          Alcotest.test_case "degrees 2..4, test_wide" `Slow
            (test_relinearize_degrees Testkit.test_wide ~max_degree:4);
          Alcotest.test_case "relin then aggregate" `Quick test_relin_then_add;
        ] );
      ( "noise",
        [
          Alcotest.test_case "grows with multiplications" `Quick test_noise_grows_with_mults;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_deserialize_garbage;
          Alcotest.test_case "hash_into, wire_equal, ciphertext_bytes" `Quick
            test_wire_helpers_match_serialize;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "test_small encryptions" `Quick test_encrypt_goldens_small;
          Alcotest.test_case "test_medium encryptions" `Quick
            (test_encrypt_goldens_medium ~domains:1);
          Alcotest.test_case "test_medium encryptions, 2 domains" `Quick
            (test_encrypt_goldens_medium ~domains:2);
          Alcotest.test_case "t = 2^30 encryptions" `Quick test_encrypt_goldens_wide_t;
          Alcotest.test_case "relinearized product" `Quick test_relinearized_golden;
        ] );
      ( "encrypt-cost",
        [
          Alcotest.test_case "allocates at most twice its ciphertext" `Quick
            test_encrypt_allocation;
          Alcotest.test_case "counts 3L transforms, 2L multiplies" `Quick test_encrypt_counters;
        ] );
      ( "threshold-hooks",
        [
          Alcotest.test_case "key from polynomial" `Quick test_secret_key_of_poly;
        ] );
    ]
