(* Cross-checks for the ring kernels and the evaluation-domain
   (double-CRT) ring layer: known-answer vectors for the Montgomery
   transforms that Rq runs and for their constants; Rq's products
   against the schoolbook oracle; Shoup-vs-mod multiplier equivalence;
   the copy-free forward_into/inverse_into kernels; and representation
   round-trips and pinned pipeline bytes at the BGV layer.  Seeded
   throughout; the @ringops alias runs this binary plainly and under
   MYCELIUM_DOMAINS=8, so every check also exercises the per-limb pool
   dispatch. *)

module Rng = Mycelium_util.Rng
module Modarith = Mycelium_math.Modarith
module Montarith = Mycelium_math.Montarith
module Ntt = Mycelium_math.Ntt
module Mont_backend = Mycelium_math.Mont_backend
module Rns = Mycelium_math.Rns
module Rq = Mycelium_math.Rq
module Bgv = Mycelium_bgv.Bgv
module Params = Mycelium_bgv.Params
module Plaintext = Mycelium_bgv.Plaintext

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* A 3-prime basis: every property below is checked per limb. *)
let basis = lazy (Rns.standard ~degree:256 ~prime_bits:30 ~levels:3)

let random_rows rng basis =
  let n = Rns.degree basis in
  Array.map (fun p -> Array.init n (fun _ -> Rng.int rng p)) (Rns.primes basis)

(* Eval-domain multiply vs the O(n^2) schoolbook product, for every
   limb. *)
let test_eval_mul_cross_check () =
  let b = Lazy.force basis in
  let rng = Rng.create 41L in
  let primes = Rns.primes b in
  for _ = 1 to 8 do
    let rows_a = random_rows rng b and rows_b = random_rows rng b in
    let x = Rq.of_residues b rows_a and y = Rq.of_residues b rows_b in
    Rq.force_eval x;
    Rq.force_eval y;
    let prod = Rq.mul x y in
    checkb "product resident in Eval" true (Rq.repr_of prod = Rq.Eval);
    Rq.force_coeff prod;
    let prod_rows = Rq.residues prod in
    Array.iteri
      (fun j p ->
        checkb "eval-domain mul = schoolbook" true
          (prod_rows.(j) = Ntt.multiply_naive ~p rows_a.(j) rows_b.(j)))
      primes
  done

(* Shoup precomputed-quotient multiplication agrees with "* w mod p"
   for every modulus find_primes can hand the ring kernels at the
   30-bit operating point, including boundary operands. *)
let test_shoup_vs_mod () =
  let primes = Ntt.find_primes ~degree:1024 ~bits:30 ~count:10 in
  let rng = Rng.create 42L in
  List.iter
    (fun p ->
      for _ = 1 to 2000 do
        let w = Rng.int rng p in
        let w' = Modarith.shoup_precompute p w in
        let x = Rng.int rng p in
        checki "shoup = mod" (Modarith.mul p x w) (Modarith.shoup_mul p w w' x)
      done;
      List.iter
        (fun w ->
          let w' = Modarith.shoup_precompute p w in
          List.iter
            (fun x ->
              checki "shoup = mod (boundary)" (Modarith.mul p x w)
                (Modarith.shoup_mul p w w' x))
            [ 0; 1; 2; p - 2; p - 1 ])
        [ 0; 1; 2; p - 2; p - 1 ])
    primes

(* The copy-free kernels: forward_into leaves src intact and matches
   the in-place transform; inverse_into inverts it. *)
let test_into_variants () =
  let rng = Rng.create 43L in
  List.iter
    (fun n ->
      let p = List.hd (Ntt.find_primes ~degree:n ~bits:28 ~count:1) in
      let plan = Mont_backend.make_plan ~p ~degree:n in
      for _ = 1 to 5 do
        let a = Array.init n (fun _ -> Rng.int rng p) in
        let keep = Array.copy a in
        let fa = Array.make n 0 in
        Mont_backend.forward_into plan ~src:a ~dst:fa;
        checkb "forward_into leaves src intact" true (a = keep);
        let ip = Array.copy a in
        Mont_backend.forward plan ip;
        checkb "forward_into = in-place forward" true (fa = ip);
        let back = Array.make n 0 in
        Mont_backend.inverse_into plan ~src:fa ~dst:back;
        checkb "inverse_into . forward_into = id" true (back = a);
        checkb "inverse_into leaves src intact" true (fa = ip);
        Mont_backend.inverse plan ip;
        checkb "inverse_into = in-place inverse" true (ip = back)
      done)
    [ 1; 2; 8; 64; 256; 1024 ]

let test_pointwise_kernels () =
  let n = 128 in
  let p = List.hd (Ntt.find_primes ~degree:n ~bits:28 ~count:1) in
  let plan = Mont_backend.make_plan ~p ~degree:n in
  let rng = Rng.create 44L in
  let a = Array.init n (fun _ -> Rng.int rng p) in
  let b = Array.init n (fun _ -> Rng.int rng p) in
  let acc0 = Array.init n (fun _ -> Rng.int rng p) in
  let pw = Array.make n 0 in
  Mont_backend.pointwise_into plan ~dst:pw a b;
  for i = 0 to n - 1 do
    checki "pointwise" (Modarith.mul p a.(i) b.(i)) pw.(i)
  done;
  let acc = Array.copy acc0 in
  Mont_backend.pointwise_acc plan ~acc a b;
  for i = 0 to n - 1 do
    checki "pointwise_acc" (Modarith.add p acc0.(i) (Modarith.mul p a.(i) b.(i))) acc.(i)
  done;
  (* dst aliasing an input is allowed. *)
  let c = Array.copy a in
  Mont_backend.pointwise_into plan ~dst:c c b;
  checkb "pointwise_into aliasing" true (c = pw)

(* Rq.dot is the fused cross-term primitive behind Bgv.mul. *)
let test_dot_matches_sum_of_products () =
  let b = Lazy.force basis in
  let rng = Rng.create 45L in
  for k = 1 to 4 do
    let xs = Array.init k (fun _ -> Rq.random_uniform b rng) in
    let ys = Array.init k (fun _ -> Rq.random_uniform b rng) in
    let d = Rq.dot xs ys in
    checkb "dot resident in Eval" true (Rq.repr_of d = Rq.Eval);
    let expected = ref (Rq.zero b) in
    for i = 0 to k - 1 do
      expected := Rq.add !expected (Rq.mul xs.(i) ys.(i))
    done;
    checkb "dot = sum of products" true (Rq.equal d !expected)
  done

(* Linear ops must commute with the representation. *)
let test_linear_ops_domain_agnostic () =
  let b = Lazy.force basis in
  let rng = Rng.create 46L in
  for _ = 1 to 10 do
    let rows_x = random_rows rng b and rows_y = random_rows rng b in
    let fresh rows = Rq.of_residues b rows in
    let eval rows = let v = Rq.of_residues b rows in Rq.force_eval v; v in
    checkb "add commutes with repr" true
      (Rq.equal (Rq.add (fresh rows_x) (fresh rows_y)) (Rq.add (eval rows_x) (eval rows_y)));
    checkb "mixed-repr add" true
      (Rq.equal (Rq.add (fresh rows_x) (eval rows_y)) (Rq.add (eval rows_x) (fresh rows_y)));
    checkb "sub commutes with repr" true
      (Rq.equal (Rq.sub (fresh rows_x) (fresh rows_y)) (Rq.sub (eval rows_x) (eval rows_y)));
    checkb "neg commutes with repr" true (Rq.equal (Rq.neg (fresh rows_x)) (Rq.neg (eval rows_x)));
    checkb "mul_scalar commutes with repr" true
      (Rq.equal (Rq.mul_scalar (fresh rows_x) 17) (Rq.mul_scalar (eval rows_x) 17));
    (* Round-tripping the representation is the identity. *)
    let v = fresh rows_x in
    Rq.force_eval v;
    Rq.force_coeff v;
    checkb "force roundtrip is identity" true (Rq.equal v (fresh rows_x))
  done

(* --- elementwise ops against Modarith --------------------------------

   add, sub, mul_scalar, mul_scalar_residues and of_centered_coeffs
   write their modular step out per limb.  Each must give, residue for
   residue, what the Modarith reference mapped over Rq.residues gives,
   on the bases of test_small and test_medium, in either
   representation (the ops never transform, so rows tagged Eval are
   treated exactly like rows tagged Coeff). *)
let with_param_bases f =
  List.iter
    (fun p ->
      f
        (Rns.standard ~degree:p.Params.degree ~prime_bits:p.Params.prime_bits
           ~levels:p.Params.levels))
    [ Params.test_small; Params.test_medium ]

let check_rows name v expected_row =
  Array.iteri
    (fun j p ->
      Alcotest.(check (array int))
        (Printf.sprintf "%s, limb %d" name j)
        (expected_row j p) (Rq.residues v).(j))
    (Rns.primes (Rq.basis_of v))

(* Residue rows that open with the given per-prime values and continue
   at random. *)
let rows_starting_with rng b head =
  let n = Rns.degree b in
  Array.map
    (fun p ->
      let h = Array.of_list (head p) in
      Array.init n (fun i -> if i < Array.length h then h.(i) else Rng.int rng p))
    (Rns.primes b)

let test_of_centered_coeffs_reference () =
  with_param_bases (fun b ->
      let per_prime p = [ 0; 1; -1; p - 1; p; p + 1; -p; -p - 1; 2 * p; -2 * p ] in
      let coeffs =
        Array.of_list
          (List.concat_map per_prime (Array.to_list (Rns.primes b))
          @ [ 1 lsl 40; -(1 lsl 40); max_int; min_int ])
      in
      let v = Rq.of_centered_coeffs b coeffs in
      checkb "lifted into Coeff" true (Rq.repr_of v = Rq.Coeff);
      check_rows "of_centered_coeffs" v (fun _ p ->
          Array.init (Rns.degree b) (fun i ->
              if i < Array.length coeffs then Modarith.reduce p coeffs.(i) else 0)))

let test_mul_scalar_reference () =
  with_param_bases (fun b ->
      let rng = Rng.create 48L in
      let primes = Rns.primes b in
      let rows = rows_starting_with rng b (fun p -> [ 0; 1; p - 1; p - 2 ]) in
      let scalars =
        [ 0; 1; -1; 65537; 1 lsl 40; -(1 lsl 40) ]
        @ List.concat_map (fun p -> [ p - 1; p ]) (Array.to_list primes)
      in
      let residue_scalars =
        [
          Array.map (fun _ -> 0) primes;
          Array.map (fun p -> p - 1) primes;
          Array.map (fun p -> p + 3) primes;
          Array.map (fun p -> Rng.int rng p) primes;
        ]
      in
      List.iter
        (fun repr ->
          let x = Rq.of_residues ~repr b rows in
          let scaled name v by =
            checkb (name ^ " keeps the representation") true (Rq.repr_of v = repr);
            check_rows name v (fun j p ->
                Array.map (fun r -> Modarith.mul p r (Modarith.reduce p (by j))) rows.(j))
          in
          List.iter
            (fun s -> scaled (Printf.sprintf "mul_scalar %d" s) (Rq.mul_scalar x s) (fun _ -> s))
            scalars;
          List.iter
            (fun sv -> scaled "mul_scalar_residues" (Rq.mul_scalar_residues x sv) (fun j -> sv.(j)))
            residue_scalars)
        [ Rq.Coeff; Rq.Eval ])

let test_add_sub_reference () =
  with_param_bases (fun b ->
      let rng = Rng.create 49L in
      (* Every pairing of 0 and p - 1, then random residues. *)
      let rows_a = rows_starting_with rng b (fun p -> [ 0; 0; p - 1; p - 1; 1; p - 1 ]) in
      let rows_b = rows_starting_with rng b (fun p -> [ 0; p - 1; 0; p - 1; p - 1; 1 ]) in
      List.iter
        (fun repr ->
          let x = Rq.of_residues ~repr b rows_a and y = Rq.of_residues ~repr b rows_b in
          let against name v op ra rb =
            checkb (name ^ " keeps the representation") true (Rq.repr_of v = repr);
            check_rows name v (fun j p -> Array.map2 (op p) ra.(j) rb.(j))
          in
          against "add" (Rq.add x y) Modarith.add rows_a rows_b;
          against "sub" (Rq.sub x y) Modarith.sub rows_a rows_b;
          against "sub reversed" (Rq.sub y x) Modarith.sub rows_b rows_a)
        [ Rq.Coeff; Rq.Eval ])

(* The fused lift, transform and multiply-add behind Bgv.encrypt gives,
   residue for residue, what lifting, multiplying and adding in
   separate ops gives: for one to three terms, a mask and errors that
   open with the values around every prime and around the int range
   (the lifts Modarith.reduce takes) and continue wide at random, and
   multiplicands resident in either domain. *)
let test_mul_add_centered_reference () =
  with_param_bases (fun b ->
      let rng = Rng.create 50L in
      let n = Rns.degree b in
      let specials =
        List.concat_map
          (fun p -> [ 0; 1; -1; p - 1; p; p + 1; -p; -p - 1; 2 * p ])
          (Array.to_list (Rns.primes b))
        @ [ 1 lsl 40; -(1 lsl 40); max_int; min_int ]
      in
      let coeffs () =
        let h = Array.of_list specials in
        Array.init n (fun i ->
            if i < Array.length h then h.(i)
            else Rng.int rng (1 lsl 32) - (1 lsl 31))
      in
      for k = 1 to 3 do
        let u = coeffs () in
        let terms =
          Array.init k (fun i ->
              let a = Rq.random_uniform b rng in
              if i mod 2 = 0 then Rq.force_eval a;
              (a, coeffs ()))
        in
        let out = Rq.mul_add_centered ~u terms in
        Array.iteri
          (fun i (a, e) ->
            let expected =
              Rq.add (Rq.mul a (Rq.of_centered_coeffs b u)) (Rq.of_centered_coeffs b e)
            in
            checkb "resident in Eval" true (Rq.repr_of out.(i) = Rq.Eval);
            Alcotest.(check (array (array int)))
              (Printf.sprintf "%d terms, term %d" k i)
              (Rq.residues expected) (Rq.residues out.(i)))
          terms
      done;
      let a = Rq.random_uniform b rng in
      Alcotest.check_raises "no terms" (Invalid_argument "Rq.mul_add_centered: no terms")
        (fun () -> ignore (Rq.mul_add_centered ~u:(coeffs ()) [||]));
      Alcotest.check_raises "short mask" (Invalid_argument "Rq.mul_add_centered: wrong length")
        (fun () -> ignore (Rq.mul_add_centered ~u:(Array.make (n - 1) 0) [| (a, coeffs ()) |])))

(* BGV layer: fresh ciphertexts are Eval-resident, products decrypt
   correctly, serialization preserves the representation tag, and the
   decrypted plaintext does not depend on the resident domain. *)
let test_bgv_representation () =
  let ctx = Bgv.make_ctx Params.test_small in
  let rng = Rng.create 47L in
  let sk, pk = Bgv.keygen ctx rng in
  let rk = Bgv.relin_keygen ctx rng sk ~max_degree:2 in
  let a = Bgv.encrypt_value ctx rng pk 3 in
  let b = Bgv.encrypt_value ctx rng pk 5 in
  Array.iter
    (fun c -> checkb "fresh ciphertext is Eval-resident" true (Rq.repr_of c = Rq.Eval))
    (Bgv.components a);
  let prod = Bgv.relinearize ctx rk (Bgv.mul a b) in
  let pt = Bgv.decrypt ctx sk prod in
  checki "x^3 * x^5 decrypts to x^8" 1 (Plaintext.coeff pt 8);
  checki "no stray bin" 0 (Plaintext.coeff pt 7);
  (* Serialization round-trips bytes and tags in either domain. *)
  let check_roundtrip ct =
    let bytes = Bgv.serialize ct in
    match Bgv.deserialize ctx bytes with
    | None -> Alcotest.fail "deserialize rejected serialized ciphertext"
    | Some ct' ->
      checkb "serialize . deserialize stable" true (Bytes.equal (Bgv.serialize ct') bytes);
      Array.iteri
        (fun i c -> checkb "repr tag preserved" true (Rq.repr_of c = Rq.repr_of (Bgv.components ct).(i)))
        (Bgv.components ct')
  in
  check_roundtrip prod;
  Array.iter Rq.force_coeff (Bgv.components prod);
  check_roundtrip prod;
  let pt2 = Bgv.decrypt ctx sk prod in
  checkb "decrypt independent of resident domain" true
    (Plaintext.coeffs pt = Plaintext.coeffs pt2)

(* BGV end-to-end bytes are pinned: with a fixed rng seed the
   keygen/encrypt/mul/relinearize pipeline must serialize to the
   digests below.  They were recorded on the RNS-gadget relinearization
   key (one pair per prime), whose generation draws from the same rng
   as the encryptions after it, so the fresh digest depends on the key
   layout too.  The bytes also deserialize and decrypt under a context
   built separately. *)
let test_bgv_bytes_pinned () =
  let ctx = Bgv.make_ctx Params.test_small in
  let rng = Rng.create 50L in
  let sk, pk = Bgv.keygen ctx rng in
  let rk = Bgv.relin_keygen ctx rng sk ~max_degree:2 in
  let a = Bgv.encrypt_value ctx rng pk 3 in
  let b = Bgv.encrypt_value ctx rng pk 5 in
  let prod = Bgv.relinearize ctx rk (Bgv.mul a b) in
  let hex bytes = Digest.to_hex (Digest.bytes bytes) in
  Alcotest.(check string) "fresh ciphertext bytes" "df3cb28fa61455cfa2f05b1c5e08f025"
    (hex (Bgv.serialize a));
  Alcotest.(check string) "relinearized ciphertext bytes" "0d95f0f9cd022c6d12a3db33e402eb9c"
    (hex (Bgv.serialize prod));
  let pt = Bgv.decrypt ctx sk prod in
  checki "x^3 * x^5 decrypts to x^8" 1 (Plaintext.coeff pt 8);
  let ctx' = Bgv.make_ctx Params.test_small in
  match Bgv.deserialize ctx' (Bgv.serialize prod) with
  | None -> Alcotest.fail "deserialize rejected serialized ciphertext"
  | Some ct ->
    checkb "decrypt under a second context" true
      (Plaintext.coeffs (Bgv.decrypt ctx' sk ct) = Plaintext.coeffs pt)

(* --- Montgomery KATs (SNIPPETS.md №3 shape) -------------------------

   Known answers for Montarith, whose constants the Mont_backend
   butterflies read: each entry pins a modulus' derived constants
   (-p^-1 mod 2^62, R mod p, R^2 mod p), the two images of 1 and of
   R mod p under to_mont.  Every expectation is also re-derived from
   the Modarith mod-based reference inside the test, so the fixed
   numbers and the independent oracle must agree with each other and
   with the implementation. *)
let montgomery_kats =
  [
    (* First two find_primes ~degree:1024 ~bits:30 moduli and the first
       ~degree:256 ~bits:28 modulus: (p, -p^-1 mod 2^62, R mod p,
       R^2 mod p). *)
    (1073707009, 2975768425902602239, 553508864, 1009923275);
    (1073698817, 1203863690021918719, 956215294, 284234052);
    (268432897, 3840438174813517311, 150669887, 189441867);
  ]

let r_bits = 62

let test_montgomery_kat () =
  List.iter
    (fun (p, neg_p_inv, r_mod_p, r2_mod_p) ->
      checkb "kat modulus supported" true (Montarith.supports p);
      let c = Montarith.precompute p in
      checki "kat -p^-1 mod 2^62" neg_p_inv (Montarith.neg_p_inv c);
      (* -p^-1 * p = -1 mod 2^62. *)
      let mask62 = (1 lsl r_bits) - 1 in
      checki "kat p * (-p^-1) = -1 mod 2^62" mask62 ((neg_p_inv * p) land mask62);
      checki "kat R mod p vs modarith" (Modarith.pow p 2 r_bits) r_mod_p;
      checki "kat R^2 mod p vs modarith" (Modarith.mul p r_mod_p r_mod_p) r2_mod_p;
      checki "kat to_mont 1 = R mod p" r_mod_p (Montarith.to_mont c 1);
      checki "kat to_mont (R mod p) = R^2 mod p" r2_mod_p (Montarith.to_mont c r_mod_p);
      (* x * R mod p at the boundary operands and at random. *)
      let rng = Rng.create 48L in
      List.iter
        (fun x -> checki "to_mont vs modarith" (Modarith.mul p x r_mod_p) (Montarith.to_mont c x))
        ([ 0; 1; 2; p - 2; p - 1 ] @ List.init 2000 (fun _ -> Rng.int rng p));
      (* Out-of-range operands must be rejected, not silently wrapped. *)
      Alcotest.check_raises "to_mont rejects unreduced"
        (Invalid_argument "Montarith.mul: operands must be reduced") (fun () ->
          ignore (Montarith.to_mont c p)))
    montgomery_kats

(* --- Transform known answers ---------------------------------------

   The forward transform of a fixed input, x_i = (i + 1) * 0x9E3779B1
   mod p, recorded from the Shoup reference kernels that the
   Montgomery kernels replaced (bit-identical by construction, and
   cross-checked until those kernels were deleted): whole vectors at
   N = 16, and SHA-256 digests of the output (each coefficient as 4
   little-endian bytes) at the (p, N) pairs the suites run.  The
   inverse must give the input back. *)

let kat_input ~p n = Array.init n (fun i -> ((i + 1) * 0x9E3779B1) mod p)

let digest_of out =
  let b = Bytes.create (4 * Array.length out) in
  Array.iteri (fun i v -> Bytes.set_int32_le b (4 * i) (Int32.of_int v)) out;
  Testkit.Hex.encode (Mycelium_crypto.Sha256.digest b)

let check_transform ~p ~degree check_output =
  let plan = Mont_backend.make_plan ~p ~degree in
  let a = kat_input ~p degree in
  let fa = Array.make degree 0 in
  Mont_backend.forward_into plan ~src:a ~dst:fa;
  check_output fa;
  let back = Array.make degree 0 in
  Mont_backend.inverse_into plan ~src:fa ~dst:back;
  checkb (Printf.sprintf "p=%d N=%d: inverse gives the input back" p degree) true (back = a)

let forward_vectors_16 =
  [
    ( 1073741441,
      [| 535555101; 13772773; 119239660; 810471737; 474913747; 936065603; 482402985;
         710154622; 256649608; 595063700; 1024760357; 235904820; 619475676; 63664768;
         577524682; 655626225 |] );
    ( 1073740609,
      [| 711296501; 117143848; 495416677; 472060333; 512710421; 988370535; 390926936;
         145653347; 767077718; 467456464; 209111361; 1029156766; 231126828; 894671672;
         348284224; 330809057 |] );
  ]

let test_forward_vectors () =
  checkb "the N=16 moduli" true
    (Ntt.find_primes ~degree:16 ~bits:30 ~count:2 = List.map fst forward_vectors_16);
  List.iter
    (fun (p, expected) ->
      check_transform ~p ~degree:16 (fun out ->
          Alcotest.(check (array int)) (Printf.sprintf "p=%d N=16 forward" p) expected out))
    forward_vectors_16

(* (degree, prime bits, digests of the moduli find_primes returns, in
   its order). *)
let forward_digests =
  [
    ( 1024,
      30,
      [ "857b5801e7bae513c63477c7ea6802f33b3cdf99a08f7a7b3dde19506fdc1d4c";
        "6dffd9e2b9bbaacbb0617531b99593f8d90d810518b850f3f9010fa9c9dcb15c";
        "5eed3edcbad9ef536103d11100341c8ea81068a9b6dcb025722330b958cea859";
        "45ec8e5da5bb1b67bbee6426ddc8fb489f8c4c705d46f08e1ec91c6f65caa884";
        "e5e91f513695d653576a7212009cc50c5ce8c1095162e40260488dd5e324af36";
        "1068e64686a08d5e8baec2bc9871972eab3438894d811a2dbfc8adca20ad2ee4";
        "cefb7ccc5ceaab0cb79dd6bd959add386043d9fe9b35b8e0833cbdd550e04079";
        "8fdd307f60ae8ea3626a777a1569513126445cb461659e15a840b923347b68e7";
        "03cd7f50a87458db842783b6e3df48feadd7e00efa2eae70c1beae9328ce9012";
        "722dd5a63fb1134cfb8d4dbba462fcb1d4d6d131aad1cf132c0be1f23f62136a" ] );
    ( 8192,
      30,
      [ "4a818819a741b1986d215a4cb92e4528472fee8cc3fa6fe69b5b727ade71a9dd";
        "373c17681bb3e16f0c68453cbe454ce57e87b66c2a063cfed6d458bdcfebe78b";
        "7d4d22f60f942f34424ed451b1c5d9c4e8ba05718a597a382fe118f86aaf64da" ] );
    ( 32768,
      30,
      [ "9ec2689b624601c564417dffa453721c58be25f1eb9c29a938307f316262c534";
        "a5f4fffa887445e082d74322aba920519ee9c3f8cebbf7fe70ae7567c5652d5f" ] );
    (256, 28, [ "0f0de689b9386ff6faca83902285b0503712d7fa1cac50caaeb587cd54eaec76" ]);
    (1024, 28, [ "d6d54328d16e8548f43b811d5a9849c1b98e57aeba32c30b70bbf565e5078dcd" ]);
  ]

let test_forward_digests ~degree ~bits digests () =
  let primes = Ntt.find_primes ~degree ~bits ~count:(List.length digests) in
  List.iter2
    (fun p expected ->
      check_transform ~p ~degree (fun out ->
          Alcotest.(check string) (Printf.sprintf "p=%d N=%d forward digest" p degree) expected
            (digest_of out)))
    primes digests

(* --- Rq products against the schoolbook oracle ----------------------

   Rq's mul and dot on a 3-limb basis against the per-limb schoolbook
   product and the sum of its products.  At N = 1024 both operands are
   uniform; above that the O(N^2) oracle takes a sparse operand (16
   coefficients, the last two and one at random, so the negacyclic
   wrap is exercised).  Each degree is its own cell; the @ringops
   alias runs this binary plainly and under MYCELIUM_DOMAINS=8, so the
   Rq level is swept under the per-limb pool dispatch too. *)

let rq_profiles = [ (1024, 3); (8192, 2); (32768, 1) ]

let test_rq_vs_schoolbook ~degree ~rounds () =
  let rng = Rng.create (Int64.of_int (50 + degree)) in
  let basis = Rns.standard ~degree ~prime_bits:30 ~levels:3 in
  let primes = Rns.primes basis in
  let sparse_rows () =
    Array.map
      (fun p ->
        let row = Array.make degree 0 in
        row.(degree - 1) <- Rng.int rng p;
        row.(degree - 2) <- Rng.int rng p;
        for _ = 1 to 14 do
          row.(Rng.int rng degree) <- Rng.int rng p
        done;
        row)
      primes
  in
  for _ = 1 to rounds do
    let rows_x = if degree > 1024 then sparse_rows () else random_rows rng basis
    and rows_y = random_rows rng basis
    and rows_z = random_rows rng basis in
    let x = Rq.of_residues basis rows_x
    and y = Rq.of_residues basis rows_y
    and z = Rq.of_residues basis rows_z in
    let prod = Rq.mul x y in
    Rq.force_coeff prod;
    let d = Rq.dot [| x; y |] [| z; x |] in
    Rq.force_coeff d;
    Array.iteri
      (fun j p ->
        (* The schoolbook loop skips zero coefficients of its first
           operand, so the sparse row goes first. *)
        let naive a b = Ntt.multiply_naive ~p a b in
        checkb "Rq.mul = per-limb schoolbook" true
          ((Rq.residues prod).(j) = naive rows_x.(j) rows_y.(j));
        let xz = naive rows_x.(j) rows_z.(j) and xy = naive rows_x.(j) rows_y.(j) in
        checkb "Rq.dot = sum of per-limb schoolbook products" true
          ((Rq.residues d).(j) = Array.map2 (Modarith.add p) xz xy))
      primes
  done

(* Every limb runs on the Montgomery kernels, so a basis refuses a
   modulus they cannot take: it must be odd and below 2^30. *)
let test_unsupported_modulus_refused () =
  let degree = 64 in
  let p31 = List.hd (Ntt.find_primes ~degree ~bits:31 ~count:1) in
  checkb "31-bit prime is at or above 2^30" true (p31 >= 1 lsl 30);
  let refused = Invalid_argument "Mont_backend.make_plan: modulus must be odd and in (2, 2^30)" in
  Alcotest.check_raises "31-bit basis refused" refused (fun () ->
      ignore (Rns.standard ~degree ~prime_bits:31 ~levels:1));
  Alcotest.check_raises "even modulus refused" refused (fun () ->
      ignore (Mont_backend.make_plan ~p:(1 lsl 20) ~degree));
  checkb "30-bit basis runs on montgomery" true
    (String.equal (Rns.backend_name (Rns.standard ~degree ~prime_bits:30 ~levels:1)) "montgomery")

let () =
  Alcotest.run "mycelium-ringops"
    [
      ( "kernels",
        [
          Alcotest.test_case "shoup vs mod, all 30-bit moduli" `Quick test_shoup_vs_mod;
          Alcotest.test_case "montgomery KATs" `Quick test_montgomery_kat;
          Alcotest.test_case "forward_into / inverse_into" `Quick test_into_variants;
          Alcotest.test_case "pointwise kernels" `Quick test_pointwise_kernels;
        ] );
      ( "cross-check",
        [
          Alcotest.test_case "eval mul vs schoolbook, per limb" `Quick
            test_eval_mul_cross_check;
          Alcotest.test_case "dot = sum of products" `Quick test_dot_matches_sum_of_products;
          Alcotest.test_case "linear ops domain-agnostic" `Quick
            test_linear_ops_domain_agnostic;
        ] );
      ( "elementwise",
        [
          Alcotest.test_case "of_centered_coeffs vs Modarith" `Quick
            test_of_centered_coeffs_reference;
          Alcotest.test_case "mul_scalar vs Modarith" `Quick test_mul_scalar_reference;
          Alcotest.test_case "add and sub vs Modarith" `Quick test_add_sub_reference;
          Alcotest.test_case "mul_add_centered vs separate ops" `Quick
            test_mul_add_centered_reference;
        ] );
      ( "montgomery",
        (Alcotest.test_case "forward known answers, N=16" `Quick test_forward_vectors
        :: List.map
             (fun (degree, bits, digests) ->
               Alcotest.test_case
                 (Printf.sprintf "forward known answers, N=%d, %d-bit" degree bits)
                 `Quick
                 (test_forward_digests ~degree ~bits digests))
             forward_digests)
        @ List.map
            (fun (degree, rounds) ->
              Alcotest.test_case (Printf.sprintf "Rq level vs schoolbook, N=%d" degree) `Quick
                (test_rq_vs_schoolbook ~degree ~rounds))
            rq_profiles
        @ [
            Alcotest.test_case "unsupported moduli refused" `Quick
              test_unsupported_modulus_refused;
          ] );
      ( "bgv",
        [
          Alcotest.test_case "representation end-to-end" `Quick test_bgv_representation;
          Alcotest.test_case "pipeline bytes pinned" `Quick test_bgv_bytes_pinned;
        ] );
    ]
