(* Cross-checks for the ring kernels and the evaluation-domain
   (double-CRT) ring layer: the Montgomery kernels that Rq runs
   against the Shoup kernels of Ntt, which are the reference, and both
   against the schoolbook oracle; Shoup-vs-mod multiplier equivalence;
   the Montgomery KATs; the copy-free forward_into/inverse_into
   kernels; and representation round-trips and pinned pipeline bytes
   at the BGV layer.  Seeded throughout; the @ringops alias runs this
   binary plainly and under MYCELIUM_DOMAINS=8, so every check also
   exercises the per-limb pool dispatch. *)

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

(* Eval-domain multiply vs coefficient-domain Ntt.multiply vs the
   O(n^2) schoolbook product, for every limb. *)
let test_eval_mul_cross_check () =
  let b = Lazy.force basis in
  let rng = Rng.create 41L in
  let primes = Rns.primes b in
  let plans = Array.map (fun p -> Ntt.make_plan ~p ~degree:(Rns.degree b)) primes in
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
      (fun j plan ->
        let expected = Ntt.multiply plan rows_a.(j) rows_b.(j) in
        let naive = Ntt.multiply_naive ~p:primes.(j) rows_a.(j) rows_b.(j) in
        checkb "coefficient-domain NTT = schoolbook" true (expected = naive);
        checkb "eval-domain mul = coefficient-domain mul" true (prod_rows.(j) = expected))
      plans
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
      let plan = Ntt.make_plan ~p ~degree:n in
      for _ = 1 to 5 do
        let a = Array.init n (fun _ -> Rng.int rng p) in
        let keep = Array.copy a in
        let fa = Array.make n 0 in
        Ntt.forward_into plan ~src:a ~dst:fa;
        checkb "forward_into leaves src intact" true (a = keep);
        let ip = Array.copy a in
        Ntt.forward plan ip;
        checkb "forward_into = in-place forward" true (fa = ip);
        let back = Array.make n 0 in
        Ntt.inverse_into plan ~src:fa ~dst:back;
        checkb "inverse_into . forward_into = id" true (back = a);
        checkb "inverse_into leaves src intact" true (fa = ip);
        Ntt.inverse plan ip;
        checkb "inverse_into = in-place inverse" true (ip = back)
      done)
    [ 1; 2; 8; 64; 256; 1024 ]

let test_pointwise_kernels () =
  let n = 128 in
  let p = List.hd (Ntt.find_primes ~degree:n ~bits:28 ~count:1) in
  let plan = Ntt.make_plan ~p ~degree:n in
  let rng = Rng.create 44L in
  let a = Array.init n (fun _ -> Rng.int rng p) in
  let b = Array.init n (fun _ -> Rng.int rng p) in
  let acc0 = Array.init n (fun _ -> Rng.int rng p) in
  let pw = Ntt.pointwise plan a b in
  for i = 0 to n - 1 do
    checki "pointwise" (Modarith.mul p a.(i) b.(i)) pw.(i)
  done;
  let acc = Array.copy acc0 in
  Ntt.pointwise_acc plan ~acc a b;
  for i = 0 to n - 1 do
    checki "pointwise_acc" (Modarith.add p acc0.(i) (Modarith.mul p a.(i) b.(i))) acc.(i)
  done;
  (* dst aliasing an input is allowed. *)
  let c = Array.copy a in
  Ntt.pointwise_into plan ~dst:c c b;
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

   Known-answer vectors for Montarith, the scalar specification the
   Mont_backend butterflies hand-inline.  Each entry pins a modulus'
   derived constants (-p^-1 mod 2^62, R mod p, R^2 mod p), a list of
   (t, REDC(t)) reduction vectors — with boundary operands 0, 1, p-1
   and values straddling the R = 2^62 radix — and (x, y, mont_mul)
   product vectors.  Every expectation is additionally re-derived from
   the Modarith mod-based reference inside the test, so the fixed
   numbers and the independent oracle must agree with each other and
   with the implementation. *)
let montgomery_kats =
  [
    (* First two find_primes ~degree:1024 ~bits:30 moduli and the first
       ~degree:256 ~bits:28 modulus. *)
    ( 1073707009,
      2975768425902602239,
      553508864,
      1009923275,
      [
        (0, 0);
        (1, 692827613);
        (2, 311948217);
        (1073707008, 380879396);
        (1073707009, 0);
        (1073707010, 692827613);
        (2147483648, 1004485829);
        (2305843009213693952, 536853505);
        (2305843009213693953, 155974109);
        (4611686018427387903, 380879397);
        (4611686017353680895, 1);
        (4611686017353680896, 692827614);
        (1234567890123456789, 901025685);
      ],
      [
        (0, 0, 0);
        (0, 1, 0);
        (1, 1, 692827613);
        (1, 1073707008, 380879396);
        (1073707008, 1073707008, 692827613);
        (2, 536853504, 380879396);
        (123456789, 987654321, 107736587);
      ] );
    ( 1073698817,
      1203863690021918719,
      956215294,
      284234052,
      [
        (0, 0);
        (1, 280285131);
        (2, 560570262);
        (1073698816, 793413686);
        (1073698817, 0);
        (1073698818, 280285131);
        (2147483648, 685719733);
        (2305843009213693952, 536849409);
        (2305843009213693953, 817134540);
        (4611686018427387903, 793413687);
        (4611686017353689087, 1);
        (4611686017353689088, 280285132);
        (1234567890123456789, 297478379);
      ],
      [
        (0, 0, 0);
        (0, 1, 0);
        (1, 1, 280285131);
        (1, 1073698816, 793413686);
        (1073698816, 1073698816, 280285131);
        (2, 536849408, 793413686);
        (123456789, 987654321, 864628906);
      ] );
    ( 268432897,
      3840438174813517311,
      150669887,
      189441867,
      [
        (0, 0);
        (1, 223540792);
        (2, 178648687);
        (268432896, 44892105);
        (268432897, 0);
        (268432898, 223540792);
        (2147483648, 83065768);
        (2305843009213693952, 134216449);
        (2305843009213693953, 89324344);
        (4611686018427387903, 44892106);
        (4611686018158955007, 1);
        (4611686018158955008, 223540793);
        (1234567890123456789, 19781488);
      ],
      [
        (0, 0, 0);
        (0, 1, 0);
        (1, 1, 223540792);
        (1, 268432896, 44892105);
        (268432896, 268432896, 223540792);
        (2, 134216448, 44892105);
        (123456789, 182355630, 92186721);
      ] );
  ]

(* t * R^-1 mod p via the plain mod-based reference. *)
let redc_oracle p t =
  let r_inv = Modarith.inv p (Modarith.pow p 2 Montarith.r_bits) in
  Modarith.mul p (Modarith.reduce p t) r_inv

let test_montgomery_kat () =
  List.iter
    (fun (p, neg_p_inv, r_mod_p, r2_mod_p, reduces, muls) ->
      checkb "kat modulus supported" true (Montarith.supports p);
      let c = Montarith.precompute p in
      (* Derived constants. *)
      checki "kat -p^-1 mod 2^62" neg_p_inv (Montarith.neg_p_inv c);
      checki "kat R mod p" r_mod_p (Montarith.r_mod_p c);
      checki "kat R mod p vs modarith" (Modarith.pow p 2 Montarith.r_bits)
        (Montarith.r_mod_p c);
      checki "kat R^2 mod p" r2_mod_p (Montarith.r2_mod_p c);
      checki "kat R^2 mod p vs modarith"
        (Modarith.mul p (Montarith.r_mod_p c) (Montarith.r_mod_p c))
        (Montarith.r2_mod_p c);
      (* -p^-1 * p = -1 mod 2^62. *)
      let mask62 = (1 lsl 62) - 1 in
      checki "kat p * (-p^-1) = -1 mod 2^62" mask62 ((neg_p_inv * p) land mask62);
      (* montgomery_reduce vectors, each cross-checked against the
         mod-based oracle. *)
      List.iter
        (fun (t, expected) ->
          checki "kat reduce" expected (Montarith.reduce c t);
          checki "kat reduce vs modarith oracle" (redc_oracle p t) (Montarith.reduce c t))
        reduces;
      (* montgomery_mul vectors. *)
      List.iter
        (fun (x, y, expected) ->
          checki "kat mul" expected (Montarith.mul c x y);
          checki "kat mul vs modarith oracle" (redc_oracle p (x * y)) (Montarith.mul c x y))
        muls;
      (* Domain round-trip at the boundary operands. *)
      List.iter
        (fun x ->
          checki "to_mont/of_mont roundtrip" x (Montarith.of_mont c (Montarith.to_mont c x));
          checki "to_mont vs modarith" (Modarith.mul p x (Montarith.r_mod_p c))
            (Montarith.to_mont c x))
        [ 0; 1; 2; p - 2; p - 1 ];
      (* Randomized cross-check against the mod-based reference. *)
      let rng = Rng.create 48L in
      for _ = 1 to 2000 do
        let x = Rng.int rng p and y = Rng.int rng p in
        checki "mont mul vs mod oracle" (redc_oracle p (x * y)) (Montarith.mul c x y)
      done;
      (* Out-of-range operands must be rejected, not silently wrapped. *)
      Alcotest.check_raises "reduce rejects negatives" (Invalid_argument
        "Montarith.reduce: operand must lie in [0, 2^62)") (fun () ->
          ignore (Montarith.reduce c (-1)));
      Alcotest.check_raises "mul rejects unreduced"
        (Invalid_argument "Montarith.mul: operands must be reduced") (fun () ->
          ignore (Montarith.mul c p 1)))
    montgomery_kats

(* --- Differential suite: Montgomery kernels vs the Ntt reference ----

   Seeded random polynomials for every find_primes 30-bit modulus at
   N in {1024, 8192, 32768}: the Montgomery kernels must transform and
   multiply exactly as Ntt's Shoup kernels do, plan by plan, and Rq's
   mul and dot on a 3-limb basis must equal per-limb Ntt.multiply and
   the sum of its products.  Each level and degree is its own cell, so
   a failure names where the kernels diverged.  The @ringops alias runs
   this binary plainly and under MYCELIUM_DOMAINS=8, so the Rq level is
   swept under the per-limb pool dispatch too. *)

let differential_profiles =
  (* (degree, moduli to cover, Rq rounds).  All ten 30-bit moduli at
     N=1024; transform cost bounds the counts at the larger sizes,
     with N=32768 — the paper's ring degree — covered by two moduli. *)
  [ (1024, 10, 3); (8192, 3, 2); (32768, 2, 1) ]

(* Plan level: forward / inverse / pointwise per modulus. *)
let test_plan_differential ~degree ~count () =
  let primes = Ntt.find_primes ~degree ~bits:30 ~count in
  let rng = Rng.create (Int64.of_int (49 + degree)) in
  List.iter
    (fun p ->
      let rp = Ntt.make_plan ~p ~degree in
      let mp = Mont_backend.make_plan ~p ~degree in
      let a = Array.init degree (fun _ -> Rng.int rng p) in
      let b = Array.init degree (fun _ -> Rng.int rng p) in
      let fa_r = Array.make degree 0 and fa_m = Array.make degree 0 in
      Ntt.forward_into rp ~src:a ~dst:fa_r;
      Mont_backend.forward_into mp ~src:a ~dst:fa_m;
      checkb "forward identical" true (fa_r = fa_m);
      let fb = Array.copy b in
      Mont_backend.forward mp fb;
      let pw_r = Ntt.pointwise rp fa_r fb in
      let pw_m = Array.make degree 0 in
      Mont_backend.pointwise_into mp ~dst:pw_m fa_m fb;
      checkb "pointwise identical" true (pw_r = pw_m);
      let acc_r = Array.init degree (fun i -> i mod p) in
      let acc_m = Array.copy acc_r in
      Ntt.pointwise_acc rp ~acc:acc_r fa_r fb;
      Mont_backend.pointwise_acc mp ~acc:acc_m fa_m fb;
      checkb "pointwise_acc identical" true (acc_r = acc_m);
      let ia_r = Array.make degree 0 and ia_m = Array.make degree 0 in
      Ntt.inverse_into rp ~src:pw_r ~dst:ia_r;
      Mont_backend.inverse_into mp ~src:pw_m ~dst:ia_m;
      checkb "inverse identical" true (ia_r = ia_m);
      let rt = Array.copy a in
      Mont_backend.forward mp rt;
      Mont_backend.inverse mp rt;
      checkb "montgomery roundtrip is identity" true (rt = a))
    primes

(* Rq level: mul and dot on a 3-limb basis against per-limb
   Ntt.multiply on the same rows. *)
let test_rq_differential ~degree ~rounds () =
  let rng = Rng.create (Int64.of_int (50 + degree)) in
  let basis = Rns.standard ~degree ~prime_bits:30 ~levels:3 in
  let plans = Array.map (fun p -> Ntt.make_plan ~p ~degree) (Rns.primes basis) in
  for _ = 1 to rounds do
    let rows_x = random_rows rng basis
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
      (fun j plan ->
        let p = Ntt.modulus plan in
        checkb "Rq.mul = per-limb Ntt.multiply" true
          ((Rq.residues prod).(j) = Ntt.multiply plan rows_x.(j) rows_y.(j));
        let xz = Ntt.multiply plan rows_x.(j) rows_z.(j)
        and yx = Ntt.multiply plan rows_y.(j) rows_x.(j) in
        checkb "Rq.dot = sum of per-limb Ntt.multiply" true
          ((Rq.residues d).(j) = Array.map2 (Modarith.add p) xz yx))
      plans
  done

let differential_cases =
  List.concat_map
    (fun (degree, count, rounds) ->
      [
        Alcotest.test_case (Printf.sprintf "plan level vs Ntt, N=%d" degree) `Quick
          (test_plan_differential ~degree ~count);
        Alcotest.test_case (Printf.sprintf "Rq level vs Ntt, N=%d" degree) `Quick
          (test_rq_differential ~degree ~rounds);
      ])
    differential_profiles

(* Every limb runs on the Montgomery kernels, so a basis refuses a
   modulus they cannot take: it must be odd and below 2^30. *)
let test_rns_rejects_unsupported_modulus () =
  let degree = 64 in
  let p31 = List.hd (Ntt.find_primes ~degree ~bits:31 ~count:1) in
  checkb "31-bit prime is at or above 2^30" true (p31 >= 1 lsl 30);
  checkb "31-bit prime unavailable to montgomery" false (Mont_backend.available ~p:p31);
  let refused = Invalid_argument "Mont_backend.make_plan: modulus must be odd and in (2, 2^30)" in
  Alcotest.check_raises "31-bit prime refused" refused (fun () ->
      ignore (Rns.make ~primes:[ p31 ] ~degree));
  Alcotest.check_raises "even modulus refused" refused (fun () ->
      ignore (Rns.make ~primes:[ 1 lsl 20 ] ~degree));
  (* One unsupported limb spoils the whole basis. *)
  let p30 = List.hd (Ntt.find_primes ~degree ~bits:30 ~count:1) in
  Alcotest.check_raises "mixed basis refused" refused (fun () ->
      ignore (Rns.make ~primes:[ p30; p31 ] ~degree));
  checkb "30-bit basis runs on montgomery" true
    (String.equal (Rns.backend_name (Rns.make ~primes:[ p30 ] ~degree)) "montgomery")

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
          Alcotest.test_case "eval mul vs ntt vs naive, per limb" `Quick
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
        ] );
      ( "montgomery",
        differential_cases
        @ [
            Alcotest.test_case "Rns.make rejects unsupported moduli" `Quick
              test_rns_rejects_unsupported_modulus;
          ] );
      ( "bgv",
        [
          Alcotest.test_case "representation end-to-end" `Quick test_bgv_representation;
          Alcotest.test_case "pipeline bytes pinned" `Quick test_bgv_bytes_pinned;
        ] );
    ]
