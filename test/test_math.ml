(* Tests for mycelium_util and mycelium_math: PRNG, modular arithmetic,
   NTT, bignum, RNS/CRT (Garner's decode at every BGV parameter set)
   and the polynomial ring. *)

module Rng = Mycelium_util.Rng
module Hex = Testkit.Hex
module Stats = Mycelium_util.Stats
module Modarith = Mycelium_math.Modarith
module Ntt = Mycelium_math.Ntt
module Mont_backend = Mycelium_math.Mont_backend
module Bigint = Mycelium_math.Bigint
module Rns = Mycelium_math.Rns
module Rq = Mycelium_math.Rq

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  checkb "different seeds differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_uniformity () =
  let rng = Rng.create 99L in
  let n = 10 and draws = 100_000 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let v = Rng.int rng n in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int draws /. float_of_int n in
  Array.iter
    (fun c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      checkb "within 5% of uniform" true (dev < 0.05))
    counts

(* The bulk draws are the single draws in bulk: the same values in the
   same order, and the generator left where the loop of single draws
   leaves it, so the next draw agrees too.  Bounds 1, 2 and 3, a 28-
   and a 30-bit prime, and 2^61 + 1, where about every other raw draw
   is rejected. *)
let test_rng_fill_int_matches_int () =
  let p28 = List.hd (Ntt.find_primes ~degree:1024 ~bits:28 ~count:1) in
  let p30 = List.hd (Ntt.find_primes ~degree:1024 ~bits:30 ~count:1) in
  List.iter
    (fun bound ->
      List.iter
        (fun len ->
          let seed = Int64.of_int ((bound land 0xFFFF) + len) in
          let bulk = Rng.create seed and single = Rng.create seed in
          let a = Array.make len (-1) in
          Rng.fill_int bulk bound a;
          let name = Printf.sprintf "bound %d, length %d" bound len in
          check Alcotest.(array int) name (Array.init len (fun _ -> Rng.int single bound)) a;
          check Alcotest.int64 (name ^ ": next draw") (Rng.int64 single) (Rng.int64 bulk))
        [ 0; 1; 5; 1000 ])
    [ 1; 2; 3; p28; p30; (1 lsl 61) + 1 ];
  (* At 2^61 + 1 the fill really rejects: 1000 values take more than
     1000 steps of the generator. *)
  let bulk = Rng.create 61L and steps = Rng.create 61L in
  Rng.fill_int bulk ((1 lsl 61) + 1) (Array.make 1000 0);
  for _ = 1 to 1000 do
    ignore (Rng.int64 steps)
  done;
  checkb "rejections at 2^61 + 1" false (Int64.equal (Rng.int64 bulk) (Rng.int64 steps));
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.fill_int: bound must be positive")
    (fun () -> Rng.fill_int (Rng.create 1L) 0 [| 0 |])

(* One coin: the low bit of the next 64-bit output. *)
let coin rng = Int64.equal (Int64.logand (Rng.int64 rng) 1L) 1L

let test_rng_fill_centered_binomial_matches_bool () =
  List.iter
    (fun eta ->
      List.iter
        (fun len ->
          let bulk = Rng.create 77L and single = Rng.create 77L in
          let a = Array.make len 99 in
          Rng.fill_centered_binomial bulk ~eta a;
          let expected =
            Array.init len (fun _ ->
                let acc = ref 0 in
                for _ = 1 to eta do
                  if coin single then incr acc;
                  if coin single then decr acc
                done;
                !acc)
          in
          let name = Printf.sprintf "eta %d, length %d" eta len in
          check Alcotest.(array int) name expected a;
          check Alcotest.int64 (name ^ ": next draw") (Rng.int64 single) (Rng.int64 bulk))
        [ 0; 1; 7; 1000 ])
    [ 1; 2; 3; 8 ]

(* A zero-length fill makes no draw: the next draw is the stream's
   first. *)
let test_rng_empty_fill () =
  let first = Rng.int64 (Rng.create 5L) in
  let r = Rng.create 5L in
  Rng.fill_int r 3 [||];
  Rng.fill_centered_binomial r ~eta:2 [||];
  check Alcotest.int64 "state untouched" first (Rng.int64 r)

let all_purposes =
  Rng.
    [
      Genesis; Byzantine_set; Contribution_row; Origin_aggregate; Audit_probe;
      Decrypt_session; Committee_rotation; Query_noise; Member_noise; Fault_churn;
      Fault_drop; Fault_delay; Fault_forge; Mix_malicious; Mix_device_key; Mix_path;
      Mix_link_key; Mix_churn; Mix_shuffle; Mix_dummy; Mix_audit;
    ]

let test_rng_keyed_streams () =
  let draws g = Array.init 32 (fun _ -> Rng.int64 g) in
  let stream root p coords = draws (Rng.keyed root p coords) in
  checkb "equal keys give equal streams" true
    (stream 7L Rng.Contribution_row [ 1; 2; 3 ] = stream 7L Rng.Contribution_row [ 1; 2; 3 ]);
  checkb "keyed = create of key" true
    (stream 7L Rng.Member_noise [ 4 ] = draws (Rng.create (Rng.key 7L Rng.Member_noise [ 4 ])));
  checkb "another purpose, another stream" true
    (stream 7L Rng.Query_noise [ 1 ] <> stream 7L Rng.Member_noise [ 1 ]);
  checkb "another coordinate, another stream" true
    (stream 7L Rng.Contribution_row [ 1; 2; 3 ] <> stream 7L Rng.Contribution_row [ 1; 3; 2 ]);
  checkb "another root, another stream" true
    (stream 7L Rng.Audit_probe [ 1 ] <> stream 8L Rng.Audit_probe [ 1 ]);
  (* [mix64 root] is a bijection of the tag, so distinct keys at one
     root and no coordinates mean pairwise distinct tags. *)
  let keys = List.map (fun p -> Rng.key 0L p []) all_purposes in
  checki "tags pairwise distinct" (List.length all_purposes)
    (List.length (List.sort_uniq Int64.compare keys))

let test_rng_sample_without_replacement () =
  let rng = Rng.create 5L in
  let s = Rng.sample_without_replacement rng 10 100 in
  checki "ten elements" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  let distinct = Array.to_list sorted |> List.sort_uniq compare |> List.length in
  checki "all distinct" 10 distinct;
  Array.iter (fun v -> checkb "in range" true (v >= 0 && v < 100)) s;
  (* Dense case takes the shuffle path. *)
  let all = Rng.sample_without_replacement rng 100 100 in
  let sorted = Array.copy all in
  Array.sort compare sorted;
  checkb "permutation" true (sorted = Array.init 100 (fun i -> i))

let test_rng_laplace_moments () =
  let rng = Rng.create 11L in
  let b = 2.5 in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> Rng.laplace rng b) in
  let mean = Stats.mean xs in
  let var = Testkit.variance xs in
  checkb "mean near 0" true (Float.abs mean < 0.05);
  (* Laplace variance is 2 b^2 = 12.5. *)
  checkb "variance near 2b^2" true (Float.abs (var -. 12.5) < 0.5)

let test_rng_gaussian_moments () =
  let rng = Rng.create 13L in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng 3.0) in
  checkb "mean near 0" true (Float.abs (Stats.mean xs) < 0.05);
  checkb "stddev near 3" true (Float.abs (Testkit.stddev xs -. 3.0) < 0.05)

let test_rng_geometric () =
  let rng = Rng.create 17L in
  let p = 0.25 in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> float_of_int (Rng.geometric rng p)) in
  (* Mean of failures-before-success geometric is (1-p)/p = 3. *)
  checkb "mean near 3" true (Float.abs (Stats.mean xs -. 3.0) < 0.1)

let test_rng_bernoulli () =
  let rng = Rng.create 23L in
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let frac = float_of_int !hits /. 100_000. in
  checkb "fraction near 0.3" true (Float.abs (frac -. 0.3) < 0.01)

(* ------------------------------------------------------------------ *)
(* Hex / Stats                                                         *)
(* ------------------------------------------------------------------ *)

let test_hex_roundtrip () =
  let rng = Rng.create 1L in
  for _ = 1 to 50 do
    let b = Rng.bytes rng (Rng.int rng 64) in
    check Alcotest.bytes "roundtrip" b (Hex.decode (Hex.encode b))
  done

let test_hex_known () =
  check Alcotest.string "abc" "616263" (Hex.encode (Bytes.of_string "abc"));
  check Alcotest.bytes "decode upper" (Bytes.of_string "\xde\xad\xbe\xef") (Hex.decode "DEADBEEF")

let test_hex_invalid () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Hex.decode: non-hex character") (fun () ->
      ignore (Hex.decode "zz"))

let test_stats_basic () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  check (Alcotest.float 1e-9) "mean" 3.0 (Stats.mean a);
  check (Alcotest.float 1e-9) "variance" 2.0 (Testkit.variance a);
  check (Alcotest.float 1e-9) "median" 3.0 (Stats.median a);
  check (Alcotest.float 1e-9) "even-length median interpolates" 2.5
    (Stats.median [| 4.; 1.; 3.; 2. |]);
  check (Alcotest.float 1e-9) "minimum" 1.0 (Stats.minimum a)

(* ------------------------------------------------------------------ *)
(* Modarith                                                            *)
(* ------------------------------------------------------------------ *)

let p31 = 2147483647 (* 2^31 - 1, prime *)

let test_modarith_basic () =
  checki "add wraps" 0 (Modarith.add p31 (p31 - 1) 1);
  checki "sub wraps" (p31 - 1) (Modarith.sub p31 0 1);
  checki "neg zero" 0 (Modarith.neg p31 0);
  checki "mul" 6 (Modarith.mul p31 2 3);
  checki "pow" 1024 (Modarith.pow p31 2 10);
  checki "pow zero exponent" 1 (Modarith.pow p31 12345 0);
  checki "reduce negative" (p31 - 5) (Modarith.reduce p31 (-5))

let test_modarith_fermat () =
  (* a^(p-1) = 1 mod p for prime p. *)
  List.iter
    (fun a -> checki "fermat" 1 (Modarith.pow p31 a (p31 - 1)))
    [ 2; 3; 12345; 99999999 ]

let test_modarith_inv () =
  let rng = Rng.create 31L in
  for _ = 1 to 200 do
    let a = 1 + Rng.int rng (p31 - 1) in
    let i = Modarith.inv p31 a in
    checki "a * a^-1 = 1" 1 (Modarith.mul p31 a i)
  done;
  Alcotest.check_raises "inv 0" (Invalid_argument "Modarith.inv: zero has no inverse")
    (fun () -> ignore (Modarith.inv p31 0))

let test_modarith_is_prime () =
  List.iter (fun n -> checkb (string_of_int n) true (Modarith.is_prime n))
    [ 2; 3; 5; 7; 97; 7681; 12289; 786433; 2147483647 ];
  List.iter (fun n -> checkb (string_of_int n) false (Modarith.is_prime n))
    [ 0; 1; 4; 9; 561; 1105; 1729; 2465; 6601; 2147483646 ]

let test_modarith_primitive_root () =
  (* A root of unity of order p - 1 generates the whole group. *)
  List.iter
    (fun p ->
      let g = Modarith.nth_root_of_unity p (p - 1) in
      (* Order of g must be exactly p-1: g^((p-1)/q) <> 1 for prime q | p-1. *)
      checki "g^(p-1)=1" 1 (Modarith.pow p g (p - 1));
      checkb "g^((p-1)/2) <> 1" true (p = 2 || Modarith.pow p g ((p - 1) / 2) <> 1))
    [ 3; 5; 7; 12289; 7681; 786433 ]

let test_modarith_root_of_unity () =
  let p = 12289 in
  (* 12289 = 3 * 2^12 + 1: supports 2N up to 4096. *)
  let w = Modarith.nth_root_of_unity p 4096 in
  checki "w^4096 = 1" 1 (Modarith.pow p w 4096);
  checkb "w^2048 <> 1" true (Modarith.pow p w 2048 <> 1)

(* ------------------------------------------------------------------ *)
(* NTT                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ntt_find_primes () =
  let ps = Ntt.find_primes ~degree:1024 ~bits:30 ~count:5 in
  checki "five primes" 5 (List.length ps);
  List.iter
    (fun p ->
      checkb "prime" true (Modarith.is_prime p);
      checki "p mod 2N = 1" 1 (p mod 2048);
      checkb "below 2^30" true (p < 1 lsl 30))
    ps;
  checki "distinct" 5 (List.sort_uniq compare ps |> List.length)

(* The transforms Rq runs: the Montgomery kernels of Mont_backend, and
   the negacyclic product built from them. *)
let plan_28 n =
  let p = List.hd (Ntt.find_primes ~degree:n ~bits:28 ~count:1) in
  (p, Mont_backend.make_plan ~p ~degree:n)

let ntt_multiply plan n a b =
  let fa = Array.make n 0 and fb = Array.make n 0 in
  Mont_backend.forward_into plan ~src:a ~dst:fa;
  Mont_backend.forward_into plan ~src:b ~dst:fb;
  Mont_backend.pointwise_into plan ~dst:fa fa fb;
  Mont_backend.inverse plan fa;
  fa

let test_ntt_roundtrip () =
  let n = 256 in
  let p, plan = plan_28 n in
  let rng = Rng.create 101L in
  for _ = 1 to 20 do
    let a = Array.init n (fun _ -> Rng.int rng p) in
    let b = Array.copy a in
    Mont_backend.forward plan b;
    checkb "transform changes data" true (a <> b);
    Mont_backend.inverse plan b;
    checkb "roundtrip" true (a = b)
  done

let test_ntt_seeded_roundtrip_all_degrees () =
  (* forward/inverse is the identity in both composition orders for
     random vectors at every supported degree; fixed Rng seeds make
     each sweep reproducible. *)
  List.iter
    (fun n ->
      let p, plan = plan_28 n in
      let rng = Rng.create (Int64.of_int (7000 + n)) in
      for _ = 1 to 25 do
        let a = Array.init n (fun _ -> Rng.int rng p) in
        let b = Array.copy a in
        Mont_backend.forward plan b;
        Mont_backend.inverse plan b;
        checkb "inverse . forward = id" true (a = b);
        let c = Array.copy a in
        Mont_backend.inverse plan c;
        Mont_backend.forward plan c;
        checkb "forward . inverse = id" true (a = c)
      done)
    [ 8; 32; 128; 512 ]

let test_ntt_vs_naive () =
  List.iter
    (fun n ->
      let p, plan = plan_28 n in
      let rng = Rng.create (Int64.of_int n) in
      for _ = 1 to 10 do
        let a = Array.init n (fun _ -> Rng.int rng p) in
        let b = Array.init n (fun _ -> Rng.int rng p) in
        let fast = ntt_multiply plan n a b in
        let slow = Ntt.multiply_naive ~p a b in
        checkb "ntt = naive" true (fast = slow)
      done)
    [ 8; 64; 256 ]

let test_ntt_negacyclic_wraparound () =
  (* x^(N-1) * x = x^N = -1. *)
  let n = 64 in
  let p, plan = plan_28 n in
  let a = Array.make n 0 and b = Array.make n 0 in
  a.(n - 1) <- 1;
  b.(1) <- 1;
  let c = ntt_multiply plan n a b in
  checki "constant term is -1" (p - 1) c.(0);
  for i = 1 to n - 1 do
    checki "other terms zero" 0 c.(i)
  done

let test_ntt_monomial_exponent_addition () =
  (* The Mycelium histogram encoding: x^a * x^b = x^(a+b). *)
  let n = 128 in
  let _, plan = plan_28 n in
  let mono e = Array.init n (fun i -> if i = e then 1 else 0) in
  let c = ntt_multiply plan n (mono 17) (mono 40) in
  Array.iteri (fun i v -> checki "monomial product" (if i = 57 then 1 else 0) v) c

let test_ntt_linearity () =
  let n = 128 in
  let p, plan = plan_28 n in
  let rng = Rng.create 202L in
  let a = Array.init n (fun _ -> Rng.int rng p) in
  let b = Array.init n (fun _ -> Rng.int rng p) in
  let sum = Array.init n (fun i -> Modarith.add p a.(i) b.(i)) in
  let fa = Array.copy a and fb = Array.copy b and fs = Array.copy sum in
  Mont_backend.forward plan fa;
  Mont_backend.forward plan fb;
  Mont_backend.forward plan fs;
  Array.iteri (fun i v -> checki "NTT(a+b) = NTT(a)+NTT(b)" v (Modarith.add p fa.(i) fb.(i))) fs

(* ------------------------------------------------------------------ *)
(* Bigint                                                              *)
(* ------------------------------------------------------------------ *)

(* Decimal text, sign and equality over the public arithmetic: the
   printer and parser of the vectors below. *)
let bi = Bigint.of_int
let big_equal a b = Bigint.compare a b = 0
let big_neg a = Bigint.sub Bigint.zero a
let big_abs a = if Bigint.sign a < 0 then big_neg a else a
let billion = 1_000_000_000

let big_to_string t =
  let rec chunks v acc =
    if Bigint.sign v = 0 then acc
    else chunks (Bigint.div v (bi billion)) (Bigint.rem_int v billion :: acc)
  in
  match chunks (big_abs t) [] with
  | [] -> "0"
  | first :: rest ->
    String.concat ""
      ((if Bigint.sign t < 0 then "-" else "")
      :: string_of_int first :: List.map (Printf.sprintf "%09d") rest)

let big_of_string s =
  let negative = String.length s > 0 && s.[0] = '-' in
  let digits = if negative then String.sub s 1 (String.length s - 1) else s in
  let v =
    String.fold_left
      (fun acc c -> Bigint.add (Bigint.mul_int acc 10) (bi (Char.code c - Char.code '0')))
      Bigint.zero digits
  in
  if negative then big_neg v else v

let big_to_int t = int_of_string (big_to_string t)

let pow2 k =
  let rec go acc k = if k = 0 then acc else go (Bigint.mul_int acc 2) (k - 1) in
  go Bigint.one k

let bigint_testable =
  Alcotest.testable (fun fmt v -> Format.pp_print_string fmt (big_to_string v)) big_equal

let test_bigint_of_to_int () =
  List.iter
    (fun v -> checki "roundtrip" v (big_to_int (bi v)))
    [ 0; 1; -1; 42; -42; max_int / 2; min_int / 2; 1 lsl 40; -(1 lsl 40) ]

let test_bigint_string_roundtrip () =
  List.iter
    (fun s -> check Alcotest.string "decimal roundtrip" s (big_to_string (big_of_string s)))
    [ "0"; "1"; "-1"; "123456789012345678901234567890";
      "-999999999999999999999999999999999999";
      "340282366920938463463374607431768211456" (* 2^128 *) ]

let test_bigint_arith_known () =
  let a = big_of_string "123456789012345678901234567890" in
  let b = big_of_string "987654321098765432109876543210" in
  check bigint_testable "add"
    (big_of_string "1111111110111111111011111111100")
    (Bigint.add a b);
  check bigint_testable "sub"
    (big_of_string "-864197532086419753208641975320")
    (Bigint.sub a b);
  check bigint_testable "mul"
    (big_of_string "121932631137021795226185032733622923332237463801111263526900")
    (Bigint.mul a b)

let test_bigint_divmod_known () =
  let a = big_of_string "121932631137021795226185032733622923332237463801111263526900" in
  let b = big_of_string "987654321098765432109876543210" in
  check bigint_testable "exact quotient" (big_of_string "123456789012345678901234567890")
    (Bigint.div a b);
  check bigint_testable "zero remainder" Bigint.zero (Bigint.erem a b)

let int_small = QCheck.int_range (-1000000000) 1000000000

let prop_bigint_matches_int =
  qtest "bigint arith matches int oracle" QCheck.(pair int_small int_small) (fun (a, b) ->
      let ba = bi a and bb = bi b in
      big_to_int (Bigint.add ba bb) = a + b
      && big_to_int (Bigint.sub ba bb) = a - b
      && big_to_int (Bigint.mul ba bb) = a * b)

let prop_bigint_divmod_int =
  qtest "bigint div/erem match int oracle"
    QCheck.(pair int_small (int_small |> map (fun v -> if v = 0 then 1 else v)))
    (fun (a, b) ->
      big_to_int (Bigint.div (bi a) (bi b)) = a / b
      && big_to_int (Bigint.erem (bi a) (bi b)) = ((a mod b) + abs b) mod abs b)

let big_gen =
  (* Random bigints up to ~300 bits via hex strings. *)
  QCheck.Gen.(
    let* len = int_range 1 75 in
    let* neg = bool in
    let* digits = string_size ~gen:(oneofl [ '0'; '1'; '2'; '3'; '4'; '5'; '6'; '7'; '8'; '9'; 'a'; 'b'; 'c'; 'd'; 'e'; 'f' ]) (return len) in
    return (let v = Bigint.of_hex digits in if neg then big_neg v else v))

let arb_big = QCheck.make ~print:big_to_string big_gen

(* Truncated division leaves a remainder a - q*b smaller than b in
   magnitude with the sign of a; the Euclidean remainder lies in
   [0, |b|) and differs from it by |b| at most. *)
let division_holds a b =
  let q = Bigint.div a b in
  let r = Bigint.sub a (Bigint.mul q b) in
  let e = Bigint.erem a b in
  Bigint.compare (big_abs r) (big_abs b) < 0
  && (Bigint.sign r = 0 || Bigint.sign r = Bigint.sign a)
  && Bigint.sign e >= 0
  && Bigint.compare e (big_abs b) < 0
  && big_equal e (if Bigint.sign r < 0 then Bigint.add r (big_abs b) else r)

let prop_bigint_divmod_invariant =
  qtest "division invariant: a = q*b + r, |r| < |b|" QCheck.(pair arb_big arb_big)
    (fun (a, b) ->
      QCheck.assume (Bigint.sign b <> 0);
      division_holds a b)

let prop_bigint_ring_axioms =
  qtest "ring axioms" QCheck.(triple arb_big arb_big arb_big) (fun (a, b, c) ->
      big_equal (Bigint.add a b) (Bigint.add b a)
      && big_equal (Bigint.mul a b) (Bigint.mul b a)
      && big_equal (Bigint.mul a (Bigint.add b c)) (Bigint.add (Bigint.mul a b) (Bigint.mul a c))
      && big_equal (Bigint.mul (Bigint.mul a b) c) (Bigint.mul a (Bigint.mul b c)))

let prop_bigint_shift =
  qtest "shift_right is division by a power of two"
    QCheck.(pair arb_big (int_range 0 100))
    (fun (a, k) -> big_equal (Bigint.shift_right (big_abs a) k) (Bigint.div (big_abs a) (pow2 k)))

let prop_bigint_bytes_roundtrip =
  qtest "bytes_be roundtrip" arb_big (fun a ->
      let a = big_abs a in
      big_equal a (Bigint.of_bytes_be (Bigint.to_bytes_be a)))

let prop_bigint_rem_int =
  qtest "rem_int matches erem" QCheck.(pair arb_big (QCheck.int_range 1 2000000000))
    (fun (a, p) ->
      Bigint.rem_int a p = big_to_int (Bigint.erem a (bi p)))

let test_bigint_seeded_divmod_mul_identities () =
  (* Seeded randomized sweep over wide, sign-mixed operands: the
     division contract, exact division of products, and the binomial
     identity (which stresses carries across limb boundaries). *)
  let rng = Rng.create 9001L in
  let random_big bits =
    let v = Bigint.random rng (pow2 (2 + Rng.int rng bits)) in
    if Rng.int rng 2 = 0 then big_neg v else v
  in
  for _ = 1 to 200 do
    let a = random_big 192 and b = random_big 128 in
    (if Bigint.sign b <> 0 then begin
       checkb "division contract" true (division_holds a b);
       checkb "(a*b)/b = a exactly" true
         (big_equal (Bigint.div (Bigint.mul a b) b) a
         && Bigint.sign (Bigint.erem (Bigint.mul a b) b) = 0)
     end);
    let sq x = Bigint.mul x x in
    let lhs = sq (Bigint.add a b) in
    let rhs =
      Bigint.add (sq a)
        (Bigint.add (Bigint.mul (Bigint.of_int 2) (Bigint.mul a b)) (sq b))
    in
    checkb "(a+b)^2 = a^2 + 2ab + b^2" true (big_equal lhs rhs)
  done

let test_bigint_mod_pow () =
  (* 2^10 mod 1000 = 24; also a big case checked against repeated squaring. *)
  checki "small" 24 (big_to_int (Bigint.mod_pow (bi 2) (bi 10) (bi 1000)));
  let m = big_of_string "1000000007" in
  let r = Bigint.mod_pow (bi 3) (big_of_string "1000000006") m in
  (* Fermat: 3^(p-1) = 1 mod p. *)
  check bigint_testable "fermat big" Bigint.one r

let test_bigint_num_bits () =
  checki "zero" 0 (Bigint.num_bits Bigint.zero);
  checki "one" 1 (Bigint.num_bits Bigint.one);
  checki "255" 8 (Bigint.num_bits (bi 255));
  checki "256" 9 (Bigint.num_bits (bi 256));
  checki "2^100" 101 (Bigint.num_bits (pow2 100))

(* 2^127 - 1, a Mersenne prime. *)
let m127 = Bigint.sub (pow2 127) Bigint.one

let test_bigint_of_hex_known () =
  check bigint_testable "empty" Bigint.zero (Bigint.of_hex "");
  check bigint_testable "ff" (bi 255) (Bigint.of_hex "ff");
  check bigint_testable "upper case" (bi 255) (Bigint.of_hex "FF");
  check bigint_testable "leading zeros" Bigint.one (Bigint.of_hex "0001");
  check bigint_testable "underscores skipped" (pow2 32) (Bigint.of_hex "1_0000_0000");
  check bigint_testable "2^127 - 1" m127 (Bigint.of_hex (String.make 1 '7' ^ String.make 31 'f'));
  Alcotest.check_raises "bad digit" (Invalid_argument "Bigint.of_hex: bad digit") (fun () ->
      ignore (Bigint.of_hex "12g4"))

let test_bigint_bytes_be_known () =
  let bytes v = Bytes.to_string (Bigint.to_bytes_be v) in
  check Alcotest.string "zero is empty" "" (bytes Bigint.zero);
  check Alcotest.string "255" "\xff" (bytes (bi 255));
  check Alcotest.string "256" "\x01\x00" (bytes (bi 256));
  check Alcotest.string "the magnitude of a negative" "\x01\x00" (bytes (bi (-256)));
  check Alcotest.string "2^64" ("\x01" ^ String.make 8 '\x00') (bytes (pow2 64));
  check bigint_testable "leading zero bytes ignored" Bigint.one
    (Bigint.of_bytes_be (Bytes.of_string "\x00\x00\x01"))

let test_bigint_random_bounds () =
  (* Uniform in [0, bound): at bounds on and around the 26-bit limb
     edges, every small value is reached, and a bound <= 0 is
     refused. *)
  let rng = Rng.create 91L in
  List.iter
    (fun bound ->
      for _ = 1 to 100 do
        let v = Bigint.random rng bound in
        checkb "in [0, bound)" true (Bigint.sign v >= 0 && Bigint.compare v bound < 0)
      done)
    [ Bigint.one; bi 7; pow2 26; Bigint.add (pow2 26) Bigint.one; pow2 52; m127;
      Bigint.mul m127 m127 ];
  let seen = Array.make 7 false in
  for _ = 1 to 200 do
    seen.(big_to_int (Bigint.random rng (bi 7))) <- true
  done;
  checkb "every value below 7 drawn" true (Array.for_all Fun.id seen);
  Alcotest.check_raises "zero bound" (Invalid_argument "Bigint.random: bound must be positive")
    (fun () -> ignore (Bigint.random rng Bigint.zero))

let test_bigint_division_by_zero () =
  Alcotest.check_raises "div" Division_by_zero (fun () -> ignore (Bigint.div (bi 5) Bigint.zero));
  Alcotest.check_raises "erem" Division_by_zero (fun () ->
      ignore (Bigint.erem (bi 5) Bigint.zero));
  Alcotest.check_raises "rem_int" (Invalid_argument "Bigint.rem_int: modulus out of range")
    (fun () -> ignore (Bigint.rem_int (bi 5) 0));
  Alcotest.check_raises "mod_pow" (Invalid_argument "Bigint.mod_pow: modulus must be positive")
    (fun () -> ignore (Bigint.mod_pow (bi 5) (bi 2) Bigint.zero))

let test_bigint_mod_pow_fermat_127 () =
  (* Fermat over the 127-bit Mersenne prime, with random bases; the
     composite 2^128 has 3 as a witness. *)
  let rng = Rng.create 55L in
  let e = Bigint.sub m127 Bigint.one in
  for _ = 1 to 20 do
    let a = Bigint.add (Bigint.random rng e) Bigint.one in
    check bigint_testable "a^(m-1) = 1 (mod m)" Bigint.one (Bigint.mod_pow a e m127);
    check bigint_testable "a^m = a (mod m)" a (Bigint.mod_pow a m127 m127)
  done;
  let m128 = pow2 128 in
  checkb "3^(2^128 - 1) <> 1 (mod 2^128)" false
    (big_equal Bigint.one (Bigint.mod_pow (bi 3) (Bigint.sub m128 Bigint.one) m128));
  check bigint_testable "e = 0" Bigint.one (Bigint.mod_pow (bi 12345) Bigint.zero m127);
  check bigint_testable "m = 1" Bigint.zero (Bigint.mod_pow (bi 12345) (bi 7) Bigint.one)

let prop_bigint_compare =
  qtest "compare and sign match int" QCheck.(pair int_small int_small) (fun (a, b) ->
      Int.compare (Bigint.compare (bi a) (bi b)) 0 = Int.compare (Int.compare a b) 0
      && Bigint.sign (bi a) = Int.compare a 0)

(* ------------------------------------------------------------------ *)
(* Rns / Rq                                                            *)
(* ------------------------------------------------------------------ *)

let small_basis = lazy (Rns.standard ~degree:64 ~prime_bits:28 ~levels:4)

(* The exact CRT over Bigint, built from the primes alone: the oracle
   for the native-int decode ({!Rns.centered_mod_rows}) and for the
   residue arithmetic. *)
let crt_modulus b = Array.fold_left (fun acc p -> Bigint.mul acc (bi p)) Bigint.one (Rns.primes b)
let crt_of_bigint b x = Array.map (fun p -> Bigint.rem_int x p) (Rns.primes b)

(* [crt_to_bigint b] reconstructs residue columns into [0, q). *)
let crt_to_bigint b =
  let q = crt_modulus b in
  let factors =
    Array.map
      (fun p ->
        let m = Bigint.div q (bi p) in
        Bigint.mul m (bi (Modarith.inv p (Bigint.rem_int m p))))
      (Rns.primes b)
  in
  fun residues ->
    let acc = ref Bigint.zero in
    Array.iteri (fun i r -> acc := Bigint.add !acc (Bigint.mul_int factors.(i) r)) residues;
    Bigint.erem !acc q

let crt_to_bigint_centered b =
  let q = crt_modulus b in
  let half = Bigint.shift_right q 1 in
  let to_big = crt_to_bigint b in
  fun residues ->
    let v = to_big residues in
    if Bigint.compare v half > 0 then Bigint.sub v q else v

let test_rns_modulus () =
  let b = Lazy.force small_basis in
  checki "modulus bits = bits of the product of primes"
    (Bigint.num_bits (crt_modulus b)) (Rns.modulus_bits b);
  checki "levels" 4 (Rns.level_count b)

let test_rns_roundtrip () =
  let b = Lazy.force small_basis in
  let rng = Rng.create 123L in
  for _ = 1 to 100 do
    let x = Bigint.random rng (crt_modulus b) in
    let r = crt_of_bigint b x in
    check bigint_testable "CRT roundtrip" x (crt_to_bigint b r)
  done

let test_rns_centered () =
  let b = Lazy.force small_basis in
  (* -5 should come back as -5 after centering, and as t - 5 mod t. *)
  let r = Array.map (fun p -> Modarith.reduce p (-5)) (Rns.primes b) in
  check bigint_testable "centered small negative" (bi (-5)) (crt_to_bigint_centered b r);
  let column = Array.map (fun v -> Array.make (Rns.degree b) v) r in
  checki "centered mod t" 252 (Rns.centered_mod_rows b ~modulus:257 column).(0)

let test_rns_homomorphic_add () =
  let b = Lazy.force small_basis in
  let rng = Rng.create 124L in
  let primes = Rns.primes b in
  for _ = 1 to 50 do
    let x = Bigint.random rng (crt_modulus b) and y = Bigint.random rng (crt_modulus b) in
    let rx = crt_of_bigint b x and ry = crt_of_bigint b y in
    let rsum = Array.mapi (fun i v -> Modarith.add primes.(i) v ry.(i)) rx in
    check bigint_testable "residue add = bigint add mod q"
      (Bigint.erem (Bigint.add x y) (crt_modulus b))
      (crt_to_bigint b rsum)
  done

(* Garner's decode against the Bigint oracle on one basis per BGV
   parameter set: the edge values 0, 1, -1 = q - 1, 2, floor(q/2) - 1,
   floor(q/2) and floor(q/2) + 1 (the sign boundary), then uniform
   residues, each reduced mod t = 257, 65537 and 2^30. *)
let test_garner_decode (p : Mycelium_bgv.Params.t) () =
  let module Params = Mycelium_bgv.Params in
  let b = Rns.standard ~degree:p.Params.degree ~prime_bits:p.Params.prime_bits ~levels:p.Params.levels in
  let n = Rns.degree b and primes = Rns.primes b in
  let q = crt_modulus b in
  let half = Bigint.shift_right q 1 in
  let edges =
    [ Bigint.zero; Bigint.one; Bigint.sub q Bigint.one; bi 2; Bigint.sub half Bigint.one;
      half; Bigint.add half Bigint.one ]
  in
  let rng = Rng.create (Int64.of_int (n + Array.length primes)) in
  let rows = Array.map (fun p -> Array.init n (fun _ -> Rng.int rng p)) primes in
  List.iteri
    (fun c x -> Array.iteri (fun i r -> rows.(i).(c) <- r) (crt_of_bigint b x))
    edges;
  let centered = crt_to_bigint_centered b in
  let values = Array.init n (fun c -> centered (Array.map (fun row -> row.(c)) rows)) in
  checkb "floor(q/2) stays positive" true (Bigint.sign values.(5) > 0);
  checkb "floor(q/2) + 1 is negative" true (Bigint.sign values.(6) < 0);
  List.iter
    (fun t ->
      let got = Rns.centered_mod_rows b ~modulus:t rows in
      Array.iteri
        (fun c v ->
          let want = big_to_int (Bigint.erem v (bi t)) in
          if got.(c) <> want then
            Alcotest.failf "N=%d t=%d coefficient %d: Garner %d, Bigint %d" n t c got.(c) want)
        values)
    [ 257; 65537; 1 lsl 30 ]

let test_garner_refuses_wide_modulus () =
  let b = Lazy.force small_basis in
  let rows = Array.map (fun _ -> Array.make (Rns.degree b) 0) (Rns.primes b) in
  Alcotest.check_raises "2^31"
    (Invalid_argument "Rns.centered_mod_rows: modulus must be in [2, 2^31)") (fun () ->
      ignore (Rns.centered_mod_rows b ~modulus:(1 lsl 31) rows))

(* The RNS gadget: digit j recomposes through u_j (residue 1 at limb
   j, 0 elsewhere) and its coefficients are p_j's centered residues. *)
let test_rq_rns_digits () =
  let b = Lazy.force small_basis in
  let primes = Rns.primes b in
  let rng = Rng.create 303L in
  List.iter
    (fun force ->
      let x = Rq.random_uniform b rng in
      force x;
      let repr = Rq.repr_of x in
      let digits = Rq.rns_digits x in
      checkb "input keeps its domain" true (Rq.repr_of x = repr);
      checki "one digit per prime" (Array.length primes) (Array.length digits);
      let recomposed =
        Array.to_list digits
        |> List.mapi (fun j d ->
               Rq.mul_scalar_residues d (Array.mapi (fun i _ -> if i = j then 1 else 0) primes))
        |> List.fold_left Rq.add (Rq.zero b)
      in
      checkb "sum_j digit_j u_j = x" true (Rq.equal recomposed x);
      Array.iteri
        (fun j d ->
          checkb "digit in Eval" true (Rq.repr_of d = Rq.Eval);
          let bound = bi (primes.(j) / 2) in
          Array.iter
            (fun c -> checkb "digit within p_j/2" true (Bigint.compare (big_abs c) bound <= 0))
            (Rq.to_bigint_coeffs d))
        digits)
    [ Rq.force_eval; Rq.force_coeff ]

(* coeff * x^exponent, the exponent reduced negacyclically (x^N = -1). *)
let monomial b ~coeff ~exponent =
  let n = Rns.degree b in
  let e = exponent mod (2 * n) in
  let e, coeff = if e >= n then (e - n, -coeff) else (e, coeff) in
  Rq.of_centered_coeffs b (Array.init (e + 1) (fun i -> if i = e then coeff else 0))

let test_rq_monomial_mul () =
  let b = Lazy.force small_basis in
  (* x^a * x^b = x^(a+b): the core encoding trick of Mycelium (§4.1). *)
  let xa = monomial b ~coeff:1 ~exponent:20 in
  let xb = monomial b ~coeff:1 ~exponent:30 in
  let prod = Rq.mul xa xb in
  checkb "x^20 * x^30 = x^50" true (Rq.equal prod (monomial b ~coeff:1 ~exponent:50))

let test_rq_bin_aggregation () =
  let b = Lazy.force small_basis in
  (* Enc(x^0 + x^1) + Enc(x^0 + x^2) = 2x^0 + x^1 + x^2 as in §4.1. *)
  let s1 = Rq.add (monomial b ~coeff:1 ~exponent:0) (monomial b ~coeff:1 ~exponent:1) in
  let s2 = Rq.add (monomial b ~coeff:1 ~exponent:0) (monomial b ~coeff:1 ~exponent:2) in
  let sum = Rq.add s1 s2 in
  let coeffs = Rq.to_bigint_coeffs sum in
  checki "bin 0 has 2" 2 (big_to_int coeffs.(0));
  checki "bin 1 has 1" 1 (big_to_int coeffs.(1));
  checki "bin 2 has 1" 1 (big_to_int coeffs.(2));
  checki "bin 3 has 0" 0 (big_to_int coeffs.(3))

let test_rq_negacyclic () =
  let b = Lazy.force small_basis in
  let n = Rns.degree b in
  (* Exponent overflow wraps with sign flip: x^(N-1) * x^2 = -x^1. *)
  let prod = Rq.mul (monomial b ~coeff:1 ~exponent:(n - 1)) (monomial b ~coeff:1 ~exponent:2) in
  checkb "wraps negacyclically" true (Rq.equal prod (monomial b ~coeff:(-1) ~exponent:1))

let test_rq_ring_ops () =
  let b = Lazy.force small_basis in
  let rng = Rng.create 300L in
  for _ = 1 to 20 do
    let x = Rq.random_uniform b rng and y = Rq.random_uniform b rng and z = Rq.random_uniform b rng in
    checkb "add commutative" true (Rq.equal (Rq.add x y) (Rq.add y x));
    checkb "mul commutative" true (Rq.equal (Rq.mul x y) (Rq.mul y x));
    checkb "distributive" true
      (Rq.equal (Rq.mul x (Rq.add y z)) (Rq.add (Rq.mul x y) (Rq.mul x z)));
    checkb "sub inverse of add" true (Rq.equal x (Rq.sub (Rq.add x y) y));
    checkb "neg" true (Rq.equal (Rq.zero b) (Rq.add x (Rq.neg x)));
    checkb "one is identity" true (Rq.equal x (Rq.mul x (monomial b ~coeff:1 ~exponent:0)))
  done

let test_rq_scalar () =
  let b = Lazy.force small_basis in
  let x = monomial b ~coeff:1 ~exponent:5 in
  let three_x = Rq.mul_scalar x 3 in
  checkb "scalar mult" true (Rq.equal three_x (monomial b ~coeff:3 ~exponent:5));
  let minus_x = Rq.mul_scalar x (-1) in
  checkb "scalar -1 = neg" true (Rq.equal minus_x (Rq.neg x))

let test_rq_equal_across_representations () =
  let b = Lazy.force small_basis in
  let rng = Rng.create 302L in
  for _ = 1 to 20 do
    (* The same value in both domains: equal must see through the
       representation tag (regression for the polymorphic-= version,
       which compared Eval rows against Coeff rows). *)
    let rows = Rq.residues (Rq.random_uniform b rng) in
    let x = Rq.of_residues b rows in
    let y = Rq.of_residues b rows in
    Rq.force_eval x;
    checkb "repr moved" true (Rq.repr_of x = Rq.Eval && Rq.repr_of y = Rq.Coeff);
    checkb "equal (eval x) (coeff x)" true (Rq.equal x y);
    checkb "equal (coeff x) (eval x)" true (Rq.equal y x);
    let z = Rq.add (Rq.of_residues b rows) (monomial b ~coeff:1 ~exponent:0) in
    checkb "unequal values stay unequal across reprs" false (Rq.equal x z)
  done

let test_rq_sampling_ranges () =
  let b = Lazy.force small_basis in
  let rng = Rng.create 301L in
  let t = Rq.sample_ternary b rng in
  Array.iter
    (fun c ->
      let v = big_to_int c in
      checkb "ternary in {-1,0,1}" true (v >= -1 && v <= 1))
    (Rq.to_bigint_coeffs t);
  let e = Rq.sample_cbd b ~eta:3 rng in
  Array.iter
    (fun c ->
      let v = big_to_int c in
      checkb "cbd in [-eta, eta]" true (v >= -3 && v <= 3))
    (Rq.to_bigint_coeffs e)

let () =
  Alcotest.run "mycelium-math"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniformity" `Slow test_rng_int_uniformity;
          Alcotest.test_case "keyed streams" `Quick test_rng_keyed_streams;
          Alcotest.test_case "fill_int = int" `Quick test_rng_fill_int_matches_int;
          Alcotest.test_case "fill_centered_binomial = bool" `Quick
            test_rng_fill_centered_binomial_matches_bool;
          Alcotest.test_case "empty fill draws nothing" `Quick test_rng_empty_fill;
          Alcotest.test_case "sampling without replacement" `Quick test_rng_sample_without_replacement;
          Alcotest.test_case "laplace moments" `Slow test_rng_laplace_moments;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "geometric mean" `Slow test_rng_geometric;
          Alcotest.test_case "bernoulli" `Slow test_rng_bernoulli;
        ] );
      ( "hex-stats",
        [
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "hex known vectors" `Quick test_hex_known;
          Alcotest.test_case "hex invalid input" `Quick test_hex_invalid;
          Alcotest.test_case "stats basic" `Quick test_stats_basic;
        ] );
      ( "modarith",
        [
          Alcotest.test_case "basic ops" `Quick test_modarith_basic;
          Alcotest.test_case "fermat little theorem" `Quick test_modarith_fermat;
          Alcotest.test_case "inverse" `Quick test_modarith_inv;
          Alcotest.test_case "primality" `Quick test_modarith_is_prime;
          Alcotest.test_case "primitive roots" `Quick test_modarith_primitive_root;
          Alcotest.test_case "roots of unity" `Quick test_modarith_root_of_unity;
        ] );
      ( "ntt",
        [
          Alcotest.test_case "find NTT primes" `Quick test_ntt_find_primes;
          Alcotest.test_case "roundtrip" `Quick test_ntt_roundtrip;
          Alcotest.test_case "seeded roundtrip, all degrees" `Quick
            test_ntt_seeded_roundtrip_all_degrees;
          Alcotest.test_case "matches naive convolution" `Quick test_ntt_vs_naive;
          Alcotest.test_case "negacyclic wraparound" `Quick test_ntt_negacyclic_wraparound;
          Alcotest.test_case "monomial exponent addition" `Quick test_ntt_monomial_exponent_addition;
          Alcotest.test_case "linearity" `Quick test_ntt_linearity;
        ] );
      ( "bigint",
        [
          Alcotest.test_case "of/to int" `Quick test_bigint_of_to_int;
          Alcotest.test_case "string roundtrip" `Quick test_bigint_string_roundtrip;
          Alcotest.test_case "arith known values" `Quick test_bigint_arith_known;
          Alcotest.test_case "divmod known values" `Quick test_bigint_divmod_known;
          prop_bigint_matches_int;
          prop_bigint_divmod_int;
          prop_bigint_divmod_invariant;
          prop_bigint_ring_axioms;
          prop_bigint_shift;
          prop_bigint_bytes_roundtrip;
          prop_bigint_rem_int;
          Alcotest.test_case "seeded divmod/mul identities" `Quick
            test_bigint_seeded_divmod_mul_identities;
          Alcotest.test_case "mod_pow" `Quick test_bigint_mod_pow;
          Alcotest.test_case "num_bits" `Quick test_bigint_num_bits;
          Alcotest.test_case "of_hex known values" `Quick test_bigint_of_hex_known;
          Alcotest.test_case "bytes_be known values" `Quick test_bigint_bytes_be_known;
          Alcotest.test_case "random stays below its bound" `Quick test_bigint_random_bounds;
          Alcotest.test_case "division by zero refused" `Quick test_bigint_division_by_zero;
          Alcotest.test_case "mod_pow: Fermat on 2^127-1" `Quick test_bigint_mod_pow_fermat_127;
          prop_bigint_compare;
        ] );
      ( "rns-rq",
        [
          Alcotest.test_case "modulus product" `Quick test_rns_modulus;
          Alcotest.test_case "CRT roundtrip" `Quick test_rns_roundtrip;
          Alcotest.test_case "centered reconstruction" `Quick test_rns_centered;
          Alcotest.test_case "homomorphic add" `Quick test_rns_homomorphic_add;
          Alcotest.test_case "Garner decode, test_small" `Quick
            (test_garner_decode Mycelium_bgv.Params.test_small);
          Alcotest.test_case "Garner decode, test_medium" `Quick
            (test_garner_decode Mycelium_bgv.Params.test_medium);
          Alcotest.test_case "Garner decode, test_wide" `Quick
            (test_garner_decode Testkit.test_wide);
          Alcotest.test_case "Garner decode, paper" `Slow
            (test_garner_decode Mycelium_bgv.Params.paper);
          Alcotest.test_case "Garner decode refuses t >= 2^31" `Quick
            test_garner_refuses_wide_modulus;
          Alcotest.test_case "RNS digits recompose" `Quick test_rq_rns_digits;
          Alcotest.test_case "monomial multiplication" `Quick test_rq_monomial_mul;
          Alcotest.test_case "bin aggregation (§4.1)" `Quick test_rq_bin_aggregation;
          Alcotest.test_case "negacyclic exponent wrap" `Quick test_rq_negacyclic;
          Alcotest.test_case "ring axioms" `Quick test_rq_ring_ops;
          Alcotest.test_case "scalar multiplication" `Quick test_rq_scalar;
          Alcotest.test_case "equal across representations" `Quick
            test_rq_equal_across_representations;
          Alcotest.test_case "sampler ranges" `Quick test_rq_sampling_ranges;
        ] );
    ]
