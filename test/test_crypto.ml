(* Tests for mycelium_crypto: SHA-256/HMAC against FIPS/RFC
   vectors, ChaCha20/Poly1305/AEAD against RFC 8439 vectors, Merkle
   trees, and the ElGamal PEnc. *)

module Rng = Mycelium_util.Rng
module Hex = Testkit.Hex
module Sha256 = Mycelium_crypto.Sha256
module Chacha20 = Mycelium_crypto.Chacha20
module Poly1305 = Mycelium_crypto.Poly1305
module Aead = Mycelium_crypto.Aead
module Merkle = Mycelium_crypto.Merkle
module Elgamal = Mycelium_crypto.Elgamal
module Pool = Mycelium_parallel.Pool
module Rns = Mycelium_math.Rns
module Rq = Mycelium_math.Rq

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_hex name expected b = Alcotest.(check string) name expected (Hex.encode b)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* SHA-256                                                             *)
(* ------------------------------------------------------------------ *)

let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_string "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_string "abc");
  check_hex "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_string (String.make 1_000_000 'a'))

let test_sha256_incremental () =
  (* Chunked update must agree with one-shot for many split points. *)
  let data = Bytes.of_string (String.init 1000 (fun i -> Char.chr (i mod 256))) in
  let oneshot = Sha256.digest data in
  List.iter
    (fun split ->
      let ctx = Sha256.init () in
      Sha256.update ctx (Bytes.sub data 0 split);
      Sha256.update ctx (Bytes.sub data split (1000 - split));
      checkb (Printf.sprintf "split at %d" split) true (Bytes.equal oneshot (Sha256.finalize ctx)))
    [ 0; 1; 63; 64; 65; 127; 128; 500; 999; 1000 ]

let test_sha256_double_finalize () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "second finalize rejected"
    (Invalid_argument "Sha256.finalize: context already finalized") (fun () ->
      ignore (Sha256.finalize ctx))

let test_sha256_update_sub () =
  (* Hash a sub-range in place, at unaligned offsets and across the
     context's 64-byte block buffer. *)
  let data = Bytes.init 300 (fun i -> Char.chr ((i * 37) land 0xFF)) in
  for pos = 1 to 7 do
    List.iter
      (fun len ->
        let ctx = Sha256.init () in
        Sha256.update_sub ctx data ~pos ~len;
        checkb
          (Printf.sprintf "pos %d len %d" pos len)
          true
          (Bytes.equal (Sha256.finalize ctx) (Sha256.digest (Bytes.sub data pos len))))
      [ 0; 1; 55; 56; 63; 64; 65; 128; 200 ]
  done;
  (* A 40-byte prefix leaves the buffer part full, so each sub-range
     first tops it up, then runs whole blocks from the source. *)
  List.iter
    (fun (pos, len) ->
      let ctx = Sha256.init () in
      Sha256.update_sub ctx data ~pos:0 ~len:40;
      Sha256.update_sub ctx data ~pos ~len;
      checkb
        (Printf.sprintf "after 40: pos %d len %d" pos len)
        true
        (Bytes.equal (Sha256.finalize ctx)
           (Sha256.digest (Bytes.cat (Bytes.sub data 0 40) (Bytes.sub data pos len)))))
    [ (3, 23); (3, 24); (5, 25); (1, 88); (7, 150); (2, 250) ];
  Alcotest.check_raises "range past the end"
    (Invalid_argument "Sha256.update_sub: range out of bounds") (fun () ->
      Sha256.update_sub (Sha256.init ()) data ~pos:299 ~len:2)

let test_hmac_rfc4231 () =
  check_hex "case 1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Sha256.hmac ~key:(Bytes.make 20 '\x0b') (Bytes.of_string "Hi There"));
  check_hex "case 2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.hmac ~key:(Bytes.of_string "Jefe") (Bytes.of_string "what do ya want for nothing?"));
  (* Case 6: key longer than a block gets hashed first. *)
  check_hex "case 6 (long key)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Sha256.hmac ~key:(Bytes.make 131 '\xaa')
       (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First"))

(* ------------------------------------------------------------------ *)
(* ChaCha20 / Poly1305 / AEAD                                          *)
(* ------------------------------------------------------------------ *)

let rfc_key = Hex.decode "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

let test_chacha20_block_vector () =
  (* RFC 8439 §2.3.2 *)
  let nonce = Hex.decode "000000090000004a00000000" in
  check_hex "keystream block"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (Chacha20.block ~key:rfc_key ~nonce ~counter:1)

let test_chacha20_encrypt_vector () =
  (* RFC 8439 §2.4.2 *)
  let nonce = Hex.decode "000000000000004a00000000" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  check_hex "ciphertext"
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0bf91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d807ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab77937365af90bbf74a35be6b40b8eedf2785e42874d"
    (Chacha20.encrypt ~key:rfc_key ~nonce ~counter:1 (Bytes.of_string plaintext))

let test_chacha20_roundtrip () =
  let rng = Rng.create 2L in
  let key = Rng.bytes rng 32 and nonce = Rng.bytes rng 12 in
  for _ = 1 to 20 do
    let msg = Rng.bytes rng (Rng.int rng 500) in
    let ct = Chacha20.encrypt ~key ~nonce msg in
    checkb "decrypt inverts" true (Bytes.equal msg (Chacha20.encrypt ~key ~nonce ct))
  done

let test_poly1305_vector () =
  (* RFC 8439 §2.5.2 *)
  let key = Hex.decode "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b" in
  check_hex "tag" "a8061dc1305136c6c22b8baf0c0127a9"
    (Poly1305.mac ~key (Bytes.of_string "Cryptographic Forum Research Group"))

let test_aead_rfc8439 () =
  (* RFC 8439 §2.8.2 *)
  let key = Hex.decode "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f" in
  let nonce = Hex.decode "070000004041424344454647" in
  let aad = Hex.decode "50515253c0c1c2c3c4c5c6c7" in
  let plaintext =
    Bytes.of_string
      "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  let sealed = Aead.seal_nonce ~key ~nonce ~aad plaintext in
  let n = Bytes.length sealed in
  check_hex "tag" "1ae10b594f09e26a7e902ecbd0600691" (Bytes.sub sealed (n - 16) 16);
  check_hex "ciphertext prefix" "d31a8d34648e60db7b86afbc53ef7ec2"
    (Bytes.sub sealed 0 16);
  match Aead.open_nonce ~key ~nonce ~aad sealed with
  | Some pt -> checkb "roundtrip" true (Bytes.equal pt plaintext)
  | None -> Alcotest.fail "AEAD open failed"

let test_aead_tamper_detection () =
  let rng = Rng.create 3L in
  let key = Rng.bytes rng 32 in
  let msg = Bytes.of_string "are you ill?" in
  let sealed = Aead.seal ~key ~round:7 msg in
  (match Aead.open_ ~key ~round:7 sealed with
  | Some pt -> checkb "roundtrip" true (Bytes.equal pt msg)
  | None -> Alcotest.fail "open failed");
  (* Any bit flip must be rejected (existential unforgeability in the
     §3.5 dummy-attack discussion relies on this). *)
  for i = 0 to Bytes.length sealed - 1 do
    let bad = Bytes.copy sealed in
    Bytes.set_uint8 bad i (Bytes.get_uint8 bad i lxor 0x40);
    checkb "tampered rejected" true (Aead.open_ ~key ~round:7 bad = None)
  done;
  (* Wrong round = wrong nonce = rejection. *)
  checkb "wrong round rejected" true (Aead.open_ ~key ~round:8 sealed = None)

let prop_aead_roundtrip =
  qtest "aead seal/open roundtrip" QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 300)) small_nat)
    (fun (msg, round) ->
      let key = Sha256.digest_string "fixed test key" in
      let sealed = Aead.seal ~key ~round (Bytes.of_string msg) in
      match Aead.open_ ~key ~round sealed with
      | Some pt -> Bytes.to_string pt = msg
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Differential oracles                                                *)
(* ------------------------------------------------------------------ *)

(* Reference kernels written straight from RFC 8439: Poly1305 over
   arbitrary-precision integers (§2.5), ChaCha20 one byte at a time
   with a fresh state per block, and the AEAD assembling mac_data as
   one string (§2.8). The word kernels in lib/crypto must match them
   byte for byte. *)
module Oracle = struct
  module Bigint = Mycelium_math.Bigint

  (* 2^k as the big-endian bytes 2^(k mod 8), 0, ..., 0. *)
  let pow2 k =
    Bigint.of_bytes_be
      (Bytes.init ((k / 8) + 1) (fun i -> if i = 0 then Char.chr (1 lsl (k mod 8)) else '\x00'))

  let p = Bigint.sub (pow2 130) (Bigint.of_int 5)
  let two_128 = pow2 128

  let le_number b off len =
    Bigint.of_bytes_be (Bytes.init len (fun i -> Bytes.get b (off + len - 1 - i)))

  (* A number below 2^128 as 16 little-endian bytes. *)
  let to_le16 n =
    let be = Bigint.to_bytes_be n in
    let nb = Bytes.length be in
    Bytes.init 16 (fun i -> if i < nb then Bytes.get be (nb - 1 - i) else '\x00')

  let clamp_r key =
    let r = Bytes.sub key 0 16 in
    List.iter (fun i -> Bytes.set_uint8 r i (Bytes.get_uint8 r i land 15)) [ 3; 7; 11; 15 ];
    List.iter (fun i -> Bytes.set_uint8 r i (Bytes.get_uint8 r i land 252)) [ 4; 8; 12 ];
    r

  let poly1305 ~key msg =
    let r = le_number (clamp_r key) 0 16 and s = le_number key 16 16 in
    let len = Bytes.length msg in
    let acc = ref Bigint.zero and off = ref 0 in
    while !off < len do
      let chunk = min 16 (len - !off) in
      (* The block with the 2^(8·chunk) bit appended. *)
      let n = Bigint.add (le_number msg !off chunk) (pow2 (8 * chunk)) in
      acc := Bigint.erem (Bigint.mul (Bigint.add !acc n) r) p;
      off := !off + 16
    done;
    to_le16 (Bigint.erem (Bigint.add !acc s) two_128)

  let mask = 0xFFFFFFFF
  let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

  let quarter_round st a b c d =
    st.(a) <- (st.(a) + st.(b)) land mask;
    st.(d) <- rotl (st.(d) lxor st.(a)) 16;
    st.(c) <- (st.(c) + st.(d)) land mask;
    st.(b) <- rotl (st.(b) lxor st.(c)) 12;
    st.(a) <- (st.(a) + st.(b)) land mask;
    st.(d) <- rotl (st.(d) lxor st.(a)) 8;
    st.(c) <- (st.(c) + st.(d)) land mask;
    st.(b) <- rotl (st.(b) lxor st.(c)) 7

  let le32 b off =
    Bytes.get_uint8 b off
    lor (Bytes.get_uint8 b (off + 1) lsl 8)
    lor (Bytes.get_uint8 b (off + 2) lsl 16)
    lor (Bytes.get_uint8 b (off + 3) lsl 24)

  let chacha20_block ~key ~nonce ~counter =
    let st = Array.make 16 0 in
    (* "expand 32-byte k" *)
    st.(0) <- 0x61707865;
    st.(1) <- 0x3320646e;
    st.(2) <- 0x79622d32;
    st.(3) <- 0x6b206574;
    for i = 0 to 7 do
      st.(4 + i) <- le32 key (4 * i)
    done;
    st.(12) <- counter land mask;
    for i = 0 to 2 do
      st.(13 + i) <- le32 nonce (4 * i)
    done;
    let work = Array.copy st in
    for _ = 1 to 10 do
      quarter_round work 0 4 8 12;
      quarter_round work 1 5 9 13;
      quarter_round work 2 6 10 14;
      quarter_round work 3 7 11 15;
      quarter_round work 0 5 10 15;
      quarter_round work 1 6 11 12;
      quarter_round work 2 7 8 13;
      quarter_round work 3 4 9 14
    done;
    let out = Bytes.create 64 in
    for i = 0 to 15 do
      let v = (work.(i) + st.(i)) land mask in
      for j = 0 to 3 do
        Bytes.set_uint8 out ((4 * i) + j) ((v lsr (8 * j)) land 0xFF)
      done
    done;
    out

  let chacha20 ~key ~nonce ~counter data =
    let len = Bytes.length data in
    let out = Bytes.create len in
    for b = 0 to ((len + 63) / 64) - 1 do
      let ks = chacha20_block ~key ~nonce ~counter:(counter + b) in
      for i = 0 to min 64 (len - (b * 64)) - 1 do
        let j = (b * 64) + i in
        Bytes.set_uint8 out j (Bytes.get_uint8 data j lxor Bytes.get_uint8 ks i)
      done
    done;
    out

  let aead_seal ~key ~nonce ~aad msg =
    let ct = chacha20 ~key ~nonce ~counter:1 msg in
    let otk = Bytes.sub (chacha20_block ~key ~nonce ~counter:0) 0 32 in
    let pad n = Bytes.make ((16 - (n mod 16)) mod 16) '\x00' in
    let le64 n =
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.of_int n);
      b
    in
    let mac_data =
      Bytes.concat Bytes.empty
        [ aad; pad (Bytes.length aad); ct; pad (Bytes.length ct); le64 (Bytes.length aad);
          le64 (Bytes.length ct) ]
    in
    Bytes.cat ct (poly1305 ~key:otk mac_data)
end

(* SHA-256 as lib/crypto computed it before its rounds dropped the
   per-rotation masks: the compression function with byte-wise loads
   and every rotation masked, over a message padded in one piece
   (FIPS 180-4 §5.1.1).  The round constants and the initial state are
   derived from their definition, the first 32 bits of the fractional
   parts of the cube and square roots of the first primes. *)
module Sha_oracle = struct
  let mask = 0xFFFFFFFF

  let primes n =
    let rec go acc c =
      if List.length acc = n then List.rev acc
      else if List.for_all (fun q -> c mod q <> 0) acc then go (c :: acc) (c + 1)
      else go acc (c + 1)
    in
    Array.of_list (go [] 2)

  let frac32 x = int_of_float (Float.ldexp (x -. Float.trunc x) 32)
  let k = Array.map (fun p -> frac32 (Float.cbrt (float_of_int p))) (primes 64)
  let h0 = Array.map (fun p -> frac32 (sqrt (float_of_int p))) (primes 8)

  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

  let compress h w block off =
    for i = 0 to 15 do
      let j = off + (4 * i) in
      w.(i) <-
        (Bytes.get_uint8 block j lsl 24)
        lor (Bytes.get_uint8 block (j + 1) lsl 16)
        lor (Bytes.get_uint8 block (j + 2) lsl 8)
        lor Bytes.get_uint8 block (j + 3)
    done;
    for i = 16 to 63 do
      let s0 = rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
      let s1 = rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g) in
      let temp1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      let temp2 = (s0 + maj) land mask in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + temp1) land mask;
      d := !c;
      c := !b;
      b := !a;
      a := (temp1 + temp2) land mask
    done;
    List.iteri
      (fun i v -> h.(i) <- (h.(i) + v) land mask)
      [ !a; !b; !c; !d; !e; !f; !g; !hh ]

  let digest msg =
    let len = Bytes.length msg in
    let padded = (len + 9 + 63) / 64 * 64 in
    let m = Bytes.make padded '\x00' in
    Bytes.blit msg 0 m 0 len;
    Bytes.set_uint8 m len 0x80;
    Bytes.set_int64_be m (padded - 8) (Int64.of_int (8 * len));
    let h = Array.copy h0 and w = Array.make 64 0 in
    for block = 0 to (padded / 64) - 1 do
      compress h w m (64 * block)
    done;
    Bytes.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xFF))
end

let check_bytes name expected actual = check_hex name (Hex.encode expected) actual

let test_sha256_differential () =
  let rng = Rng.create 19L in
  let against msg =
    check_bytes
      (Printf.sprintf "%d bytes" (Bytes.length msg))
      (Sha_oracle.digest msg) (Sha256.digest msg)
  in
  for len = 0 to 300 do
    against (Rng.bytes rng len)
  done;
  for _ = 1 to 24 do
    against (Rng.bytes rng (Rng.int rng 200_001))
  done;
  (* All-ones words keep every sum near its 32-bit ceiling. *)
  List.iter (fun len -> against (Bytes.make len '\xff')) [ 55; 56; 63; 64; 65; 1000; 4096 ]

(* Streaming through update_sub in fixed-size pieces, from an offset
   into the source buffer, lands on the oracle's one-shot digest. *)
let test_sha256_update_sub_chunks () =
  let rng = Rng.create 20L in
  let data = Rng.bytes rng 10_007 in
  List.iter
    (fun chunk ->
      List.iter
        (fun start ->
          let ctx = Sha256.init () in
          let pos = ref start in
          while !pos < Bytes.length data do
            let len = min chunk (Bytes.length data - !pos) in
            Sha256.update_sub ctx data ~pos:!pos ~len;
            pos := !pos + len
          done;
          let expected = Sha_oracle.digest (Bytes.sub data start (Bytes.length data - start)) in
          check_bytes
            (Printf.sprintf "chunks of %d from %d" chunk start)
            expected (Sha256.finalize ctx))
        [ 0; 3 ])
    [ 1; 63; 64; 65; 4096 ]

let test_poly1305_differential () =
  let rng = Rng.create 18L in
  let against ~key msg =
    check_bytes
      (Printf.sprintf "%d bytes" (Bytes.length msg))
      (Oracle.poly1305 ~key msg) (Poly1305.mac ~key msg)
  in
  for len = 0 to 64 do
    against ~key:(Rng.bytes rng 32) (Rng.bytes rng len)
  done;
  for _ = 1 to 60 do
    against ~key:(Rng.bytes rng 32) (Rng.bytes rng (Rng.int rng 20_001))
  done;
  (* All-0xFF blocks drive h toward p, into the final subtraction. *)
  let ff n = Bytes.make n '\xff' in
  List.iter
    (fun len ->
      against ~key:(ff 32) (ff len);
      against ~key:(Rng.bytes rng 32) (ff len))
    [ 0; 1; 15; 16; 17; 31; 32; 33; 64; 1000; 8448 ];
  (* r all 0xFF before clamping: every limb at its clamp mask. *)
  let r_ff = Bytes.cat (ff 16) (Rng.bytes rng 16) in
  List.iter (fun len -> against ~key:r_ff (Rng.bytes rng len)) [ 1; 16; 100; 4096 ];
  (* s = 2^128 - 1: the final addition carries out of 128 bits. *)
  let s_ff = Bytes.cat (Rng.bytes rng 16) (ff 16) in
  List.iter (fun len -> against ~key:s_ff (Rng.bytes rng len)) [ 0; 1; 16; 100; 4096 ];
  Alcotest.check_raises "31-byte key" (Invalid_argument "Poly1305.mac: bad key size")
    (fun () -> ignore (Poly1305.mac ~key:(Bytes.create 31) (Bytes.create 16)))

(* Messages whose accumulator ends at t (mod p) for t = 0..5: the limbs
   then hold p + t, and only the final subtraction of p makes the tag
   (t + s) mod 2^128. Random and all-0xFF inputs reach that range with
   negligible probability. Two blocks suffice: pick c1 at random and
   solve c2 = t·r^-1 - c1·r (mod p), a valid block when it lies in
   [2^128, 2^129). *)
let test_poly1305_final_subtraction () =
  let open Oracle in
  let rng = Rng.create 23L in
  let found = ref 0 in
  while !found < 18 do
    let t = !found mod 6 in
    let key = Rng.bytes rng 32 and m1 = Rng.bytes rng 16 in
    let r = le_number (clamp_r key) 0 16 in
    let c1 = Bigint.add (le_number m1 0 16) two_128 in
    let c2 =
      (* r^-1 = r^(p-2) mod p: p is prime. *)
      let r_inv = Bigint.mod_pow r (Bigint.sub p (Bigint.of_int 2)) p in
      Bigint.erem (Bigint.sub (Bigint.mul_int r_inv t) (Bigint.mul c1 r)) p
    in
    let m2 = Bigint.sub c2 two_128 in
    if Bigint.sign m2 >= 0 && Bigint.compare m2 two_128 < 0 then begin
      incr found;
      let msg = Bytes.cat m1 (to_le16 m2) in
      let expected = to_le16 (Bigint.erem (Bigint.add (le_number key 16 16) (Bigint.of_int t)) two_128) in
      check_bytes "oracle" expected (poly1305 ~key msg);
      check_bytes (Printf.sprintf "h = %d mod p" t) expected (Poly1305.mac ~key msg)
    end
  done

let test_poly1305_mac_padded () =
  let rng = Rng.create 19L in
  for _ = 1 to 40 do
    let key = Rng.bytes rng 32 in
    let segments =
      List.init (Rng.int rng 4) (fun _ ->
          let len = Rng.int rng 70 and pos = Rng.int rng 9 in
          (Rng.bytes rng (pos + len + Rng.int rng 5), pos, len))
    in
    let padded =
      Bytes.concat Bytes.empty
        (List.map
           (fun (b, pos, len) ->
             Bytes.cat (Bytes.sub b pos len) (Bytes.make ((16 - (len mod 16)) mod 16) '\x00'))
           segments)
    in
    check_bytes "segments" (Oracle.poly1305 ~key padded) (Poly1305.mac_padded ~key segments)
  done;
  Alcotest.check_raises "31-byte key" (Invalid_argument "Poly1305.mac_padded: bad key size")
    (fun () -> ignore (Poly1305.mac_padded ~key:(Bytes.create 31) []));
  Alcotest.check_raises "range past the end"
    (Invalid_argument "Poly1305.mac_padded: range out of bounds") (fun () ->
      ignore (Poly1305.mac_padded ~key:(Bytes.create 32) [ (Bytes.create 10, 4, 7) ]))

let test_chacha20_differential () =
  let rng = Rng.create 20L in
  let nonce = Rng.bytes rng 12 in
  let case ?(counter = 1) ~src_pos ~dst_pos len =
    let key = Rng.bytes rng 32 in
    let src = Rng.bytes rng (src_pos + len + 3) in
    let dst = Rng.bytes rng (dst_pos + len + 3) in
    let before = Bytes.copy dst in
    Chacha20.xor_into ~key ~nonce ~counter ~src ~src_pos ~dst ~dst_pos len;
    let name = Printf.sprintf "len %d src %d dst %d counter %#x" len src_pos dst_pos counter in
    check_bytes name
      (Oracle.chacha20 ~key ~nonce ~counter (Bytes.sub src src_pos len))
      (Bytes.sub dst dst_pos len);
    checkb (name ^ ": rest of dst untouched") true
      (Bytes.equal (Bytes.sub dst 0 dst_pos) (Bytes.sub before 0 dst_pos)
      && Bytes.equal (Bytes.sub dst (dst_pos + len) 3) (Bytes.sub before (dst_pos + len) 3))
  in
  (* Partial last blocks, and offsets that are not multiples of 8. *)
  List.iter
    (fun len -> case ~src_pos:0 ~dst_pos:0 len)
    [ 0; 1; 7; 8; 63; 64; 65; 127; 128; 129; 1000; 8448 ];
  List.iter
    (fun (s, d) -> case ~src_pos:s ~dst_pos:d 200)
    [ (1, 0); (0, 3); (5, 5); (7, 1); (3, 11) ];
  (* The counter wraps at 2^32 inside a call. *)
  case ~counter:0xFFFFFFFF ~src_pos:2 ~dst_pos:6 200;
  case ~counter:0xFFFFFFFE ~src_pos:0 ~dst_pos:0 129;
  (* In place: one buffer, one offset. *)
  List.iter
    (fun (pos, len) ->
      let key = Rng.bytes rng 32 in
      let buf = Rng.bytes rng (pos + len) in
      let expected = Oracle.chacha20 ~key ~nonce ~counter:1 (Bytes.sub buf pos len) in
      Chacha20.xor_into ~key ~nonce ~src:buf ~src_pos:pos ~dst:buf ~dst_pos:pos len;
      check_bytes (Printf.sprintf "in place, len %d at %d" len pos) expected (Bytes.sub buf pos len))
    [ (0, 64); (3, 100); (5, 8448) ];
  for _ = 1 to 40 do
    let key = Rng.bytes rng 32 and counter = Rng.int rng (1 lsl 32) in
    let msg = Rng.bytes rng (Rng.int rng 3000) in
    check_bytes "encrypt" (Oracle.chacha20 ~key ~nonce ~counter msg)
      (Chacha20.encrypt ~key ~nonce ~counter msg);
    check_bytes "block" (Oracle.chacha20_block ~key ~nonce ~counter)
      (Chacha20.block ~key ~nonce ~counter)
  done

let test_chacha20_bounds () =
  let key = Bytes.create 32 and nonce = Bytes.create 12 in
  let b = Bytes.create 16 in
  let out_of_range (src_pos, dst_pos, len) =
    Alcotest.check_raises
      (Printf.sprintf "src %d dst %d len %d" src_pos dst_pos len)
      (Invalid_argument "Chacha20.xor_into: range out of bounds") (fun () ->
        Chacha20.xor_into ~key ~nonce ~src:b ~src_pos ~dst:b ~dst_pos len)
  in
  List.iter out_of_range [ (-1, 0, 4); (0, -1, 4); (0, 0, -1); (13, 0, 4); (0, 13, 4); (0, 0, 17) ];
  Alcotest.check_raises "bad key" (Invalid_argument "Chacha20: bad key size") (fun () ->
      ignore (Chacha20.encrypt ~key:(Bytes.create 31) ~nonce b));
  Alcotest.check_raises "bad nonce" (Invalid_argument "Chacha20: bad nonce size") (fun () ->
      ignore (Chacha20.encrypt ~key ~nonce:(Bytes.create 8) b))

let test_aead_differential () =
  let rng = Rng.create 21L in
  List.iter
    (fun aad_len ->
      List.iter
        (fun len ->
          let key = Rng.bytes rng 32 and nonce = Rng.bytes rng 12 in
          let aad = Rng.bytes rng aad_len and msg = Rng.bytes rng len in
          let sealed = Aead.seal_nonce ~key ~nonce ~aad msg in
          check_bytes
            (Printf.sprintf "aad %d, msg %d" aad_len len)
            (Oracle.aead_seal ~key ~nonce ~aad msg) sealed;
          match Aead.open_nonce ~key ~nonce ~aad sealed with
          | Some pt -> checkb "opens" true (Bytes.equal pt msg)
          | None -> Alcotest.fail "AEAD open failed")
        [ 0; 1; 15; 16; 17; 64; 100; 1000 ])
    [ 0; 1; 13; 16 ];
  checkb "shorter than a tag" true
    (Aead.open_nonce ~key:(Bytes.create 32) ~nonce:(Bytes.create 12) (Bytes.create 15) = None)

(* The serve-mixnet slot: an 8448-byte sealed body under a 13-byte AAD. *)
let test_aead_slot_size () =
  let rng = Rng.create 22L in
  let key = Rng.bytes rng 32 and aad = Rng.bytes rng 13 in
  let msg = Rng.bytes rng (8448 - Aead.overhead) in
  let sealed = Aead.seal ~key ~round:11 ~aad msg in
  checki "slot size" 8448 (Bytes.length sealed);
  (match Aead.open_ ~key ~round:11 ~aad sealed with
  | Some pt -> checkb "roundtrip" true (Bytes.equal pt msg)
  | None -> Alcotest.fail "open failed");
  List.iter
    (fun (what, i) ->
      let bad = Bytes.copy sealed in
      Bytes.set_uint8 bad i (Bytes.get_uint8 bad i lxor 0x01);
      checkb what true (Aead.open_ ~key ~round:11 ~aad bad = None))
    [ ("first ciphertext byte", 0); ("last ciphertext byte", 8448 - Aead.overhead - 1);
      ("tag", 8448 - 1) ]

(* ------------------------------------------------------------------ *)
(* Merkle                                                              *)
(* ------------------------------------------------------------------ *)

let leaves_of_n n = Array.init n (fun i -> Bytes.of_string (Printf.sprintf "leaf-%d" i))

let test_merkle_all_proofs_verify () =
  List.iter
    (fun n ->
      let leaves = leaves_of_n n in
      let t = Merkle.build leaves in
      checki "leaf count" n (Merkle.prove t 0).Merkle.leaf_count;
      for i = 0 to n - 1 do
        let proof = Merkle.prove t i in
        checkb
          (Printf.sprintf "n=%d i=%d" n i)
          true
          (Merkle.verify ~root:(Merkle.root t) ~leaf:leaves.(i) proof)
      done)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16; 33; 100 ]

let test_merkle_wrong_leaf_rejected () =
  let leaves = leaves_of_n 10 in
  let t = Merkle.build leaves in
  let proof = Merkle.prove t 3 in
  checkb "wrong leaf" false
    (Merkle.verify ~root:(Merkle.root t) ~leaf:(Bytes.of_string "forged") proof);
  (* A proof for index 3 must not verify for leaf 4's content. *)
  checkb "leaf/index mismatch" false
    (Merkle.verify ~root:(Merkle.root t) ~leaf:leaves.(4) proof)

let test_merkle_wrong_index_rejected () =
  (* The positional check: same sibling hashes, different claimed index.
     This is what lets devices audit M1 lookups (§3.3). *)
  let leaves = leaves_of_n 8 in
  let t = Merkle.build leaves in
  let proof = Merkle.prove t 3 in
  let forged = { proof with Merkle.index = 5 } in
  checkb "index tamper" false (Merkle.verify ~root:(Merkle.root t) ~leaf:leaves.(3) forged)

let test_merkle_tampered_sibling_rejected () =
  let leaves = leaves_of_n 16 in
  let t = Merkle.build leaves in
  let proof = Merkle.prove t 7 in
  let forged =
    { proof with Merkle.siblings = List.map (fun _ -> Merkle.empty_hash) proof.Merkle.siblings }
  in
  checkb "sibling tamper" false (Merkle.verify ~root:(Merkle.root t) ~leaf:leaves.(7) forged)

let test_merkle_huge_leaf_count_rejected () =
  (* A forged leaf_count above 2^61 is rejected, and in bounded time:
     doubling a power of two up to it would overflow. *)
  let leaves = leaves_of_n 4 in
  let t = Merkle.build leaves in
  List.iter
    (fun leaf_count ->
      let forged = { (Merkle.prove t 0) with Merkle.leaf_count } in
      checkb (Printf.sprintf "leaf_count %d" leaf_count) false
        (Merkle.verify ~root:(Merkle.root t) ~leaf:leaves.(0) forged))
    [ (1 lsl 61) + 1; max_int ]

let test_merkle_root_depends_on_all_leaves () =
  let leaves = leaves_of_n 20 in
  let r1 = Merkle.root (Merkle.build leaves) in
  leaves.(19) <- Bytes.of_string "changed";
  let r2 = Merkle.root (Merkle.build leaves) in
  checkb "root changed" false (Bytes.equal r1 r2)

let test_merkle_depth () =
  (* A proof carries one sibling per level. *)
  let depth n = List.length (Merkle.prove (Merkle.build (leaves_of_n n)) 0).Merkle.siblings in
  checki "1 leaf" 0 (depth 1);
  checki "2 leaves" 1 (depth 2);
  checki "5 leaves" 3 (depth 5);
  checki "8 leaves" 3 (depth 8)

let prop_merkle_random =
  qtest "random trees verify" QCheck.(int_range 1 64) (fun n ->
      let rng = Rng.create (Int64.of_int (n * 7919)) in
      let leaves = Array.init n (fun _ -> Rng.bytes rng 24) in
      let t = Merkle.build leaves in
      let i = Rng.int rng n in
      Merkle.verify ~root:(Merkle.root t) ~leaf:leaves.(i) (Merkle.prove t i))

(* ------------------------------------------------------------------ *)
(* ElGamal: the simulation's PEnc                                      *)
(* ------------------------------------------------------------------ *)

(* Mixnet path setup seals each hop's fresh link key to that hop's
   public key, and the verifiable map checks pseudonyms h = H(pk)
   (§3.1) against the published key bytes: these cells pin what the
   mix network relies on. *)

let shared_keypair = lazy (Elgamal.generate (Rng.create 1234L))

let test_elgamal_roundtrip () =
  let pk, sk = Lazy.force shared_keypair in
  let rng = Rng.create 9L in
  List.iter
    (fun len ->
      let msg = Rng.bytes rng len in
      match Elgamal.decrypt sk (Elgamal.encrypt rng pk msg) with
      | Some pt -> checkb (Printf.sprintf "%d bytes roundtrip" len) true (Bytes.equal pt msg)
      | None -> Alcotest.failf "%d bytes: decrypt failed" len)
    [ 0; 1; 31; 32; 33; 200 ]

let test_elgamal_randomized () =
  let pk, sk = Lazy.force shared_keypair in
  let rng = Rng.create 10L in
  let msg = Bytes.of_string "symmetric key material.........." in
  let c1 = Elgamal.encrypt rng pk msg and c2 = Elgamal.encrypt rng pk msg in
  checkb "same message encrypts differently" false (Bytes.equal c1 c2);
  checkb "both decrypt" true
    (Elgamal.decrypt sk c1 = Some msg && Elgamal.decrypt sk c2 = Some msg)

let test_elgamal_tamper () =
  let pk, sk = Lazy.force shared_keypair in
  let ct = Elgamal.encrypt (Rng.create 11L) pk (Bytes.of_string "hello") in
  (* a flip in the ephemeral element changes the derived key; a flip in
     the sealed part fails the tag *)
  for i = 0 to Bytes.length ct - 1 do
    let bad = Bytes.copy ct in
    Bytes.set_uint8 bad i (Bytes.get_uint8 bad i lxor 0x01);
    checkb (Printf.sprintf "flip at byte %d rejected" i) true (Elgamal.decrypt sk bad = None)
  done

let test_elgamal_wrong_key () =
  let pk, _ = Lazy.force shared_keypair in
  let rng = Rng.create 12L in
  let _, other = Elgamal.generate rng in
  checkb "another device's key cannot open it" true
    (Elgamal.decrypt other (Elgamal.encrypt rng pk (Bytes.of_string "hello")) = None)

let test_elgamal_malformed () =
  let pk, sk = Lazy.force shared_keypair in
  let ct = Elgamal.encrypt (Rng.create 13L) pk (Bytes.of_string "hello") in
  let with_element b =
    let bad = Bytes.copy ct in
    Bytes.blit b 0 bad 0 32;
    bad
  in
  checkb "shorter than the overhead" true (Elgamal.decrypt sk (Bytes.sub ct 0 40) = None);
  checkb "empty" true (Elgamal.decrypt sk Bytes.empty = None);
  checkb "ephemeral element 0" true (Elgamal.decrypt sk (with_element (Bytes.make 32 '\x00')) = None);
  checkb "ephemeral element above p" true
    (Elgamal.decrypt sk (with_element (Bytes.make 32 '\xff')) = None)

let test_elgamal_pub_serialization () =
  let pk, _ = Lazy.force shared_keypair in
  let b = Elgamal.pub_to_bytes pk in
  checki "fixed width" 32 (Bytes.length b);
  (match Elgamal.pub_of_bytes b with
  | Some pk' ->
    checkb "roundtrip" true (Bytes.equal (Elgamal.pub_to_bytes pk') b);
    checkb "fingerprint stable" true (Bytes.equal (Elgamal.fingerprint pk) (Elgamal.fingerprint pk'))
  | None -> Alcotest.fail "deserialize failed");
  checkb "wrong length rejected" true (Elgamal.pub_of_bytes (Bytes.sub b 0 31) = None);
  checkb "zero rejected" true (Elgamal.pub_of_bytes (Bytes.make 32 '\x00') = None);
  checkb "above p rejected" true (Elgamal.pub_of_bytes (Bytes.make 32 '\xff') = None)

let test_elgamal_fingerprints_distinct () =
  let rng = Rng.create 77L in
  let pk1, _ = Elgamal.generate rng in
  let pk2, _ = Elgamal.generate rng in
  checki "a SHA-256 digest" 32 (Bytes.length (Elgamal.fingerprint pk1));
  checkb "distinct keys distinct pseudonyms" false
    (Bytes.equal (Elgamal.fingerprint pk1) (Elgamal.fingerprint pk2))

(* The mixnet's fast_keys: the public half serializes and fingerprints
   like a real key, but nothing sealed to it opens. *)
let test_elgamal_insecure_keys () =
  let rng = Rng.create 78L in
  let pk, sk = Elgamal.generate_insecure rng in
  let b = Elgamal.pub_to_bytes pk in
  checki "fixed width" 32 (Bytes.length b);
  (match Elgamal.pub_of_bytes b with
  | Some pk' -> checkb "parses back" true (Bytes.equal (Elgamal.pub_to_bytes pk') b)
  | None -> Alcotest.fail "an insecure key must parse like a real one");
  checkb "cannot decrypt" true
    (Elgamal.decrypt sk (Elgamal.encrypt rng pk (Bytes.of_string "hello")) = None)

(* ------------------------------------------------------------------ *)
(* Word kernels: allocation and domain safety                         *)
(* ------------------------------------------------------------------ *)

(* SHA-256, ChaCha20 and the bulk draws keep their words in unboxed
   int64 locals; one that escaped would be boxed per block or per draw,
   and the allocation would grow with the length.  The two SHA-256
   lengths agree mod 64, so their padding is the same. *)
let test_kernel_allocation () =
  let same name f small large =
    f small;
    f large;
    Alcotest.(check (float 0.))
      (name ^ ": same at both lengths")
      (Testkit.allocated_words (fun () -> f small))
      (Testkit.allocated_words (fun () -> f large))
  in
  let rng = Rng.create 24L in
  let key = Rng.bytes rng 32 and nonce = Rng.bytes rng 12 in
  same "Sha256.digest"
    (fun b -> ignore (Sha256.digest b))
    (Bytes.create 100)
    (Bytes.create (100 + (64 * 1024)));
  (* A Merkle leaf's path: a one-byte tag in the block buffer, then the
     slot through [update_sub]. *)
  same "Sha256.update_sub after a 1-byte update"
    (fun b ->
      let ctx = Sha256.init () in
      Sha256.update ctx (Bytes.make 1 '\x00');
      Sha256.update_sub ctx b ~pos:0 ~len:(Bytes.length b))
    (Bytes.create 100)
    (Bytes.create (100 + (64 * 1024)));
  let dst = Bytes.create 65_536 in
  same "Chacha20.xor_into"
    (fun b -> Chacha20.xor_into ~key ~nonce ~src:b ~src_pos:0 ~dst ~dst_pos:0 (Bytes.length b))
    (Bytes.create 100) (Bytes.create 65_000);
  same "Rng.fill_int" (fun a -> Rng.fill_int rng 1_073_479_681 a) (Array.make 16 0)
    (Array.make 16_384 0);
  same "Rng.fill_centered_binomial"
    (fun a -> Rng.fill_centered_binomial rng ~eta:2 a)
    (Array.make 16 0) (Array.make 16_384 0)

(* Past their output (the coefficient array and one row per prime), the
   samplers allocate the same at every degree: nothing per draw. *)
let test_sampler_allocation () =
  let small = Rns.standard ~degree:256 ~prime_bits:28 ~levels:3 in
  let large = Rns.standard ~degree:4096 ~prime_bits:28 ~levels:3 in
  let k = Rns.level_count small in
  checki "same prime count" k (Rns.level_count large);
  let rng = Rng.create 25L in
  List.iter
    (fun (name, arrays, sample) ->
      ignore (sample small);
      ignore (sample large);
      let grows =
        Testkit.allocated_words (fun () -> ignore (sample large))
        -. Testkit.allocated_words (fun () -> ignore (sample small))
      in
      Alcotest.(check (float 0.)) name (float_of_int (arrays * (4096 - 256))) grows)
    [
      ("sample_ternary", k + 1, fun b -> Rq.sample_ternary b rng);
      ("sample_cbd", k + 1, fun b -> Rq.sample_cbd b ~eta:2 rng);
      ("random_uniform", k, fun b -> Rq.random_uniform b rng);
    ]

(* Pool tasks hash, encrypt and sample at once; a scratch buffer shared
   between calls would mix their words.  Four domains must give what
   one does. *)
let test_kernels_across_domains () =
  let basis = Rns.standard ~degree:256 ~prime_bits:28 ~levels:2 in
  let task i =
    let rng = Rng.create (Int64.of_int (600 + i)) in
    let msg = Rng.bytes rng (3000 + (97 * i)) in
    let key = Rng.bytes rng 32 and nonce = Rng.bytes rng 12 in
    let rows x = Array.concat (Array.to_list (Rq.residues x)) in
    ( Sha256.digest msg,
      Chacha20.encrypt ~key ~nonce msg,
      Array.concat
        [
          rows (Rq.sample_ternary basis rng);
          rows (Rq.sample_cbd basis ~eta:2 rng);
          rows (Rq.random_uniform basis rng);
        ] )
  in
  let ids = Array.init 48 Fun.id in
  let sequential = Array.map task ids in
  Pool.with_domains 4
    (fun () ->
      let pool = Pool.default () in
      for round = 1 to 3 do
        Array.iteri
          (fun i (digest, ct, coeffs) ->
            let d, c, k = sequential.(i) in
            let name = Printf.sprintf "round %d, task %d" round i in
            checkb (name ^ ": digest") true (Bytes.equal d digest);
            checkb (name ^ ": ciphertext") true (Bytes.equal c ct);
            Alcotest.(check (array int)) (name ^ ": samples") k coeffs)
          (Pool.map_array pool task ids)
      done)

let () =
  Alcotest.run "mycelium-crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental;
          Alcotest.test_case "double finalize" `Quick test_sha256_double_finalize;
          Alcotest.test_case "update_sub" `Quick test_sha256_update_sub;
          Alcotest.test_case "vs oracle" `Quick test_sha256_differential;
          Alcotest.test_case "update_sub chunks vs oracle" `Quick test_sha256_update_sub_chunks;
          Alcotest.test_case "HMAC RFC 4231" `Quick test_hmac_rfc4231;
        ] );
      ( "chacha20-poly1305",
        [
          Alcotest.test_case "block vector" `Quick test_chacha20_block_vector;
          Alcotest.test_case "encrypt vector" `Quick test_chacha20_encrypt_vector;
          Alcotest.test_case "roundtrip" `Quick test_chacha20_roundtrip;
          Alcotest.test_case "poly1305 vector" `Quick test_poly1305_vector;
          Alcotest.test_case "AEAD RFC 8439" `Quick test_aead_rfc8439;
          Alcotest.test_case "AEAD tamper detection" `Quick test_aead_tamper_detection;
          prop_aead_roundtrip;
          Alcotest.test_case "poly1305 vs oracle" `Quick test_poly1305_differential;
          Alcotest.test_case "poly1305 final subtraction" `Quick test_poly1305_final_subtraction;
          Alcotest.test_case "poly1305 mac_padded vs oracle" `Quick test_poly1305_mac_padded;
          Alcotest.test_case "chacha20 vs oracle" `Quick test_chacha20_differential;
          Alcotest.test_case "chacha20 bounds" `Quick test_chacha20_bounds;
          Alcotest.test_case "AEAD vs oracle" `Quick test_aead_differential;
          Alcotest.test_case "AEAD at the slot size" `Quick test_aead_slot_size;
        ] );
      ( "word kernels",
        [
          Alcotest.test_case "allocation independent of length" `Quick test_kernel_allocation;
          Alcotest.test_case "sampler allocation per degree" `Quick test_sampler_allocation;
          Alcotest.test_case "4 domains = 1" `Quick test_kernels_across_domains;
        ] );
      ( "merkle",
        [
          Alcotest.test_case "all proofs verify" `Quick test_merkle_all_proofs_verify;
          Alcotest.test_case "wrong leaf rejected" `Quick test_merkle_wrong_leaf_rejected;
          Alcotest.test_case "wrong index rejected" `Quick test_merkle_wrong_index_rejected;
          Alcotest.test_case "tampered sibling rejected" `Quick test_merkle_tampered_sibling_rejected;
          Alcotest.test_case "huge leaf_count rejected" `Quick test_merkle_huge_leaf_count_rejected;
          Alcotest.test_case "root depends on leaves" `Quick test_merkle_root_depends_on_all_leaves;
          Alcotest.test_case "depth" `Quick test_merkle_depth;
          prop_merkle_random;
        ] );
      ( "elgamal",
        [
          Alcotest.test_case "roundtrip" `Quick test_elgamal_roundtrip;
          Alcotest.test_case "randomized encryption" `Quick test_elgamal_randomized;
          Alcotest.test_case "tamper" `Quick test_elgamal_tamper;
          Alcotest.test_case "wrong key" `Quick test_elgamal_wrong_key;
          Alcotest.test_case "malformed ciphertexts" `Quick test_elgamal_malformed;
          Alcotest.test_case "pubkey serialization" `Quick test_elgamal_pub_serialization;
          Alcotest.test_case "fingerprints distinct" `Quick test_elgamal_fingerprints_distinct;
          Alcotest.test_case "insecure keys" `Quick test_elgamal_insecure_keys;
        ] );
    ]
