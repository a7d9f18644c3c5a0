let key_size = 32
let nonce_size = 12

let mask = 0xFFFFFFFF

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

let le32 b off = Int32.to_int (Bytes.get_int32_le b off) land mask

let init_state ~key ~nonce ~counter =
  if Bytes.length key <> key_size then invalid_arg "Chacha20: bad key size";
  if Bytes.length nonce <> nonce_size then invalid_arg "Chacha20: bad nonce size";
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
  st

let store_le32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let xor_into ~key ~nonce ?(counter = 1) ~src ~src_pos ~dst ~dst_pos len =
  if
    src_pos < 0 || dst_pos < 0 || len < 0
    || src_pos + len > Bytes.length src
    || dst_pos + len > Bytes.length dst
  then invalid_arg "Chacha20.xor_into: range out of bounds";
  let st = init_state ~key ~nonce ~counter in
  (* The working state, the quarter round and the keystream buffer are
     made once per call; a block allocates nothing. *)
  let x0 = ref 0 and x1 = ref 0 and x2 = ref 0 and x3 = ref 0 in
  let x4 = ref 0 and x5 = ref 0 and x6 = ref 0 and x7 = ref 0 in
  let x8 = ref 0 and x9 = ref 0 and x10 = ref 0 and x11 = ref 0 in
  let x12 = ref 0 and x13 = ref 0 and x14 = ref 0 and x15 = ref 0 in
  let qr a b c d =
    a := (!a + !b) land mask;
    d := rotl (!d lxor !a) 16;
    c := (!c + !d) land mask;
    b := rotl (!b lxor !c) 12;
    a := (!a + !b) land mask;
    d := rotl (!d lxor !a) 8;
    c := (!c + !d) land mask;
    b := rotl (!b lxor !c) 7
  in
  let ks = Bytes.create 64 in
  for blk = 0 to ((len + 63) / 64) - 1 do
    st.(12) <- (counter + blk) land mask;
    x0 := st.(0); x1 := st.(1); x2 := st.(2); x3 := st.(3);
    x4 := st.(4); x5 := st.(5); x6 := st.(6); x7 := st.(7);
    x8 := st.(8); x9 := st.(9); x10 := st.(10); x11 := st.(11);
    x12 := st.(12); x13 := st.(13); x14 := st.(14); x15 := st.(15);
    for _ = 1 to 10 do
      qr x0 x4 x8 x12;
      qr x1 x5 x9 x13;
      qr x2 x6 x10 x14;
      qr x3 x7 x11 x15;
      qr x0 x5 x10 x15;
      qr x1 x6 x11 x12;
      qr x2 x7 x8 x13;
      qr x3 x4 x9 x14
    done;
    store_le32 ks 0 (!x0 + st.(0)); store_le32 ks 4 (!x1 + st.(1));
    store_le32 ks 8 (!x2 + st.(2)); store_le32 ks 12 (!x3 + st.(3));
    store_le32 ks 16 (!x4 + st.(4)); store_le32 ks 20 (!x5 + st.(5));
    store_le32 ks 24 (!x6 + st.(6)); store_le32 ks 28 (!x7 + st.(7));
    store_le32 ks 32 (!x8 + st.(8)); store_le32 ks 36 (!x9 + st.(9));
    store_le32 ks 40 (!x10 + st.(10)); store_le32 ks 44 (!x11 + st.(11));
    store_le32 ks 48 (!x12 + st.(12)); store_le32 ks 52 (!x13 + st.(13));
    store_le32 ks 56 (!x14 + st.(14)); store_le32 ks 60 (!x15 + st.(15));
    let s = src_pos + (blk * 64) and d = dst_pos + (blk * 64) in
    let chunk = min 64 (len - (blk * 64)) in
    (* Every word is read before it is written, so [src] and [dst] may
       be one buffer at one offset. *)
    if chunk = 64 then
      for i = 0 to 7 do
        let o = 8 * i in
        Bytes.set_int64_le dst (d + o)
          (Int64.logxor (Bytes.get_int64_le src (s + o)) (Bytes.get_int64_le ks o))
      done
    else
      for i = 0 to chunk - 1 do
        Bytes.set_uint8 dst (d + i) (Bytes.get_uint8 src (s + i) lxor Bytes.get_uint8 ks i)
      done
  done

(* The keystream is the XOR of the cipher into zeros. *)
let block ~key ~nonce ~counter =
  let out = Bytes.make 64 '\x00' in
  xor_into ~key ~nonce ~counter ~src:out ~src_pos:0 ~dst:out ~dst_pos:0 64;
  out

let encrypt ~key ~nonce ?(counter = 1) data =
  let len = Bytes.length data in
  let out = Bytes.create len in
  xor_into ~key ~nonce ~counter ~src:data ~src_pos:0 ~dst:out ~dst_pos:0 len;
  out

let nonce_of_round round =
  let b = Bytes.make nonce_size '\x00' in
  Bytes.set_int64_le b 4 (Int64.of_int round);
  b
