let key_size = 32
let nonce_size = 12

let mask = 0xFFFFFFFFL

let le32 b off = Int64.logand (Int64.of_int32 (Bytes.get_int32_le b off)) mask

(* A word rotated left by [n] in its low 32 bits.  Bits above 31 of [x]
   are ignored and those of the result are garbage: the block function
   keeps a word's bits above 31 unmasked, because its additions and
   xors never carry them down, and a word is masked only where it is
   rotated. *)
let[@inline] rotl x n =
  let r = 32 - n in
  Mycelium_util.Int64_ops.(
    let x = x land mask in
    (x lsl n) lor (x lsr r))

(* Words [x] and [y] (low 32 bits each) as one little-endian 64-bit
   store: [x] at [off], [y] at [off + 4]. *)
let[@inline] store_pair b off x y =
  Bytes.set_int64_le b off Mycelium_util.Int64_ops.((x land mask) lor (y lsl 32))

let xor_into ~key ~nonce ?(counter = 1) ~src ~src_pos ~dst ~dst_pos len =
  if
    src_pos < 0 || dst_pos < 0 || len < 0
    || src_pos + len > Bytes.length src
    || dst_pos + len > Bytes.length dst
  then invalid_arg "Chacha20.xor_into: range out of bounds";
  if Bytes.length key <> key_size then invalid_arg "Chacha20: bad key size";
  if Bytes.length nonce <> nonce_size then invalid_arg "Chacha20: bad nonce size";
  (* The input block is "expand 32-byte k", the key, the counter and the
     nonce; its words, like the working state below, are unboxed Int64
     locals (see DESIGN.md §9), so a block allocates nothing. *)
  let c0 = 0x61707865L and c1 = 0x3320646eL and c2 = 0x79622d32L and c3 = 0x6b206574L in
  let k0 = le32 key 0 and k1 = le32 key 4 and k2 = le32 key 8 and k3 = le32 key 12 in
  let k4 = le32 key 16 and k5 = le32 key 20 and k6 = le32 key 24 and k7 = le32 key 28 in
  let n0 = le32 nonce 0 and n1 = le32 nonce 4 and n2 = le32 nonce 8 in
  let ks = Bytes.create 64 in
  for blk = 0 to ((len + 63) / 64) - 1 do
    let ctr = Int64.of_int ((counter + blk) land 0xFFFFFFFF) in
    let x0 = ref c0 and x1 = ref c1 and x2 = ref c2 and x3 = ref c3 in
    let x4 = ref k0 and x5 = ref k1 and x6 = ref k2 and x7 = ref k3 in
    let x8 = ref k4 and x9 = ref k5 and x10 = ref k6 and x11 = ref k7 in
    let x12 = ref ctr and x13 = ref n0 and x14 = ref n1 and x15 = ref n2 in
    for _ = 1 to 10 do
      Mycelium_util.Int64_ops.(
        (* Column round: quarter rounds on (0 4 8 12) (1 5 9 13)
           (2 6 10 14) (3 7 11 15), each a b c d as RFC 8439 §2.1:
           a += b; d ^= a; d <<<= 16; c += d; b ^= c; b <<<= 12;
           a += b; d ^= a; d <<<= 8; c += d; b ^= c; b <<<= 7. *)
        x0 := !x0 + !x4; x12 := rotl (!x12 lxor !x0) 16;
        x8 := !x8 + !x12; x4 := rotl (!x4 lxor !x8) 12;
        x0 := !x0 + !x4; x12 := rotl (!x12 lxor !x0) 8;
        x8 := !x8 + !x12; x4 := rotl (!x4 lxor !x8) 7;
        x1 := !x1 + !x5; x13 := rotl (!x13 lxor !x1) 16;
        x9 := !x9 + !x13; x5 := rotl (!x5 lxor !x9) 12;
        x1 := !x1 + !x5; x13 := rotl (!x13 lxor !x1) 8;
        x9 := !x9 + !x13; x5 := rotl (!x5 lxor !x9) 7;
        x2 := !x2 + !x6; x14 := rotl (!x14 lxor !x2) 16;
        x10 := !x10 + !x14; x6 := rotl (!x6 lxor !x10) 12;
        x2 := !x2 + !x6; x14 := rotl (!x14 lxor !x2) 8;
        x10 := !x10 + !x14; x6 := rotl (!x6 lxor !x10) 7;
        x3 := !x3 + !x7; x15 := rotl (!x15 lxor !x3) 16;
        x11 := !x11 + !x15; x7 := rotl (!x7 lxor !x11) 12;
        x3 := !x3 + !x7; x15 := rotl (!x15 lxor !x3) 8;
        x11 := !x11 + !x15; x7 := rotl (!x7 lxor !x11) 7;
        (* Diagonal round: (0 5 10 15) (1 6 11 12) (2 7 8 13) (3 4 9 14). *)
        x0 := !x0 + !x5; x15 := rotl (!x15 lxor !x0) 16;
        x10 := !x10 + !x15; x5 := rotl (!x5 lxor !x10) 12;
        x0 := !x0 + !x5; x15 := rotl (!x15 lxor !x0) 8;
        x10 := !x10 + !x15; x5 := rotl (!x5 lxor !x10) 7;
        x1 := !x1 + !x6; x12 := rotl (!x12 lxor !x1) 16;
        x11 := !x11 + !x12; x6 := rotl (!x6 lxor !x11) 12;
        x1 := !x1 + !x6; x12 := rotl (!x12 lxor !x1) 8;
        x11 := !x11 + !x12; x6 := rotl (!x6 lxor !x11) 7;
        x2 := !x2 + !x7; x13 := rotl (!x13 lxor !x2) 16;
        x8 := !x8 + !x13; x7 := rotl (!x7 lxor !x8) 12;
        x2 := !x2 + !x7; x13 := rotl (!x13 lxor !x2) 8;
        x8 := !x8 + !x13; x7 := rotl (!x7 lxor !x8) 7;
        x3 := !x3 + !x4; x14 := rotl (!x14 lxor !x3) 16;
        x9 := !x9 + !x14; x4 := rotl (!x4 lxor !x9) 12;
        x3 := !x3 + !x4; x14 := rotl (!x14 lxor !x3) 8;
        x9 := !x9 + !x14; x4 := rotl (!x4 lxor !x9) 7)
    done;
    Mycelium_util.Int64_ops.(
      store_pair ks 0 (!x0 + c0) (!x1 + c1);
      store_pair ks 8 (!x2 + c2) (!x3 + c3);
      store_pair ks 16 (!x4 + k0) (!x5 + k1);
      store_pair ks 24 (!x6 + k2) (!x7 + k3);
      store_pair ks 32 (!x8 + k4) (!x9 + k5);
      store_pair ks 40 (!x10 + k6) (!x11 + k7);
      store_pair ks 48 (!x12 + ctr) (!x13 + n0);
      store_pair ks 56 (!x14 + n1) (!x15 + n2));
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
