module Obs = Mycelium_obs.Obs

(* The bytes [xor_into] enciphers; counted like [Sha256]'s. *)
let m_bytes = Obs.Metrics.counter Obs.Names.chacha20_bytes

let key_size = 32
let nonce_size = 12

let mask = 0xFFFFFFFFL

let le32 b off = Int64.logand (Int64.of_int32 (Bytes.get_int32_le b off)) mask

(* A word rotated left by [n] in its low 32 bits.  Bits above 31 of [x]
   are ignored and those of the result are garbage: the block function
   keeps a word's bits above 31 unmasked, because its additions and
   xors never carry them down, and a word is masked only where it is
   rotated.  Both shift counts must stay expressions of [n]: inlining
   folds them into immediates, while a [let]-bound count stays in a
   register and every shift goes through cl, which costs more
   micro-operations than a shift by a constant. *)
let[@inline] rotl x n =
  Mycelium_util.Int64_ops.(
    let x = x land mask in
    (x lsl n) lor (x lsr (32 - n)))

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
  if Obs.enabled () then Obs.Metrics.add m_bytes len;
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
    let r0 = ref c0 and r1 = ref c1 and r2 = ref c2 and r3 = ref c3 in
    let r4 = ref k0 and r5 = ref k1 and r6 = ref k2 and r7 = ref k3 in
    let r8 = ref k4 and r9 = ref k5 and r10 = ref k6 and r11 = ref k7 in
    let r12 = ref ctr and r13 = ref n0 and r14 = ref n1 and r15 = ref n2 in
    (* Two double rounds per iteration on let-bound words, so ocamlopt
       keeps them in registers and the CPU overlaps the four independent
       quarter rounds of each half round; the refs hold the words only
       between iterations.  Each quarter round a b c d is RFC 8439 §2.1's
       a += b; d ^= a; d <<<= 16; c += d; b ^= c; b <<<= 12;
       a += b; d ^= a; d <<<= 8; c += d; b ^= c; b <<<= 7. *)
    for _ = 1 to 5 do
      let x0 = !r0 and x1 = !r1 and x2 = !r2 and x3 = !r3 in
      let x4 = !r4 and x5 = !r5 and x6 = !r6 and x7 = !r7 in
      let x8 = !r8 and x9 = !r9 and x10 = !r10 and x11 = !r11 in
      let x12 = !r12 and x13 = !r13 and x14 = !r14 and x15 = !r15 in
      Mycelium_util.Int64_ops.(
        (* Column round: quarter rounds on (0 4 8 12) (1 5 9 13)
           (2 6 10 14) (3 7 11 15). *)
        let x0 = x0 + x4 in let x12 = rotl (x12 lxor x0) 16 in
        let x8 = x8 + x12 in let x4 = rotl (x4 lxor x8) 12 in
        let x0 = x0 + x4 in let x12 = rotl (x12 lxor x0) 8 in
        let x8 = x8 + x12 in let x4 = rotl (x4 lxor x8) 7 in
        let x1 = x1 + x5 in let x13 = rotl (x13 lxor x1) 16 in
        let x9 = x9 + x13 in let x5 = rotl (x5 lxor x9) 12 in
        let x1 = x1 + x5 in let x13 = rotl (x13 lxor x1) 8 in
        let x9 = x9 + x13 in let x5 = rotl (x5 lxor x9) 7 in
        let x2 = x2 + x6 in let x14 = rotl (x14 lxor x2) 16 in
        let x10 = x10 + x14 in let x6 = rotl (x6 lxor x10) 12 in
        let x2 = x2 + x6 in let x14 = rotl (x14 lxor x2) 8 in
        let x10 = x10 + x14 in let x6 = rotl (x6 lxor x10) 7 in
        let x3 = x3 + x7 in let x15 = rotl (x15 lxor x3) 16 in
        let x11 = x11 + x15 in let x7 = rotl (x7 lxor x11) 12 in
        let x3 = x3 + x7 in let x15 = rotl (x15 lxor x3) 8 in
        let x11 = x11 + x15 in let x7 = rotl (x7 lxor x11) 7 in
        (* Diagonal round: (0 5 10 15) (1 6 11 12) (2 7 8 13) (3 4 9 14). *)
        let x0 = x0 + x5 in let x15 = rotl (x15 lxor x0) 16 in
        let x10 = x10 + x15 in let x5 = rotl (x5 lxor x10) 12 in
        let x0 = x0 + x5 in let x15 = rotl (x15 lxor x0) 8 in
        let x10 = x10 + x15 in let x5 = rotl (x5 lxor x10) 7 in
        let x1 = x1 + x6 in let x12 = rotl (x12 lxor x1) 16 in
        let x11 = x11 + x12 in let x6 = rotl (x6 lxor x11) 12 in
        let x1 = x1 + x6 in let x12 = rotl (x12 lxor x1) 8 in
        let x11 = x11 + x12 in let x6 = rotl (x6 lxor x11) 7 in
        let x2 = x2 + x7 in let x13 = rotl (x13 lxor x2) 16 in
        let x8 = x8 + x13 in let x7 = rotl (x7 lxor x8) 12 in
        let x2 = x2 + x7 in let x13 = rotl (x13 lxor x2) 8 in
        let x8 = x8 + x13 in let x7 = rotl (x7 lxor x8) 7 in
        let x3 = x3 + x4 in let x14 = rotl (x14 lxor x3) 16 in
        let x9 = x9 + x14 in let x4 = rotl (x4 lxor x9) 12 in
        let x3 = x3 + x4 in let x14 = rotl (x14 lxor x3) 8 in
        let x9 = x9 + x14 in let x4 = rotl (x4 lxor x9) 7 in
        (* The second double round. *)
        let x0 = x0 + x4 in let x12 = rotl (x12 lxor x0) 16 in
        let x8 = x8 + x12 in let x4 = rotl (x4 lxor x8) 12 in
        let x0 = x0 + x4 in let x12 = rotl (x12 lxor x0) 8 in
        let x8 = x8 + x12 in let x4 = rotl (x4 lxor x8) 7 in
        let x1 = x1 + x5 in let x13 = rotl (x13 lxor x1) 16 in
        let x9 = x9 + x13 in let x5 = rotl (x5 lxor x9) 12 in
        let x1 = x1 + x5 in let x13 = rotl (x13 lxor x1) 8 in
        let x9 = x9 + x13 in let x5 = rotl (x5 lxor x9) 7 in
        let x2 = x2 + x6 in let x14 = rotl (x14 lxor x2) 16 in
        let x10 = x10 + x14 in let x6 = rotl (x6 lxor x10) 12 in
        let x2 = x2 + x6 in let x14 = rotl (x14 lxor x2) 8 in
        let x10 = x10 + x14 in let x6 = rotl (x6 lxor x10) 7 in
        let x3 = x3 + x7 in let x15 = rotl (x15 lxor x3) 16 in
        let x11 = x11 + x15 in let x7 = rotl (x7 lxor x11) 12 in
        let x3 = x3 + x7 in let x15 = rotl (x15 lxor x3) 8 in
        let x11 = x11 + x15 in let x7 = rotl (x7 lxor x11) 7 in
        let x0 = x0 + x5 in let x15 = rotl (x15 lxor x0) 16 in
        let x10 = x10 + x15 in let x5 = rotl (x5 lxor x10) 12 in
        let x0 = x0 + x5 in let x15 = rotl (x15 lxor x0) 8 in
        let x10 = x10 + x15 in let x5 = rotl (x5 lxor x10) 7 in
        let x1 = x1 + x6 in let x12 = rotl (x12 lxor x1) 16 in
        let x11 = x11 + x12 in let x6 = rotl (x6 lxor x11) 12 in
        let x1 = x1 + x6 in let x12 = rotl (x12 lxor x1) 8 in
        let x11 = x11 + x12 in let x6 = rotl (x6 lxor x11) 7 in
        let x2 = x2 + x7 in let x13 = rotl (x13 lxor x2) 16 in
        let x8 = x8 + x13 in let x7 = rotl (x7 lxor x8) 12 in
        let x2 = x2 + x7 in let x13 = rotl (x13 lxor x2) 8 in
        let x8 = x8 + x13 in let x7 = rotl (x7 lxor x8) 7 in
        let x3 = x3 + x4 in let x14 = rotl (x14 lxor x3) 16 in
        let x9 = x9 + x14 in let x4 = rotl (x4 lxor x9) 12 in
        let x3 = x3 + x4 in let x14 = rotl (x14 lxor x3) 8 in
        let x9 = x9 + x14 in let x4 = rotl (x4 lxor x9) 7 in
        r0 := x0; r1 := x1; r2 := x2; r3 := x3; r4 := x4; r5 := x5; r6 := x6; r7 := x7;
        r8 := x8; r9 := x9; r10 := x10; r11 := x11; r12 := x12; r13 := x13; r14 := x14; r15 := x15)
    done;
    Mycelium_util.Int64_ops.(
      store_pair ks 0 (!r0 + c0) (!r1 + c1);
      store_pair ks 8 (!r2 + c2) (!r3 + c3);
      store_pair ks 16 (!r4 + k0) (!r5 + k1);
      store_pair ks 24 (!r6 + k2) (!r7 + k3);
      store_pair ks 32 (!r8 + k4) (!r9 + k5);
      store_pair ks 40 (!r10 + k6) (!r11 + k7);
      store_pair ks 48 (!r12 + ctr) (!r13 + n0);
      store_pair ks 56 (!r14 + n1) (!r15 + n2));
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
