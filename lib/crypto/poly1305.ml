(* Poly1305 on five 26-bit limbs, the poly1305-donna-32 layout: the
   accumulator h and the clamped r are h0 + h1·2^26 + … + h4·2^104,
   and a block multiply is 25 native-int products with one carry chain.
   2^130 ≡ 5 (mod p), so the limbs that overflow 2^130 come back in
   multiplied by 5 (the s_i = 5·r_i). *)

let tag_size = 16

let m26 = 0x3ffffff
let m32 = 0xffffffff

(* 2^128, the bit a full 16-byte block carries, as a bit of limb 4. *)
let hibit = 1 lsl 24

let le32 b off = Int32.to_int (Bytes.get_int32_le b off) land m32

type state = {
  r0 : int;
  r1 : int;
  r2 : int;
  r3 : int;
  r4 : int;
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
}

(* r from overlapping 32-bit loads, with the RFC's clamp folded into
   the limb masks. *)
let init key =
  {
    r0 = le32 key 0 land 0x3ffffff;
    r1 = (le32 key 3 lsr 2) land 0x3ffff03;
    r2 = (le32 key 6 lsr 4) land 0x3ffc0ff;
    r3 = (le32 key 9 lsr 6) land 0x3f03fff;
    r4 = (le32 key 12 lsr 8) land 0x00fffff;
    h0 = 0;
    h1 = 0;
    h2 = 0;
    h3 = 0;
    h4 = 0;
  }

(* Absorb [n] 16-byte blocks of [b] from [pos]: h <- (h + block + top)·r
   mod p, with [top] either [hibit] or 0. The bound that keeps this in
   native ints is in the .mli. *)
let blocks st b pos n ~top =
  let r0 = st.r0 and r1 = st.r1 and r2 = st.r2 and r3 = st.r3 and r4 = st.r4 in
  let s1 = 5 * r1 and s2 = 5 * r2 and s3 = 5 * r3 and s4 = 5 * r4 in
  let h0 = ref st.h0 and h1 = ref st.h1 and h2 = ref st.h2 in
  let h3 = ref st.h3 and h4 = ref st.h4 in
  for i = 0 to n - 1 do
    let o = pos + (16 * i) in
    let t0 = !h0 + (le32 b o land m26) in
    let t1 = !h1 + ((le32 b (o + 3) lsr 2) land m26) in
    let t2 = !h2 + ((le32 b (o + 6) lsr 4) land m26) in
    let t3 = !h3 + ((le32 b (o + 9) lsr 6) land m26) in
    let t4 = !h4 + ((le32 b (o + 12) lsr 8) lor top) in
    let d0 = (t0 * r0) + (t1 * s4) + (t2 * s3) + (t3 * s2) + (t4 * s1) in
    let d1 = (t0 * r1) + (t1 * r0) + (t2 * s4) + (t3 * s3) + (t4 * s2) in
    let d2 = (t0 * r2) + (t1 * r1) + (t2 * r0) + (t3 * s4) + (t4 * s3) in
    let d3 = (t0 * r3) + (t1 * r2) + (t2 * r1) + (t3 * r0) + (t4 * s4) in
    let d4 = (t0 * r4) + (t1 * r3) + (t2 * r2) + (t3 * r1) + (t4 * r0) in
    let d1 = d1 + (d0 lsr 26) in
    let d2 = d2 + (d1 lsr 26) in
    let d3 = d3 + (d2 lsr 26) in
    let d4 = d4 + (d3 lsr 26) in
    let c0 = (d0 land m26) + (5 * (d4 lsr 26)) in
    h0 := c0 land m26;
    h1 := (d1 land m26) + (c0 lsr 26);
    h2 := d2 land m26;
    h3 := d3 land m26;
    h4 := d4 land m26
  done;
  st.h0 <- !h0;
  st.h1 <- !h1;
  st.h2 <- !h2;
  st.h3 <- !h3;
  st.h4 <- !h4

(* Absorb [len] bytes of [b] from [pos]. A short last block is
   zero-padded: it ends an RFC 8439 §2.5 message with a 0x01 byte and
   no 2^128 bit or, [padded] (a segment of §2.8's mac_data), counts as
   a full block. *)
let absorb st b pos len ~padded =
  let full = len / 16 in
  blocks st b pos full ~top:hibit;
  let rem = len - (16 * full) in
  if rem > 0 then begin
    let blk = Bytes.make 16 '\x00' in
    Bytes.blit b (pos + (16 * full)) blk 0 rem;
    if padded then blocks st blk 0 1 ~top:hibit
    else begin
      Bytes.set_uint8 blk rem 1;
      blocks st blk 0 1 ~top:0
    end
  end

(* Fully carry h, reduce it mod p = 2^130 - 5, and write (h + s) mod
   2^128 little-endian. *)
let finish st key =
  let c = st.h1 lsr 26 and h1 = st.h1 land m26 in
  let h2 = st.h2 + c in
  let c = h2 lsr 26 and h2 = h2 land m26 in
  let h3 = st.h3 + c in
  let c = h3 lsr 26 and h3 = h3 land m26 in
  let h4 = st.h4 + c in
  let c = h4 lsr 26 and h4 = h4 land m26 in
  let h0 = st.h0 + (5 * c) in
  let c = h0 lsr 26 and h0 = h0 land m26 in
  let h1 = h1 + c in
  (* g = h + 5 - 2^130 = h - p, negative (g4 < 0) exactly when h < p. *)
  let g0 = h0 + 5 in
  let c = g0 lsr 26 and g0 = g0 land m26 in
  let g1 = h1 + c in
  let c = g1 lsr 26 and g1 = g1 land m26 in
  let g2 = h2 + c in
  let c = g2 lsr 26 and g2 = g2 land m26 in
  let g3 = h3 + c in
  let c = g3 lsr 26 and g3 = g3 land m26 in
  let g4 = h4 + c - (1 lsl 26) in
  let keep_h = g4 asr 62 in
  let sel h g = (h land keep_h) lor (g land lnot keep_h) in
  let h0 = sel h0 g0 and h1 = sel h1 g1 and h2 = sel h2 g2 in
  let h3 = sel h3 g3 and h4 = sel h4 g4 in
  (* Regroup the limbs into 32-bit words while adding s, carrying
     between words; the carry out of the last word is the mod 2^128. *)
  let out = Bytes.create 16 in
  let f = h0 + (h1 lsl 26) + le32 key 16 in
  Bytes.set_int32_le out 0 (Int32.of_int f);
  let f = (f lsr 32) + (h2 lsl 20) + le32 key 20 in
  Bytes.set_int32_le out 4 (Int32.of_int f);
  let f = (f lsr 32) + (h3 lsl 14) + le32 key 24 in
  Bytes.set_int32_le out 8 (Int32.of_int f);
  let f = (f lsr 32) + (h4 lsl 8) + le32 key 28 in
  Bytes.set_int32_le out 12 (Int32.of_int f);
  out

let mac ~key msg =
  if Bytes.length key <> 32 then invalid_arg "Poly1305.mac: bad key size";
  let st = init key in
  absorb st msg 0 (Bytes.length msg) ~padded:false;
  finish st key

let mac_padded ~key segments =
  if Bytes.length key <> 32 then invalid_arg "Poly1305.mac_padded: bad key size";
  let st = init key in
  List.iter
    (fun (b, pos, len) ->
      if pos < 0 || len < 0 || pos + len > Bytes.length b then
        invalid_arg "Poly1305.mac_padded: range out of bounds";
      absorb st b pos len ~padded:true)
    segments;
  finish st key
