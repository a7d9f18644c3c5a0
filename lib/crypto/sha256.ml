(* SHA-256 (FIPS 180-4).  The compression function runs on unboxed
   Int64 words; everything around it on native ints. *)

module Obs = Mycelium_obs.Obs

(* The message bytes [update_sub] absorbs, finalize's padding excluded.
   Like [Rq]'s counters it counts only while tracing is on, and the call
   site guards on [Obs.enabled] so the disabled path costs one branch. *)
let m_bytes = Obs.Metrics.counter Obs.Names.sha256_bytes

(* The round constants K[0..63] of FIPS 180-4 §4.2.2, K[t] as a
   little-endian 32-bit word at byte 4·t.  A string constant sits at a
   fixed address, so a round reads its K with one load, where an int
   array element is reached through the module block and untagged. *)
let k_le =
  "\x98\x2f\x8a\x42\x91\x44\x37\x71\xcf\xfb\xc0\xb5\xa5\xdb\xb5\xe9\
   \x5b\xc2\x56\x39\xf1\x11\xf1\x59\xa4\x82\x3f\x92\xd5\x5e\x1c\xab\
   \x98\xaa\x07\xd8\x01\x5b\x83\x12\xbe\x85\x31\x24\xc3\x7d\x0c\x55\
   \x74\x5d\xbe\x72\xfe\xb1\xde\x80\xa7\x06\xdc\x9b\x74\xf1\x9b\xc1\
   \xc1\x69\x9b\xe4\x86\x47\xbe\xef\xc6\x9d\xc1\x0f\xcc\xa1\x0c\x24\
   \x6f\x2c\xe9\x2d\xaa\x84\x74\x4a\xdc\xa9\xb0\x5c\xda\x88\xf9\x76\
   \x52\x51\x3e\x98\x6d\xc6\x31\xa8\xc8\x27\x03\xb0\xc7\x7f\x59\xbf\
   \xf3\x0b\xe0\xc6\x47\x91\xa7\xd5\x51\x63\xca\x06\x67\x29\x29\x14\
   \x85\x0a\xb7\x27\x38\x21\x1b\x2e\xfc\x6d\x2c\x4d\x13\x0d\x38\x53\
   \x54\x73\x0a\x65\xbb\x0a\x6a\x76\x2e\xc9\xc2\x81\x85\x2c\x72\x92\
   \xa1\xe8\xbf\xa2\x4b\x66\x1a\xa8\x70\x8b\x4b\xc2\xa3\x51\x6c\xc7\
   \x19\xe8\x92\xd1\x24\x06\x99\xd6\x85\x35\x0e\xf4\x70\xa0\x6a\x10\
   \x16\xc1\xa4\x19\x08\x6c\x37\x1e\x4c\x77\x48\x27\xb5\xbc\xb0\x34\
   \xb3\x0c\x1c\x39\x4a\xaa\xd8\x4e\x4f\xca\x9c\x5b\xf3\x6f\x2e\x68\
   \xee\x82\x8f\x74\x6f\x63\xa5\x78\x14\x78\xc8\x84\x08\x02\xc7\x8c\
   \xfa\xff\xbe\x90\xeb\x6c\x50\xa4\xf7\xa3\xf9\xbe\xf2\x78\x71\xc6"

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
  mutable finished : bool;
  w : Bytes.t; (* compression scratch: 24 words, 8 bytes each *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    finished = false;
    w = Bytes.create 192;
  }

(* Word i of a scratch buffer sits native-endian at byte 8·i.  In
   [ctx.w], words 0–15 are the message schedule's ring (W[t] at
   t mod 16) and words 16–23 hold a..h between passes; every offset
   below is 8·i with i < 24, inside its 192 bytes. *)
external get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_word : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

external get32 : string -> int -> int32 = "%caml_string_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"
external big_endian : unit -> bool = "%big_endian"

(* K[i + j], sign-extended: its bits above 31 only reach additions whose
   low 32 bits are kept.  [big_endian ()] is a compile-time constant. *)
let[@inline] kw i j =
  let v = get32 k_le (4 * (i + j)) in
  Int64.of_int32 (if big_endian () then swap32 v else v)

let mask = 0xFFFFFFFFL

(* The 32-bit words live in unboxed Int64 locals: ocamlopt keeps an
   int64 that is let-bound and never escapes in a register, so add, xor
   and shift are one instruction each, where a tagged int re-tags after
   most of them.

   A rotation reads a doubled word.  For x < 2^32 and
   d = x lor (x lsl 32), the low 32 bits of d lsr n are x rotated right
   by n.  A logical shift distributes over xor, so Σ1's
   (d lsr 6) lxor (d lsr 11) lxor (d lsr 25) is computed as
   ((((d lsr 14) lxor d) lsr 5) lxor d) lsr 6, which copies d once where
   three separate shifts copy it twice (x86 shifts in place).  The bits
   above 31 are garbage that only reaches additions and xors whose low
   32 bits are kept.  So a word is masked once, where it is made (a
   schedule word, e and a), and every word that is doubled or shifted
   right is one of those masked words. *)
let[@inline] sum0 a =
  Mycelium_util.Int64_ops.(
    let d = a lor (a lsl 32) in
    ((((d lsr 9) lxor d) lsr 11) lxor d) lsr 2)

let[@inline] sum1 e =
  Mycelium_util.Int64_ops.(
    let d = e lor (e lsl 32) in
    ((((d lsr 14) lxor d) lsr 5) lxor d) lsr 6)

let[@inline] ch e f g = Mycelium_util.Int64_ops.(g lxor (e land (f lxor g)))

let[@inline] maj a b c = Mycelium_util.Int64_ops.((a land (b lor c)) lor (b land c))

(* Message word t = i + j.  The first pass reads the block's words from
   the ring; after it, W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16],
   which sit at j + 14, j + 9, j + 1 and j mod 16, replaces W[t-16].
   Each round computes its own word, so the schedule overlaps the
   rounds' dependency chain instead of running ahead of it. *)
let[@inline] word w ~first j =
  if first then get_word w (8 * j)
  else begin
    let x = get_word w (8 * ((j + 1) land 15)) and y = get_word w (8 * ((j + 14) land 15)) in
    let w16 = get_word w (8 * j) and w7 = get_word w (8 * ((j + 9) land 15)) in
    let v =
      Mycelium_util.Int64_ops.(
        let dx = x lor (x lsl 32) and dy = y lor (y lsl 32) in
        let s0 = (dx lsr 7) lxor (dx lsr 18) lxor (x lsr 3) in
        let s1 = (dy lsr 17) lxor (dy lsr 19) lxor (y lsr 10) in
        (w16 + s0 + w7 + s1) land mask)
    in
    set_word w (8 * j) v;
    v
  end

(* Rounds i to i + 15, written out on let-bound words, so ocamlopt keeps
   them in registers and the CPU overlaps each round's schedule word and
   Σ0/Maj half with the dependency chain through e; [w] holds a..h only
   between passes.  A round makes two words, the new e and the new a.
   The other six are renamings, so the round that would shift a..h down
   by one instead writes into d and h, and the next round reads its
   roles one name later; eight rounds bring the names back.  [first] is
   a constant at each call, so inlining keeps one branch of [word]. *)
let[@inline] pass w ~first i =
  let a = get_word w 128 and b = get_word w 136 and c = get_word w 144 and d = get_word w 152 in
  let e = get_word w 160 and f = get_word w 168 and g = get_word w 176 and h = get_word w 184 in
  Mycelium_util.Int64_ops.(
    let t = sum1 e + (ch e f g + (h + kw i 0 + word w ~first 0)) in
    let d = (d + t) land mask and h = (t + sum0 a + maj a b c) land mask in
    let t = sum1 d + (ch d e f + (g + kw i 1 + word w ~first 1)) in
    let c = (c + t) land mask and g = (t + sum0 h + maj h a b) land mask in
    let t = sum1 c + (ch c d e + (f + kw i 2 + word w ~first 2)) in
    let b = (b + t) land mask and f = (t + sum0 g + maj g h a) land mask in
    let t = sum1 b + (ch b c d + (e + kw i 3 + word w ~first 3)) in
    let a = (a + t) land mask and e = (t + sum0 f + maj f g h) land mask in
    let t = sum1 a + (ch a b c + (d + kw i 4 + word w ~first 4)) in
    let h = (h + t) land mask and d = (t + sum0 e + maj e f g) land mask in
    let t = sum1 h + (ch h a b + (c + kw i 5 + word w ~first 5)) in
    let g = (g + t) land mask and c = (t + sum0 d + maj d e f) land mask in
    let t = sum1 g + (ch g h a + (b + kw i 6 + word w ~first 6)) in
    let f = (f + t) land mask and b = (t + sum0 c + maj c d e) land mask in
    let t = sum1 f + (ch f g h + (a + kw i 7 + word w ~first 7)) in
    let e = (e + t) land mask and a = (t + sum0 b + maj b c d) land mask in
    let t = sum1 e + (ch e f g + (h + kw i 8 + word w ~first 8)) in
    let d = (d + t) land mask and h = (t + sum0 a + maj a b c) land mask in
    let t = sum1 d + (ch d e f + (g + kw i 9 + word w ~first 9)) in
    let c = (c + t) land mask and g = (t + sum0 h + maj h a b) land mask in
    let t = sum1 c + (ch c d e + (f + kw i 10 + word w ~first 10)) in
    let b = (b + t) land mask and f = (t + sum0 g + maj g h a) land mask in
    let t = sum1 b + (ch b c d + (e + kw i 11 + word w ~first 11)) in
    let a = (a + t) land mask and e = (t + sum0 f + maj f g h) land mask in
    let t = sum1 a + (ch a b c + (d + kw i 12 + word w ~first 12)) in
    let h = (h + t) land mask and d = (t + sum0 e + maj e f g) land mask in
    let t = sum1 h + (ch h a b + (c + kw i 13 + word w ~first 13)) in
    let g = (g + t) land mask and c = (t + sum0 d + maj d e f) land mask in
    let t = sum1 g + (ch g h a + (b + kw i 14 + word w ~first 14)) in
    let f = (f + t) land mask and b = (t + sum0 c + maj c d e) land mask in
    let t = sum1 f + (ch f g h + (a + kw i 15 + word w ~first 15)) in
    let e = (e + t) land mask and a = (t + sum0 b + maj b c d) land mask in
    set_word w 128 a; set_word w 136 b; set_word w 144 c; set_word w 152 d;
    set_word w 160 e; set_word w 168 f; set_word w 176 g; set_word w 184 h)

let compress ctx block off =
  let w = ctx.w and h = ctx.h in
  for i = 0 to 7 do
    (* Two big-endian message words per load. *)
    let x = Bytes.get_int64_be block (off + (8 * i)) in
    set_word w (16 * i) (Int64.shift_right_logical x 32);
    set_word w ((16 * i) + 8) (Int64.logand x mask);
    set_word w (128 + (8 * i)) (Int64.of_int h.(i))
  done;
  pass w ~first:true 0;
  for p = 1 to 3 do
    pass w ~first:false (16 * p)
  done;
  for i = 0 to 7 do
    h.(i) <- (h.(i) + Int64.to_int (get_word w (128 + (8 * i)))) land 0xFFFFFFFF
  done

(* Absorb [len] bytes of [data] from [start], a range the caller has
   checked. *)
let absorb ctx data start len =
  ctx.total <- ctx.total + len;
  let pos = ref start in
  let stop = start + len in
  (* Fill a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit data start ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := start + take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while stop - !pos >= 64 do
    compress ctx data !pos;
    pos := !pos + 64
  done;
  if !pos < stop then begin
    Bytes.blit data !pos ctx.buf 0 (stop - !pos);
    ctx.buf_len <- stop - !pos
  end

let update_sub ctx data ~pos ~len =
  if ctx.finished then invalid_arg "Sha256.update: context already finalized";
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    invalid_arg "Sha256.update_sub: range out of bounds";
  if Obs.enabled () then Obs.Metrics.add m_bytes len;
  absorb ctx data pos len

let update ctx data = update_sub ctx data ~pos:0 ~len:(Bytes.length data)

let update_string ctx s = update ctx (Bytes.unsafe_of_string s)

let finalize ctx =
  if ctx.finished then invalid_arg "Sha256.finalize: context already finalized";
  ctx.finished <- true;
  let bit_len = ctx.total * 8 in
  (* Padding: 0x80, zeros, 64-bit big-endian length. *)
  let pad_len =
    let r = (ctx.total + 1 + 8) mod 64 in
    if r = 0 then 1 else 1 + (64 - r)
  in
  let tail = Bytes.make (pad_len + 8) '\x00' in
  Bytes.set_uint8 tail 0 0x80;
  for i = 0 to 7 do
    Bytes.set_uint8 tail (pad_len + i) ((bit_len lsr (8 * (7 - i))) land 0xFF)
  done;
  absorb ctx tail 0 (Bytes.length tail);
  let out = Bytes.create 32 in
  Array.iteri
    (fun i v ->
      Bytes.set_uint8 out (4 * i) ((v lsr 24) land 0xFF);
      Bytes.set_uint8 out ((4 * i) + 1) ((v lsr 16) land 0xFF);
      Bytes.set_uint8 out ((4 * i) + 2) ((v lsr 8) land 0xFF);
      Bytes.set_uint8 out ((4 * i) + 3) (v land 0xFF))
    ctx.h;
  out

let digest data =
  let ctx = init () in
  update ctx data;
  finalize ctx

let digest_string s = digest (Bytes.unsafe_of_string s)

let hmac ~key data =
  let key =
    if Bytes.length key > 64 then digest key else key
  in
  let block_key = Bytes.make 64 '\x00' in
  Bytes.blit key 0 block_key 0 (Bytes.length key);
  let xor_pad byte =
    Bytes.init 64 (fun i -> Char.chr (Bytes.get_uint8 block_key i lxor byte))
  in
  let inner = init () in
  update inner (xor_pad 0x36);
  update inner data;
  let inner_hash = finalize inner in
  let outer = init () in
  update outer (xor_pad 0x5c);
  update outer inner_hash;
  finalize outer
