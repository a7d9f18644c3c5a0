(* SHA-256 (FIPS 180-4).  The compression function runs on unboxed
   Int64 words; everything around it on native ints. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
  mutable finished : bool;
  w : Bytes.t; (* message schedule scratch: 64 words, 8 bytes each *)
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
    w = Bytes.create 512;
  }

(* Schedule word i sits native-endian at byte 8·i of [ctx.w]; every
   offset below is 8·i with i < 64, inside its 512 bytes. *)
external get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_word : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let mask = 0xFFFFFFFFL

(* The 32-bit words live in unboxed Int64 locals: ocamlopt keeps an
   int64 that is let- or ref-bound and never escapes in a register, so
   add, xor and shift are one instruction each, where a tagged int
   re-tags after most of them.

   A rotation reads a doubled word.  For x < 2^32 and
   d = x lor (x lsl 32), the low 32 bits of d lsr n are x rotated right
   by n, so a Σ is one shl, one or, three shr and two xors.  The bits
   above 31 are garbage that only reaches additions and xors whose low
   32 bits are kept.  So a word is masked once, where it is stored (a
   schedule word, e, a and the state), and every word that is doubled
   or shifted right is one of those stored, masked words. *)
let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 7 do
    (* Two big-endian message words per load. *)
    let x = Bytes.get_int64_be block (off + (8 * i)) in
    set_word w (16 * i) (Int64.shift_right_logical x 32);
    set_word w ((16 * i) + 8) (Int64.logand x mask)
  done;
  for i = 16 to 63 do
    let x = get_word w (8 * (i - 15)) and y = get_word w (8 * (i - 2)) in
    let w16 = get_word w (8 * (i - 16)) and w7 = get_word w (8 * (i - 7)) in
    set_word w (8 * i)
      Mycelium_util.Int64_ops.(
        let dx = x lor (x lsl 32) and dy = y lor (y lsl 32) in
        let s0 = (dx lsr 7) lxor (dx lsr 18) lxor (x lsr 3) in
        let s1 = (dy lsr 17) lxor (dy lsr 19) lxor (y lsr 10) in
        (w16 + s0 + w7 + s1) land mask)
  done;
  let h = ctx.h in
  let a = ref (Int64.of_int h.(0)) and b = ref (Int64.of_int h.(1)) in
  let c = ref (Int64.of_int h.(2)) and d = ref (Int64.of_int h.(3)) in
  let e = ref (Int64.of_int h.(4)) and f = ref (Int64.of_int h.(5)) in
  let g = ref (Int64.of_int h.(6)) and hh = ref (Int64.of_int h.(7)) in
  for i = 0 to 63 do
    let kw = Int64.of_int (Array.unsafe_get k i) and ww = get_word w (8 * i) in
    let av = !a and bv = !b and cv = !c and ev = !e and fv = !f and gv = !g in
    Mycelium_util.Int64_ops.(
      let de = ev lor (ev lsl 32) and da = av lor (av lsl 32) in
      let s1 = (de lsr 6) lxor (de lsr 11) lxor (de lsr 25) in
      let ch = gv lxor (ev land (fv lxor gv)) in
      let temp1 = !hh + s1 + ch + kw + ww in
      let s0 = (da lsr 2) lxor (da lsr 13) lxor (da lsr 22) in
      let maj = (av land (bv lor cv)) lor (bv land cv) in
      hh := gv;
      g := fv;
      f := ev;
      e := (!d + temp1) land mask;
      d := cv;
      c := bv;
      b := av;
      a := (temp1 + s0 + maj) land mask)
  done;
  h.(0) <- (h.(0) + Int64.to_int !a) land 0xFFFFFFFF;
  h.(1) <- (h.(1) + Int64.to_int !b) land 0xFFFFFFFF;
  h.(2) <- (h.(2) + Int64.to_int !c) land 0xFFFFFFFF;
  h.(3) <- (h.(3) + Int64.to_int !d) land 0xFFFFFFFF;
  h.(4) <- (h.(4) + Int64.to_int !e) land 0xFFFFFFFF;
  h.(5) <- (h.(5) + Int64.to_int !f) land 0xFFFFFFFF;
  h.(6) <- (h.(6) + Int64.to_int !g) land 0xFFFFFFFF;
  h.(7) <- (h.(7) + Int64.to_int !hh) land 0xFFFFFFFF

let update_sub ctx data ~pos:start ~len =
  if ctx.finished then invalid_arg "Sha256.update: context already finalized";
  if start < 0 || len < 0 || start + len > Bytes.length data then
    invalid_arg "Sha256.update_sub: range out of bounds";
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
  ctx.finished <- false;
  update ctx tail;
  ctx.finished <- true;
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
