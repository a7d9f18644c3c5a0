(* SHA-256 over native ints masked to 32 bits; OCaml's 63-bit int holds
   all intermediate sums before masking. *)

let digest_size = 32

let mask = 0xFFFFFFFF

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
  w : int array; (* message schedule scratch *)
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
    w = Array.make 64 0;
  }

(* The rounds keep 32-bit words in 63-bit ints without masking each
   rotation: [(x lsr n) lor (x lsl (32 - n))] is right only in its low
   32 bits, and the garbage above bit 31 only ever reaches additions
   and xors whose low 32 bits are then kept.  So a value is masked once,
   where it is stored (a schedule word, e, a and the state), and every
   value shifted right is one of those stored, masked words. *)
let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i (Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask)
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let s0 = ((x lsr 7) lor (x lsl 25)) lxor ((x lsr 18) lor (x lsl 14)) lxor (x lsr 3) in
    let s1 = ((y lsr 17) lor (y lsl 15)) lxor ((y lsr 19) lor (y lsl 13)) lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let ev = !e and av = !a in
    let s1 =
      ((ev lsr 6) lor (ev lsl 26))
      lxor ((ev lsr 11) lor (ev lsl 21))
      lxor ((ev lsr 25) lor (ev lsl 7))
    in
    let ch = (ev land !f) lxor (lnot ev land !g) in
    let temp1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 =
      ((av lsr 2) lor (av lsl 30))
      lxor ((av lsr 13) lor (av lsl 19))
      lxor ((av lsr 22) lor (av lsl 10))
    in
    let maj = (av land (!b lor !c)) lor (!b land !c) in
    hh := !g;
    g := !f;
    f := ev;
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := av;
    a := (temp1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

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

let hex b = Mycelium_util.Hex.encode (digest b)

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

let hkdf ?salt ~ikm ~info ~length () =
  let salt = match salt with Some s -> s | None -> Bytes.make 32 '\x00' in
  let prk = hmac ~key:salt ikm in
  let blocks = (length + 31) / 32 in
  if blocks > 255 then invalid_arg "Sha256.hkdf: output too long";
  let out = Buffer.create length in
  let prev = ref Bytes.empty in
  for i = 1 to blocks do
    let data = Buffer.create (Bytes.length !prev + String.length info + 1) in
    Buffer.add_bytes data !prev;
    Buffer.add_string data info;
    Buffer.add_char data (Char.chr i);
    prev := hmac ~key:prk (Buffer.to_bytes data);
    Buffer.add_bytes out !prev
  done;
  Buffer.sub out 0 length |> Bytes.of_string
