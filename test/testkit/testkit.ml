(* Shared test helpers.  Nothing under lib/ calls these; they live
   here because several suites use them. *)

(* Lower-case hex of bytes, and its inverse (either case). *)
module Hex = struct
  let hex_chars = "0123456789abcdef"

  let encode b =
    let n = Bytes.length b in
    let out = Bytes.create (2 * n) in
    for i = 0 to n - 1 do
      let v = Bytes.get_uint8 b i in
      Bytes.set out (2 * i) hex_chars.[v lsr 4];
      Bytes.set out ((2 * i) + 1) hex_chars.[v land 0xF]
    done;
    Bytes.unsafe_to_string out

  let nibble c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Hex.decode: non-hex character"

  let decode s =
    let n = String.length s in
    if n mod 2 <> 0 then invalid_arg "Hex.decode: odd length";
    let out = Bytes.create (n / 2) in
    for i = 0 to (n / 2) - 1 do
      Bytes.set_uint8 out i ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1])
    done;
    out
end

(* N=4096 with a 16-prime modulus: products of ~10 ciphertexts, the
   degree bound d of Figure 4. *)
let test_wide =
  {
    Mycelium_bgv.Params.degree = 4096;
    plain_modulus = 65537;
    prime_bits = 30;
    levels = 16;
    error_eta = 2;
  }

(* Population variance (0 below two elements) and its square root. *)
let variance a =
  let n = Array.length a in
  if n < 2 then 0.
  else begin
    let m = Array.fold_left ( +. ) 0. a /. float_of_int n in
    Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. a /. float_of_int n
  end

let stddev a = sqrt (variance a)

(* Words allocated by [f], minor and major heap together.  The minor
   part comes from [Gc.minor_words]: OCaml 5.1's [Gc.counters], and so
   [Gc.allocated_bytes], undercounts the minor heap. *)
let allocated_words f =
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
