module Sha256 = Mycelium_crypto.Sha256
module Rng = Mycelium_util.Rng

(* H(x || B), read as the digest's first 62 bits. *)
let score ~beacon x =
  let ctx = Sha256.init () in
  Sha256.update_string ctx (string_of_int x);
  Sha256.update ctx beacon;
  Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_be (Sha256.finalize ctx) 0) 2)

let rank ~beacon total =
  let scores = Array.init total (score ~beacon) in
  let ranks = Array.init total Fun.id in
  (* Stable, so pseudonyms of equal score stay in number order. *)
  Array.stable_sort (fun a b -> Int.compare scores.(a) scores.(b)) ranks;
  ranks

let draw rng ranks ~width ~hop = ranks.(((hop - 1) * width) + Rng.int rng width)

let draw_path rng ranks ~width ~hops =
  Array.init hops (fun i -> draw rng ranks ~width ~hop:(i + 1))
